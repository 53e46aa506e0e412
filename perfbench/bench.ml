(* The repo benchmark. Run from the repository root:

     python3 perfbench/run.py --workload repro --seed 1 --seconds 10 --trace 0

   --trace 0 measures the workload untraced and prints every end-to-end
   metric; --trace 1 makes the traced run and prints every per-layer
   metric. The metric names and units are declared once, in
   BENCHMARK.json. The last line of standard output is the result:
   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
   perfbench/README.md describes the workloads and how to read spans. *)

let workloads = [ "repro"; "serve"; "fuzz"; "checked" ]

let usage () =
  prerr_endline
    "usage: bench --workload (repro|serve|fuzz|checked) --seed N --seconds S \
     --trace (0|1)\n\
    \       bench --write-golden   (regenerate perfbench/golden/repro.md5)";
  exit 2

let args () =
  let rec go acc = function
    | [] -> acc
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      go ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | _ -> usage ()
  in
  go [] (List.tl (Array.to_list Sys.argv))

(* The declared metrics, (name, unit) in declaration order. *)
let declared group =
  let json = Trace.Json.parse (Core.read_file "BENCHMARK.json") in
  match Trace.Json.member group json with
  | Some (Trace.Json.List entries) ->
    List.map
      (fun e ->
        match
          ( Option.bind (Trace.Json.member "name" e) Trace.Json.to_string_opt,
            Option.bind (Trace.Json.member "unit" e) Trace.Json.to_string_opt )
        with
        | Some name, Some unit_ -> (name, unit_)
        | _ -> failwith ("BENCHMARK.json: malformed " ^ group ^ " entry"))
      entries
  | _ -> failwith ("BENCHMARK.json: no " ^ group ^ " list")

(* JSON numbers with every digit; the metrics are never infinite. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed ~declared measured =
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name declared) then
        failwith ("metric not declared in BENCHMARK.json: " ^ name))
    measured;
  (* A declared per-layer metric the workload does not exercise reads 0. *)
  let fields =
    List.map
      (fun (name, unit_) ->
        let v = Option.value (List.assoc_opt name measured) ~default:0. in
        let v = if Float.is_nan v then 0. else v in
        Printf.printf "%-34s %16s %s\n" name (number v) unit_;
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (number v) unit_)
      declared
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let () =
  let args = args () in
  if List.mem_assoc "write-golden" args then begin
    Repro.write_golden ();
    exit 0
  end;
  let get key =
    match List.assoc_opt key args with Some v -> v | None -> usage ()
  in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ();
  let seed = int "seed" in
  let seconds = float_of_int (int "seconds") in
  let traced =
    match get "trace" with "0" -> false | "1" -> true | _ -> usage ()
  in
  let declared = declared (if traced then "per_layer" else "end_to_end") in
  Printf.printf "perfbench: workload %s, seed %d, %s run, engine %s\n%!"
    workload seed
    (if traced then "traced" else "untraced")
    (Core.engine_name (Core.default_engine ()));
  let t0 = Unix.gettimeofday () in
  let attempted, failed, metrics =
    match (workload, traced) with
    | "repro", false -> Repro.run_untraced ~seconds
    | "repro", true -> Repro.run_traced ()
    | "serve", false -> Serve_load.run_untraced ~seed ~seconds
    | "serve", true -> Serve_load.run_traced ~seed
    | "fuzz", false -> Fuzz_load.run_untraced ~seed ~seconds
    | "fuzz", true -> Fuzz_load.run_traced ~seed
    | "checked", false -> Checked.run_untraced ~seconds
    | _ -> Checked.run_traced ()
  in
  let metrics =
    if traced then
      ("error_rate", Common.fratio failed (max 1 attempted)) :: metrics
    else metrics
  in
  if traced then begin
    let path = Printf.sprintf "_perfbench/spans-%s-%d.json" workload seed in
    Spans.write path;
    Printf.printf "spans: %d written to %s\n" (List.length !Spans.spans) path
  end;
  Printf.printf "run took %.1f s; %d attempted, %d failed\n"
    (Unix.gettimeofday () -. t0) attempted failed;
  let guards_ok = !Common.guard_failures = [] in
  print_result
    ~correct:(failed = 0 && guards_ok && attempted > 0)
    ~attempted:(max 1 attempted) ~failed ~declared metrics
