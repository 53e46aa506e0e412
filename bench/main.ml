(* The one reproduction CLI and benchmark harness: regenerates the
   paper's tables and figures (printing the reproduced rows next to the
   paper's numbers) and reports the host throughput of the run.

     dune exec bench/main.exe                   # the full reproduction
     dune exec bench/main.exe -- table1 figure2 # just these experiments
     dune exec bench/main.exe -- --trace        # + trace/profile JSON
     dune exec bench/main.exe -- -j 4           # reproduction across 4 domains
     dune exec bench/main.exe -- --engine=reference
                                                # pick the CPU engine
     dune exec bench/main.exe -- --quick --ab   # block-vs-reference gate
     dune exec bench/main.exe -- --matrix       # five-scheme protection matrix
                                                # (gcc/bcc/bcc-bound/cash/mpx/
                                                # cap; --quick for the CI slice)
     dune exec bench/main.exe -- --matrix --trace
                                                # the same, at one job, under
                                                # the shipped checker plugins

   An experiment is named as in [Harness.Suite.all], or
   [ablation-dynamics]; the named ones (all, if none is) run and print
   in list order. Any argument bench does not parse is a usage error
   (exit 124), as is --ab with --matrix or --trace. Per-layer timing of
   these pipelines is perfbench/'s job; this harness times only the
   whole reproduction.

   The reproduction pass runs the selected experiments as independent
   jobs on a Domain pool (lib/parallel): -j N picks the worker count,
   defaulting to the CASH_JOBS environment variable or
   Domain.recommended_domain_count. Reports are collected by job index
   and printed in experiment order, so the table/figure output is
   byte-identical at any -j; simulated cycle counts are engine-, trace-
   and parallelism-independent.

   The pass also reports host throughput — simulated instructions
   retired per host second, summed across domains — and writes it to
   BENCH_<n>.json, claiming the first free index atomically (O_EXCL, so
   two concurrent runs can never take the same file) to keep the
   sequence a real time series, stamped with engine/version/jobs
   metadata. With --trace, every job runs under its own Trace.sink (the
   ambient sink is domain-local); the per-job sinks are merged in job
   order after the barrier and dumped to the matching TRACE_<n>.json:
   per-function cycle attribution plus segment/TLB/fault/LDT event
   counts, all summing exactly to a serial run's. *)

(* Every experiment bench runs: [Harness.Suite.all] — the list the
   benchmark's [repro] workload and the oracle tests share — plus the
   software-check dynamics behind the register-budget ablation, kept
   out of [Suite.all] because perfbench digests every [Suite] entry
   against its own golden file. --quick scales the experiment that
   dominates wall time (Table 8's request count) down so a two-engine
   A/B gate fits in a CI minute; every table still regenerates, so
   engine regressions anywhere in the suite are caught, just on smaller
   workloads. *)
let experiments ~quick =
  Harness.Suite.all ?table8_requests:(if quick then Some 5 else None) ()
  @ [ Harness.Suite.simple "ablation-dynamics"
        Harness.Ablation.sw_check_dynamics ]

let print_reports reports =
  print_endline
    "=====================================================================";
  print_endline
    " Cash reproduction: every table and figure of the DSN 2005 paper";
  print_endline
    "=====================================================================";
  List.iter Harness.Report.print reports

(* --- host throughput: simulated insns per host second ------------------- *)

type throughput = {
  wall_seconds : float;
  insns : int;
  insns_per_second : float;
}

(* Run [f] and measure the simulated instructions it retires per host
   wall-clock second (the interpreter's end-to-end speed, including
   compilation and harness overhead; with several domains the retire
   counts sum across workers while the wall clock stays one clock). *)
let measure_throughput f =
  let t0 = Unix.gettimeofday () in
  let i0 = Machine.Cpu.total_retired () in
  let result = f () in
  let wall_seconds = Unix.gettimeofday () -. t0 in
  let insns = Machine.Cpu.total_retired () - i0 in
  let insns_per_second =
    if wall_seconds > 0. then float_of_int insns /. wall_seconds else 0.
  in
  (result, { wall_seconds; insns; insns_per_second })

let print_throughput ~jobs tp =
  print_endline
    "\n== host throughput: full reproduction run (simulated insns / host second) ==";
  Printf.printf "jobs                  %12d\n" jobs;
  Printf.printf "wall-clock            %12.2f s\n" tp.wall_seconds;
  Printf.printf "insns executed        %12d\n" tp.insns;
  Printf.printf "insns per host second %12.0f\n" tp.insns_per_second

(* Machine-readable perf record, one file per run, for trajectory
   tracking across the stacked sequence. Never overwrites: each run
   claims the first free index with O_CREAT|O_EXCL — an atomic
   test-and-create, so two runs racing for BENCH_<n>.json cannot both
   win it (the old Sys.file_exists-then-open_out scan could hand the
   same index to both) — and BENCH_1.json, BENCH_2.json, ... is a real
   time series. Claiming BENCH_<n> also reserves TRACE_<n>. *)
let claim_output_channel () =
  let rec go n =
    if n > 10_000 then failwith "bench: no free BENCH_<n>.json index"
    else if Sys.file_exists (Printf.sprintf "TRACE_%d.json" n) then go (n + 1)
    else
      let path = Printf.sprintf "BENCH_%d.json" n in
      match
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
      with
      | fd -> (n, path, Unix.out_channel_of_descr fd)
      | exception Unix.Unix_error (Unix.EEXIST, _, _) -> go (n + 1)
  in
  go 1

(* Schema 9, the only record bench writes: one reproduction pass, with
   its engine and superblock compilation shape — "blocks_built"
   superblocks of "avg_block_len" instructions, both zero for the
   reference engine and for traced runs. *)
let schema = 9

let write_json ~path ~oc ~engine ~traced ~quick ~jobs ~n_experiments
    ~blocks_built ~avg_block_len tp =
  let json =
    Trace.Json.(
      Obj
        [
          ("schema", Int schema);
          ( "bench",
            Str (if quick then "quick-reproduction" else "full-reproduction")
          );
          ("engine", Str (Core.engine_name engine));
          ("traced", Bool traced);
          ("jobs", Int jobs);
          ("ocaml_version", Str Sys.ocaml_version);
          ("experiments", Int n_experiments);
          ("wall_seconds", Float tp.wall_seconds);
          ("insns_executed", Int tp.insns);
          ("insns_per_host_second", Float tp.insns_per_second);
          ("blocks_built", Int blocks_built);
          ("avg_block_len", Float avg_block_len);
        ])
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Trace.Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path

let write_trace_json ~path sink =
  Core.write_file path (Trace.Json.to_string (Trace.to_json sink) ^ "\n");
  Printf.printf "wrote %s\n" path

(* Print each attached plugin's verdict on [oc] and return the shipped
   plugins' violations, each also listed on stderr. *)
let report_plugins oc sink =
  let violations = Checkers.shipped_violations sink in
  Printf.fprintf oc "\n== trace: checker plugins ==\n";
  List.iter
    (fun name ->
      let n = List.length (List.filter (fun (c, _) -> c = name) violations) in
      Printf.fprintf oc "%-28s %s\n" name
        (if n = 0 then "ok" else Printf.sprintf "%d violation(s)" n))
    (Trace.plugin_names sink);
  List.iter
    (fun (c, m) -> Printf.eprintf "plugin violation: %s: %s\n" c m)
    violations;
  violations

(* Per-job wall-clock: the suite's critical path is its slowest job.
   With Table 8 split into warm-started per-request jobs, the largest
   request job — not a monolithic table8 — should top this list. *)
let print_job_timings (timings : Harness.Suite.timing list) =
  let sorted =
    List.sort
      (fun (a : Harness.Suite.timing) b -> compare b.seconds a.seconds)
      timings
  in
  print_endline "\n== slowest jobs (wall-clock) ==";
  List.iteri
    (fun i (t : Harness.Suite.timing) ->
      if i < 8 then
        Printf.printf "%-44s %8.2f s\n" t.Harness.Suite.job t.seconds)
    sorted;
  let max_with prefix =
    List.fold_left
      (fun acc (t : Harness.Suite.timing) ->
        if String.length t.job >= String.length prefix
           && String.sub t.job 0 (String.length prefix) = prefix
        then max acc t.seconds
        else acc)
      0. timings
  in
  let warm = max_with "table8:warm:" in
  let req = max_with "table8:request:" in
  if warm > 0. || req > 0. then
    Printf.printf "table8 split: max warm job %.2f s, max request job %.2f s\n"
      warm req

(* --- --matrix: the five-scheme protection matrix ------------------------ *)

(* The --matrix benchmark: one headline table comparing every protection
   scheme (gcc baseline, bcc, bcc-bound, cash, mpx, cap) over the
   micro/macro/netapps workload slice. The matrix module itself gates
   output agreement and the gcc cycle floor (raising on violation);
   simulated cycles are engine- and parallelism-independent, so the
   printed table is byte-identical at any -j and under any engine — the
   CI step pins that by diffing its legs, and test/golden.md5 pins the
   quick slice's table and totals.

   With --trace the matrix runs under one ambient sink carrying every
   shipped checker plugin, so the plugins watch the mpx and cap event
   streams too. Ambient sinks are per-domain, so a traced matrix runs at
   one job. Tracing changes no simulated number: stdout carries the same
   table and totals, the plugin verdicts go to stderr, and any shipped
   plugin violation exits 1. *)
let run_matrix ~quick ~engine ~jobs ~traced =
  Core.set_default_engine engine;
  let jobs = if traced then 1 else jobs in
  let sink =
    if traced then begin
      let s = Trace.create () in
      Checkers.attach_shipped s;
      Some s
    end
    else None
  in
  Core.set_default_trace sink;
  Printf.printf
    "== bench --matrix: five-scheme protection matrix (engine %s, -j %d%s) \
     ==\n%!"
    (Core.engine_name engine) jobs
    (if traced then ", traced" else "");
  match Harness.Matrix.run ~quick ~jobs () with
  | exception Harness.Runner.Disagreement msg ->
    Printf.eprintf "bench --matrix: %s\n" msg;
    exit 1
  | report, totals ->
    Core.set_default_trace None;
    Harness.Report.print report;
    print_endline "\n== per-scheme totals over the slice ==";
    List.iter
      (fun (t : Harness.Matrix.totals) ->
        Printf.printf "%-10s %12d cycles  %+7.1f%% vs gcc\n"
          t.Harness.Matrix.t_scheme t.Harness.Matrix.t_cycles
          t.Harness.Matrix.t_overhead_pct)
      totals;
    Option.iter
      (fun s ->
        Trace.finish_plugins s;
        if report_plugins stderr s <> [] then exit 1)
      sink

(* --- the reproduction pass ---------------------------------------------- *)

(* One measured reproduction pass under [engine]: run every experiment
   over the domain pool, report throughput, claim and write the
   BENCH/TRACE json pair. Returns the reports and the throughput
   record, for the A/B gate. *)
let run_reproduction ~experiments ~engine ~jobs ~traced ~quick
    ~print_tables =
  Core.set_default_engine engine;
  let aggregate =
    if traced then begin
      (* Every sink created from here on — this aggregate and each
         worker's per-job sink inside Harness.Suite — carries the
         shipped checker plugins; worker states fold back into the
         aggregate through Trace.merge_into. *)
      Trace.set_auto_plugins Checkers.all;
      Some (Trace.create ())
    end
    else None
  in
  let blocks0 = Machine.Cpu.blocks_built () in
  let binsns0 = Machine.Cpu.block_insns_compiled () in
  let (reports, timings), tp =
    measure_throughput (fun () ->
        Harness.Suite.run_all_timed ~jobs ?trace_into:aggregate experiments)
  in
  let blocks_built = Machine.Cpu.blocks_built () - blocks0 in
  let avg_block_len =
    if blocks_built = 0 then 0.
    else
      float_of_int (Machine.Cpu.block_insns_compiled () - binsns0)
      /. float_of_int blocks_built
  in
  if print_tables then print_reports reports;
  Printf.printf "\n== engine %s ==\n" (Core.engine_name engine);
  print_throughput ~jobs tp;
  print_job_timings timings;
  if blocks_built > 0 then
    Printf.printf "blocks built          %12d (avg %.1f insns)\n"
      blocks_built avg_block_len;
  let n, path, oc = claim_output_channel () in
  write_json ~path ~oc ~engine ~traced ~quick ~jobs
    ~n_experiments:(List.length experiments) ~blocks_built ~avg_block_len tp;
  (match aggregate with
   | Some s ->
     Trace.set_auto_plugins [];
     Trace.finish_plugins s;
     write_trace_json ~path:(Printf.sprintf "TRACE_%d.json" n) s;
     print_endline "\n== trace: top functions by attributed cycles ==";
     List.iteri
       (fun i (sym, insns, cycles) ->
         if i < 15 then
           Printf.printf "%-28s %14d cycles %12d insns\n" sym cycles insns)
       (Trace.attributions s);
     print_endline "\n== trace: event counters ==";
     List.iter
       (fun (k, v) -> Printf.printf "%-28s %14d\n" k v)
       (Trace.counters s);
     if report_plugins stdout s <> [] then exit 1
   | None -> ());
  (reports, tp)

(* The A/B gate's floor on block insns/s over reference insns/s, both
   measured in this process. The quick reproduction at -j 2 on a 2-vCPU
   host reads 3.7× in a release build and 4.4× in the dev profile, so
   the gate trips when the superblock engine loses most of its lead,
   not on host drift. *)
let min_ab_speedup = 1.5

(* The A/B gate: the same untraced reproduction under the reference
   oracle and then under the superblock engine. Tables must match byte
   for byte (simulated semantics are engine-independent), and the block
   engine must keep its lead over the oracle. *)
let run_ab ~experiments ~jobs ~quick =
  let render reports =
    String.concat "\n"
      (List.map (Format.asprintf "%a" Harness.Report.pp) reports)
  in
  let reports_ref, tp_ref =
    run_reproduction ~experiments ~engine:Machine.Cpu.Reference ~jobs
      ~traced:false ~quick ~print_tables:false
  in
  let reports_blk, tp_blk =
    run_reproduction ~experiments ~engine:Machine.Cpu.Block ~jobs
      ~traced:false ~quick ~print_tables:false
  in
  if render reports_ref <> render reports_blk then begin
    prerr_endline "bench --ab: block-engine tables differ from reference";
    exit 1
  end;
  let speedup = tp_blk.insns_per_second /. tp_ref.insns_per_second in
  Printf.printf
    "\n== A/B gate: block %.0f insns/s vs reference %.0f insns/s (%.2fx) ==\n"
    tp_blk.insns_per_second tp_ref.insns_per_second speedup;
  if not (speedup >= min_ab_speedup) then begin
    Printf.eprintf "bench --ab: block engine under %.1fx the reference's \
                    insns/s\n" min_ab_speedup;
    exit 1
  end

(* --- arguments ----------------------------------------------------------- *)

open Cmdliner

let names =
  List.map (fun (e : Harness.Suite.experiment) -> e.name)
    (experiments ~quick:false)

let selected =
  let doc =
    "Experiments to run, printed in this order (default: all): "
    ^ String.concat ", " names ^ "."
  in
  Arg.(value & pos_all (enum (List.map (fun n -> (n, n)) names)) []
       & info [] ~docv:"EXPERIMENT" ~doc)

let flag name doc = Arg.(value & flag & info [ name ] ~doc)
let quick = flag "quick" "Table 8 at 5 requests per server, not 25."
let traced =
  flag "trace" "Run under the shipped checker plugins; exit 1 on a violation."
let ab = flag "ab" "Gate the block engine against the reference engine."
let matrix = flag "matrix" "Run the five-scheme protection matrix."

let engine =
  Arg.(value & opt (enum Core.engines) (Core.default_engine ())
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"CPU interpreter for every run. Output is byte-identical \
                 across engines.")

let jobs =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Worker domains (default: CASH_JOBS or the recommended \
                 domain count). Output is byte-identical at any value.")

let run selected quick traced ab matrix engine jobs =
  match (match jobs with Some j -> j | None -> Parallel.default_jobs ()) with
  | exception Failure msg -> `Error (false, msg)  (* a malformed CASH_JOBS *)
  | jobs when jobs < 1 -> `Error (true, "-j: expected a positive integer")
  | _ when ab && (matrix || traced) ->
    (* A traced Block run steps per instruction: it has no lead to gate. *)
    `Error (true, "--ab takes neither --matrix nor --trace")
  | _ when matrix && selected <> [] ->
    `Error (true, "--matrix takes no EXPERIMENT")
  | jobs ->
    (if matrix then run_matrix ~quick ~engine ~jobs ~traced
     else
       let experiments =
         List.filter
           (fun (e : Harness.Suite.experiment) ->
             selected = [] || List.mem e.name selected)
           (experiments ~quick)
       in
       if ab then run_ab ~experiments ~jobs ~quick
       else
         ignore
           (run_reproduction ~experiments ~engine ~jobs ~traced ~quick
              ~print_tables:true));
    `Ok ()

let () =
  let doc = "reproduce the tables and figures of the Cash paper (DSN 2005)" in
  exit
    (Cmd.eval
       (Cmd.v (Cmd.info "bench" ~doc)
          Term.(ret (const run $ selected $ quick $ traced $ ab $ matrix
                     $ engine $ jobs))))
