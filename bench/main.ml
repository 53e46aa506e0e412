(* The benchmark harness: regenerates every table and figure of the paper
   (printing the reproduced rows next to the paper's numbers), then runs
   one Bechamel micro-benchmark per experiment measuring the wall-clock
   cost of regenerating it on this machine.

     dune exec bench/main.exe                 # tables + bechamel
     dune exec bench/main.exe -- --no-bechamel  # reproduction output only
     dune exec bench/main.exe -- --trace        # + trace/profile JSON
     dune exec bench/main.exe -- -j 4           # reproduction across 4 domains
     dune exec bench/main.exe -- --engine=block # pick the CPU engine
     dune exec bench/main.exe -- --no-chain     # block engine without chaining
     dune exec bench/main.exe -- --quick --ab   # fast block-vs-predecode gate
     dune exec bench/main.exe -- --quick --ab-chain
                                              # chain-on vs chain-off gate
     dune exec bench/main.exe -- --compare BENCH_3.json
                                              # + ratios vs a prior record
     dune exec bench/main.exe -- --serve 2000 # warm-pool request server
                                              # throughput (pooled vs fresh)
     dune exec bench/main.exe -- --frontend   # compile-pipeline throughput:
                                              # lexer A/B, compiles/s, fleet
                                              # cold vs warm-pool legs
     dune exec bench/main.exe -- --matrix     # five-scheme protection matrix
                                              # (gcc/bcc/bcc-bound/cash/mpx/
                                              # cap; --quick for the CI slice)
     dune exec bench/main.exe -- --matrix --trace
                                              # the same, at one job, under
                                              # the shipped checker plugins

   The reproduction pass runs its 14 experiments as independent jobs on
   a Domain pool (lib/parallel): -j N picks the worker count, defaulting
   to the CASH_JOBS environment variable or
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

(* --quick scales the experiment that dominates wall time (Table 8's
   request count) down so a two-engine A/B gate fits in a CI minute;
   every table still regenerates, so engine regressions anywhere in the
   suite are caught, just on smaller workloads. *)
let experiments ~quick =
  if quick then Harness.Suite.all ~table8_requests:5 ()
  else Harness.Suite.all ()

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

(* The block/chain compilation shape of one reproduction pass, snapshotted
   as deltas of the process-wide counters around the measured run:
   "blocks_built" superblocks of "avg_block_len" instructions, welded into
   "chains_built" chains spanning "avg_chain_blocks" blocks /
   "avg_chain_insns" instructions each (all zero for the per-instruction
   engines, and for the block engine with --no-chain). *)
type shape = {
  chaining : bool;  (* chaining was enabled for this pass *)
  blocks_built : int;
  avg_block_len : float;
  chains_built : int;
  avg_chain_blocks : float;
  avg_chain_insns : float;
}

(* Schema 8: adds the five-scheme matrix record kind (bench = "matrix",
   written by --matrix, with per-scheme total cycles and overhead
   percentages over the workload slice) alongside schema 7's frontend
   records (bench = "frontend"), schema 6's serve records (bench =
   "serve"), and the reproduction records, which carry schema 5's
   fields unchanged ("chaining" and the chain shape on top of
   schema 4's engine + superblock shape). *)
let schema = 8

let write_json ~path ~oc ~engine ~traced ~quick ~jobs ~n_experiments
    ~shape tp =
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
          ("chaining", Bool shape.chaining);
          ("jobs", Int jobs);
          ("ocaml_version", Str Sys.ocaml_version);
          ("experiments", Int n_experiments);
          ("wall_seconds", Float tp.wall_seconds);
          ("insns_executed", Int tp.insns);
          ("insns_per_host_second", Float tp.insns_per_second);
          ("blocks_built", Int shape.blocks_built);
          ("avg_block_len", Float shape.avg_block_len);
          ("chains_built", Int shape.chains_built);
          ("avg_chain_blocks", Float shape.avg_chain_blocks);
          ("avg_chain_insns", Float shape.avg_chain_insns);
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

(* --- --compare: ratios against a prior BENCH_<n>.json ------------------- *)

(* [--compare BENCH_3.json] (or [--compare=...]): read a prior run's
   perf record back ([Trace.Json.parse]) and print this run's numbers
   as ratios against it. Drift warns, never fails: the shared host's
   baseline wanders (±15% observed across the PR sequence — see
   ROADMAP), so a cross-run ratio is advice for a human reading a
   trajectory, not a CI gate. Within-run comparisons (the --ab gate)
   stay the only fatal ones. *)
let compare_of_argv argv =
  let n = Array.length argv in
  let found = ref None in
  Array.iteri
    (fun i a ->
      if a = "--compare" && i + 1 < n then found := Some argv.(i + 1)
      else if String.length a > 10 && String.sub a 0 10 = "--compare=" then
        found := Some (String.sub a 10 (String.length a - 10)))
    argv;
  !found

let compare_against ~path ~engine ~quick ~jobs ~shape tp =
  match Trace.Json.parse (Core.read_file path) with
  | exception Sys_error msg ->
    Printf.eprintf "bench --compare: cannot read %s: %s\n" path msg
  | exception Trace.Json.Parse_error msg ->
    Printf.eprintf "bench --compare: %s: %s\n" path msg
  | old -> (
    let fld k conv = Option.bind (Trace.Json.member k old) conv in
    match fld "insns_per_host_second" Trace.Json.to_float_opt with
    | None ->
      Printf.eprintf
        "bench --compare: %s has no insns_per_host_second field\n" path
    | Some old_ips ->
      let old_str k = fld k Trace.Json.to_string_opt in
      let old_engine = Option.value ~default:"?" (old_str "engine") in
      let old_bench = Option.value ~default:"?" (old_str "bench") in
      let old_jobs = fld "jobs" Trace.Json.to_int_opt in
      Printf.printf "\n== compare vs %s (%s, engine %s, jobs %s) ==\n" path
        old_bench old_engine
        (match old_jobs with Some j -> string_of_int j | None -> "?");
      (match fld "wall_seconds" Trace.Json.to_float_opt with
       | Some old_wall when old_wall > 0. ->
         Printf.printf "wall-clock            %12.2f s   then %8.2f s  (%.2fx)\n"
           tp.wall_seconds old_wall (tp.wall_seconds /. old_wall)
       | _ -> ());
      (match fld "insns_executed" Trace.Json.to_int_opt with
       | Some old_insns when old_insns > 0 ->
         Printf.printf "insns executed        %12d   then %8d  (%.2fx)\n"
           tp.insns old_insns
           (float_of_int tp.insns /. float_of_int old_insns)
       | _ -> ());
      let ratio = tp.insns_per_second /. old_ips in
      Printf.printf "insns per host second %12.0f   then %8.0f  (%.2fx)\n"
        tp.insns_per_second old_ips ratio;
      (* The compilation shape (schema ≥4/5 fields): host-independent,
         so a delta here is a real behaviour change in the block or
         chain builders, not host noise. Older records simply lack the
         fields and print nothing. *)
      let shape_int name now =
        match fld name Trace.Json.to_int_opt with
        | Some old_v when old_v > 0 || now > 0 ->
          Printf.printf "%-21s %12d   then %8d  (%.2fx)\n" name now old_v
            (if old_v = 0 then Float.infinity
             else float_of_int now /. float_of_int old_v)
        | _ -> ()
      in
      let shape_float name now =
        match fld name Trace.Json.to_float_opt with
        | Some old_v when old_v > 0. || now > 0. ->
          Printf.printf "%-21s %12.1f   then %8.1f  (%.2fx)\n" name now
            old_v
            (if old_v = 0. then Float.infinity else now /. old_v)
        | _ -> ()
      in
      shape_int "blocks_built" shape.blocks_built;
      shape_float "avg_block_len" shape.avg_block_len;
      shape_int "chains_built" shape.chains_built;
      shape_float "avg_chain_blocks" shape.avg_chain_blocks;
      shape_float "avg_chain_insns" shape.avg_chain_insns;
      (match Option.bind (Trace.Json.member "chaining" old) (function
         | Trace.Json.Bool b -> Some b
         | _ -> None)
       with
       | Some old_chaining when old_chaining <> shape.chaining ->
         Printf.printf
           "note: chaining differs (%b vs %b); block-engine throughput is \
            not comparable\n"
           shape.chaining old_chaining
       | _ -> ());
      let this_bench =
        if quick then "quick-reproduction" else "full-reproduction"
      in
      if old_bench <> "?" && old_bench <> this_bench then
        Printf.printf
          "note: workload scale differs (%s vs %s); the ratio is not a \
           perf signal\n"
          this_bench old_bench;
      if old_engine <> "?" && old_engine <> Core.engine_name engine then
        Printf.printf
          "note: engine differs (%s vs %s); the ratio mixes engine and \
           host effects\n"
          (Core.engine_name engine) old_engine;
      (match old_jobs with
       | Some j when j <> jobs ->
         Printf.printf
           "note: job count differs (-j %d vs -j %d); throughput sums \
            across domains\n"
           jobs j
       | _ -> ());
      if ratio > 1.15 || ratio < 1. /. 1.15 then
        Printf.printf
          "warning: host throughput drifted %+.0f%% against %s — likely \
           host noise; re-measure the old commit on this host before \
           reading this as a regression\n"
          ((ratio -. 1.) *. 100.) path)

(* --- --serve: warm-pool request-server throughput ----------------------- *)

let serve_of_argv argv =
  let n = Array.length argv in
  let found = ref None in
  Array.iteri
    (fun i a ->
      if a = "--serve" && i + 1 < n then found := Some argv.(i + 1)
      else if String.length a > 8 && String.sub a 0 8 = "--serve=" then
        found := Some (String.sub a 8 (String.length a - 8)))
    argv;
  match !found with
  | None -> None
  | Some s -> (
    match int_of_string_opt s with
    | Some n when n > 0 -> Some n
    | _ ->
      Printf.eprintf "bench --serve: expected a positive request count, got %S\n" s;
      exit 2)

let print_serve_summary ~label (s : Serve.Server.summary) =
  Printf.printf
    "%-22s %6d req  %8.3f s  %8.1f req/s  p50 %8.1f us  p90 %8.1f us  \
     p99 %8.1f us  (%d error(s))\n"
    label s.Serve.Server.requests s.Serve.Server.wall_seconds
    s.Serve.Server.req_per_s s.Serve.Server.p50_us s.Serve.Server.p90_us
    s.Serve.Server.p99_us s.Serve.Server.errors

let write_serve_json ~engine ~jobs ~requests ~(pooled : Serve.Server.summary)
    ~(fresh : Serve.Server.summary) ~alloc_pooled ~alloc_fresh =
  let n, path, oc = claim_output_channel () in
  let json =
    Trace.Json.(
      Obj
        [
          ("schema", Int schema);
          ("bench", Str "serve");
          ("engine", Str (Core.engine_name engine));
          ("jobs", Int jobs);
          ("ocaml_version", Str Sys.ocaml_version);
          ("requests", Int requests);
          ("errors", Int pooled.Serve.Server.errors);
          ("wall_seconds", Float pooled.Serve.Server.wall_seconds);
          ("req_per_s", Float pooled.Serve.Server.req_per_s);
          ("p50_us", Float pooled.Serve.Server.p50_us);
          ("p90_us", Float pooled.Serve.Server.p90_us);
          ("p99_us", Float pooled.Serve.Server.p99_us);
          ("fresh_requests", Int fresh.Serve.Server.requests);
          ("fresh_req_per_s", Float fresh.Serve.Server.req_per_s);
          ("fresh_p50_us", Float fresh.Serve.Server.p50_us);
          ("alloc_bytes_per_request", Float alloc_pooled);
          ("fresh_alloc_bytes_per_request", Float alloc_fresh);
        ])
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Trace.Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path;
  ignore n

(* The --serve benchmark: the Table 8 request mix through the warm-pool
   server (restore into reused machines) against the fresh-restore
   baseline (build a machine per request) — same warm set, same engine,
   same worker count; the baseline leg runs a fifth of the requests
   since it exists only for the ratio. A second probe at one job
   measures allocation per replay request on both paths
   (Gc.allocated_bytes is per-domain, so the probe must not fan out). *)
let run_serve ~requests ~engine ~jobs =
  Core.set_default_engine engine;
  Printf.printf
    "== bench --serve: warm-pool request server (engine %s, -j %d) ==\n%!"
    (Core.engine_name engine) jobs;
  let warms = Serve.Server.table8_warms ~jobs () in
  let names = List.map (fun w -> w.Serve.Server.w_name) warms in
  let pooled_server = Serve.Server.create ~jobs ~warms ~engine () in
  let fresh_server =
    Serve.Server.create ~jobs ~warms ~engine ~pooled:false ()
  in
  let _, pooled =
    Serve.Server.run_lines pooled_server (Serve.Server.gen_mix ~names requests)
  in
  let fresh_n = max 1 (requests / 5) in
  let _, fresh =
    Serve.Server.run_lines fresh_server (Serve.Server.gen_mix ~names fresh_n)
  in
  print_serve_summary ~label:"pooled (restore_into)" pooled;
  print_serve_summary ~label:"fresh (restore)" fresh;
  if fresh.Serve.Server.req_per_s > 0. then
    Printf.printf "pooled/fresh speedup   %.2fx req/s, %.2fx p50 latency\n"
      (pooled.Serve.Server.req_per_s /. fresh.Serve.Server.req_per_s)
      (fresh.Serve.Server.p50_us /. max 1e-9 pooled.Serve.Server.p50_us);
  (* Allocation probe: replay-only, one job so every allocation lands on
     this domain's counter, one warm pool reused across all [probe_n]
     requests. *)
  let probe_n = 50 in
  let probe_lines =
    (* replay-only: drop the mix's every-4th compile-and-run *)
    List.filteri (fun i _ -> i mod 4 <> 3)
      (Serve.Server.gen_mix ~names:[ List.hd names ] probe_n)
  in
  let alloc_per_request pooled =
    let s1 = Serve.Server.create ~jobs:1 ~warms ~engine ~pooled () in
    (* one throwaway request so the worker pool exists before measuring *)
    ignore (Serve.Server.run_lines s1 [ List.hd probe_lines ]);
    let a0 = Gc.allocated_bytes () in
    ignore (Serve.Server.run_lines s1 probe_lines);
    (Gc.allocated_bytes () -. a0) /. float_of_int (List.length probe_lines)
  in
  let alloc_pooled = alloc_per_request true in
  let alloc_fresh = alloc_per_request false in
  Printf.printf
    "allocation per replay request: pooled %.0f bytes, fresh %.0f bytes\n"
    alloc_pooled alloc_fresh;
  if pooled.Serve.Server.errors > 0 || fresh.Serve.Server.errors > 0 then
    Printf.eprintf "bench --serve: warning: %d pooled / %d fresh error(s)\n"
      pooled.Serve.Server.errors fresh.Serve.Server.errors;
  write_serve_json ~engine ~jobs ~requests ~pooled ~fresh ~alloc_pooled
    ~alloc_fresh;
  if pooled.Serve.Server.errors > 0 || fresh.Serve.Server.errors > 0 then
    exit 1

(* --- --matrix: the five-scheme protection matrix ------------------------ *)

let matrix_of_argv argv = Array.exists (fun a -> a = "--matrix") argv

let write_matrix_json ~engine ~jobs ~quick ~workloads
    (totals : Harness.Matrix.totals list) =
  let n, path, oc = claim_output_channel () in
  let field name = String.map (fun c -> if c = '-' then '_' else c) name in
  let per_scheme =
    List.concat_map
      (fun (t : Harness.Matrix.totals) ->
        [
          (field t.Harness.Matrix.t_scheme ^ "_cycles",
           Trace.Json.Int t.Harness.Matrix.t_cycles);
          (field t.Harness.Matrix.t_scheme ^ "_overhead_pct",
           Trace.Json.Float t.Harness.Matrix.t_overhead_pct);
        ])
      totals
  in
  let json =
    Trace.Json.(
      Obj
        ([
           ("schema", Int schema);
           ("bench", Str "matrix");
           ("engine", Str (Core.engine_name engine));
           ("jobs", Int jobs);
           ("quick", Bool quick);
           ("ocaml_version", Str Sys.ocaml_version);
           ("workloads", Int workloads);
         ]
        @ per_scheme))
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Trace.Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path;
  ignore n

(* The --matrix benchmark: one headline table comparing every protection
   scheme (gcc baseline, bcc, bcc-bound, cash, mpx, cap) over the
   micro/macro/netapps workload slice. The matrix module itself gates
   output agreement and the gcc cycle floor (raising on violation);
   simulated cycles are engine- and parallelism-independent, so the
   printed table is byte-identical at any -j and under any engine — the
   CI step pins that by diffing two runs.

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
    let workloads =
      List.length (Harness.Matrix.workloads ~quick)
    in
    write_matrix_json ~engine ~jobs ~quick ~workloads totals;
    Option.iter
      (fun s ->
        Trace.finish_plugins s;
        if report_plugins stderr s <> [] then exit 1)
      sink

(* --- --frontend: compile-pipeline throughput ---------------------------- *)

let frontend_of_argv argv = Array.exists (fun a -> a = "--frontend") argv

let write_frontend_json ~engine ~jobs ~corpus_programs ~corpus_bytes ~tokens
    ~ref_tokens_per_s ~tokens_per_s ~ref_minor_per_ktok ~minor_per_ktok
    ~compiles_per_s ~cold ~warm ~blocks_built_first ~blocks_bound_rerun =
  let n, path, oc = claim_output_channel () in
  let open Fuzz.Fleet in
  let json =
    Trace.Json.(
      Obj
        [
          ("schema", Int schema);
          ("bench", Str "frontend");
          ("engine", Str (Core.engine_name engine));
          ("jobs", Int jobs);
          ("ocaml_version", Str Sys.ocaml_version);
          ("corpus_programs", Int corpus_programs);
          ("corpus_bytes", Int corpus_bytes);
          ("tokens", Int tokens);
          ("ref_tokens_per_s", Float ref_tokens_per_s);
          ("tokens_per_s", Float tokens_per_s);
          ( "lexer_speedup",
            Float
              (if ref_tokens_per_s > 0. then tokens_per_s /. ref_tokens_per_s
               else 0.) );
          ("ref_minor_words_per_ktok", Float ref_minor_per_ktok);
          ("minor_words_per_ktok", Float minor_per_ktok);
          ("compiles_per_s", Float compiles_per_s);
          ("fleet_programs_per_s_cold", Float cold.check_programs_per_sec);
          ("fleet_programs_per_s_warm", Float warm.check_programs_per_sec);
          ("fleet_compile_share_cold", Float cold.compile_share);
          ("fleet_compile_share_warm", Float warm.compile_share);
          ("blocks_built_first", Int blocks_built_first);
          ("blocks_bound_rerun", Int blocks_bound_rerun);
        ])
  in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Trace.Json.to_string json);
      output_char oc '\n');
  Printf.printf "wrote %s\n" path;
  ignore n

(* The --frontend benchmark: throughput of the compile pipeline itself,
   with its three in-process A/B gates.

   1. Lexer A/B over a corpus of workload kernels plus generated fuzz
      programs: the table-driven [Minic.Lexer.scan] against the
      list-building [Minic.Lexer_reference.tokenize]. Gate: token
      streams (token + line) byte-identical on every corpus program,
      and the new lexer not slower. A [Gc.minor_words] probe reports
      allocation per 1000 tokens on both paths.

   2. Whole-pipeline compiles per second ([Core.compile], uncached —
      lex + parse + typecheck + codegen).

   3. The fuzz fleet run twice over the same seeds: the first leg
      starts from a cold process (empty physical-memory recycling
      pools, cold allocator), the second replays with every domain's
      pools warm. Gate: a cached program re-run on the block engine
      builds zero new superblocks (it binds the shared closures
      instead) and its output is byte-identical across all three
      engines. *)
let run_frontend ~quick ~engine ~jobs =
  Core.set_default_engine engine;
  Printf.printf
    "== bench --frontend: compile-pipeline throughput (engine %s, -j %d) ==\n%!"
    (Core.engine_name engine) jobs;
  let gen_src seed oob = Fuzz.Gen.render (Fuzz.Gen.generate ~seed ~oob) in
  let gen_n = if quick then 40 else 200 in
  let corpus =
    [ Workloads.Micro.matmul (); Workloads.Micro.gaussian ();
      Workloads.Micro.fft2d (); Workloads.Micro.edge_detect ();
      Workloads.Micro.svd (); Workloads.Micro.volrender () ]
    @ List.init gen_n (fun i -> gen_src i (i mod 3 = 2))
  in
  let corpus_programs = List.length corpus in
  let corpus_bytes =
    List.fold_left (fun acc s -> acc + String.length s) 0 corpus
  in
  (* Gate 1a: the equivalence oracle, over the whole corpus. *)
  List.iteri
    (fun i s ->
      if Minic.Lexer.tokenize s <> Minic.Lexer_reference.tokenize s then begin
        Printf.eprintf
          "bench --frontend: token stream differs from the reference lexer \
           on corpus program %d\n"
          i;
        exit 1
      end)
    corpus;
  let reps = if quick then 10 else 40 in
  let time_tokens f =
    let t0 = Unix.gettimeofday () in
    let tokens = ref 0 in
    for _ = 1 to reps do
      List.iter (fun s -> tokens := !tokens + f s) corpus
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (!tokens, if dt > 0. then float_of_int !tokens /. dt else 0.)
  in
  let count_new s = Minic.Lexer.count (Minic.Lexer.scan s) in
  let count_ref s = List.length (Minic.Lexer_reference.tokenize s) in
  (* Interleave-free warmup, then measure reference first so the new
     lexer cannot ride a warmer cache. *)
  ignore (List.fold_left (fun acc s -> acc + count_ref s + count_new s) 0 corpus);
  let tokens, ref_tokens_per_s = time_tokens count_ref in
  let _, tokens_per_s = time_tokens count_new in
  let minor_per_ktok f =
    let m0 = Gc.minor_words () in
    let toks = List.fold_left (fun acc s -> acc + f s) 0 corpus in
    (Gc.minor_words () -. m0) /. float_of_int (max 1 toks) *. 1000.
  in
  let ref_minor_per_ktok = minor_per_ktok count_ref in
  let minor_per_ktok = minor_per_ktok count_new in
  Printf.printf
    "corpus                 %6d programs, %d bytes, %d tokens/pass\n"
    corpus_programs corpus_bytes (tokens / reps);
  Printf.printf "reference lexer        %12.0f tokens/s  (%8.0f minor words / \
                 1k tokens)\n"
    ref_tokens_per_s ref_minor_per_ktok;
  Printf.printf "table-driven lexer     %12.0f tokens/s  (%8.0f minor words / \
                 1k tokens)  %.2fx\n"
    tokens_per_s minor_per_ktok
    (if ref_tokens_per_s > 0. then tokens_per_s /. ref_tokens_per_s else 0.);
  (* Gate 1b: the rewrite must not be slower than what it replaced. *)
  if tokens_per_s < ref_tokens_per_s then begin
    prerr_endline "bench --frontend: table-driven lexer slower than reference";
    exit 1
  end;
  (* Whole-pipeline compile throughput, uncached on purpose. *)
  let creps = if quick then 1 else 3 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to creps do
    List.iter (fun s -> ignore (Core.compile Core.cash s)) corpus
  done;
  let cdt = Unix.gettimeofday () -. t0 in
  let compiles_per_s =
    if cdt > 0. then float_of_int (creps * corpus_programs) /. cdt else 0.
  in
  Printf.printf "compile (cash)         %12.1f programs/s\n" compiles_per_s;
  (* The fleet, twice over the same seeds. The fleet streams distinct
     programs, so it deliberately bypasses the program cache (see
     Fuzz.Check); what the second leg measures is the steady state of
     the per-domain physical-memory recycling pools and the warmed
     allocator, i.e. the configuration a long overnight sweep runs in. *)
  let fleet_n = if quick then 60 else 150 in
  let fleet_cfg =
    { Fuzz.Fleet.default with
      count = fleet_n; jobs = Some jobs; dump_dir = None; shrink = false }
  in
  let cold = Fuzz.Fleet.run fleet_cfg in
  let warm = Fuzz.Fleet.run fleet_cfg in
  let open Fuzz.Fleet in
  let fleet_line label (s : Fuzz.Fleet.stats) =
    Printf.printf
      "fleet %-16s %12.1f programs/s  (compile %4.1f%% of check phase)\n"
      label s.check_programs_per_sec (s.compile_share *. 100.)
  in
  fleet_line "(cold process)" cold;
  fleet_line "(warm pools)" warm;
  if cold.failures <> [] || warm.failures <> [] then begin
    Printf.eprintf "bench --frontend: %d cold / %d warm fleet failure(s)\n"
      (List.length cold.failures) (List.length warm.failures);
    exit 1
  end;
  (* Gate 3: shared superblocks. A fresh machine over an
     already-compiled program must bind the cached closures, build
     nothing new, and agree with every engine byte for byte. *)
  let probe_src = gen_src 424242 false in
  let compiled = Core.compile_cached Core.cash probe_src in
  let out e = (Core.run ~engine:e compiled).Core.output in
  let b0 = Machine.Cpu.blocks_built () in
  let out_blk1 = out Machine.Cpu.Block in
  let blocks_built_first = Machine.Cpu.blocks_built () - b0 in
  let b1 = Machine.Cpu.blocks_built () in
  let d1 = Machine.Cpu.blocks_bound () in
  let out_blk2 = out Machine.Cpu.Block in
  let blocks_built_rerun = Machine.Cpu.blocks_built () - b1 in
  let blocks_bound_rerun = Machine.Cpu.blocks_bound () - d1 in
  Printf.printf
    "shared superblocks     %6d built on first run, %d built / %d bound on \
     re-run\n"
    blocks_built_first blocks_built_rerun blocks_bound_rerun;
  if blocks_built_rerun <> 0 || blocks_bound_rerun = 0 then begin
    prerr_endline
      "bench --frontend: re-run rebuilt superblocks instead of binding the \
       shared cache";
    exit 1
  end;
  if out_blk1 <> out_blk2
     || out_blk1 <> out Machine.Cpu.Predecoded
     || out_blk1 <> out Machine.Cpu.Reference
  then begin
    prerr_endline "bench --frontend: probe output differs across engines";
    exit 1
  end;
  write_frontend_json ~engine ~jobs ~corpus_programs ~corpus_bytes
    ~tokens:(tokens / reps) ~ref_tokens_per_s ~tokens_per_s
    ~ref_minor_per_ktok ~minor_per_ktok ~compiles_per_s ~cold ~warm
    ~blocks_built_first ~blocks_bound_rerun

(* --- bechamel: one Test.make per table ---------------------------------- *)

open Bechamel
open Toolkit

let tests experiments =
  Test.make_grouped ~name:"experiments" ~fmt:"%s/%s"
    (List.map
       (fun (ex : Harness.Suite.experiment) ->
         Test.make ~name:ex.Harness.Suite.name
           (Staged.stage (fun () -> ignore (ex.Harness.Suite.run ()))))
       experiments)

let run_bechamel experiments =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~stabilize:false
      ~kde:None ()
  in
  let raw = Benchmark.all cfg instances (tests experiments) in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  print_endline "\n== bechamel: wall-clock per experiment regeneration ==";
  Printf.printf "%-28s %16s\n" "experiment" "time per run";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] ->
        let ms = est /. 1e6 in
        Printf.printf "%-28s %13.1f ms\n" name ms
      | _ -> Printf.printf "%-28s %16s\n" name "n/a")
    results

(* One measured reproduction pass under [engine] (with block chaining on
   or off): run every experiment over the domain pool, report
   throughput, claim and write the BENCH/TRACE json pair. Returns the
   reports (for printing/comparison), the throughput record, and the
   compilation shape (for the --ab/--ab-chain gates and --compare). *)
let run_reproduction ~experiments ~engine ~chain ~jobs ~traced ~quick
    ~print_tables =
  Core.set_default_engine engine;
  Core.set_chaining chain;
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
  let chains0 = Machine.Cpu.chains_built () in
  let cblocks0 = Machine.Cpu.chain_blocks_linked () in
  let cinsns0 = Machine.Cpu.chain_insns_linked () in
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
  let chains_built = Machine.Cpu.chains_built () - chains0 in
  let per_chain counter c0 =
    if chains_built = 0 then 0.
    else float_of_int (counter - c0) /. float_of_int chains_built
  in
  let shape =
    {
      chaining = chain && engine = Machine.Cpu.Block;
      blocks_built;
      avg_block_len;
      chains_built;
      avg_chain_blocks = per_chain (Machine.Cpu.chain_blocks_linked ()) cblocks0;
      avg_chain_insns = per_chain (Machine.Cpu.chain_insns_linked ()) cinsns0;
    }
  in
  if print_tables then print_reports reports;
  Printf.printf "\n== engine %s%s ==\n" (Core.engine_name engine)
    (if engine = Machine.Cpu.Block then
       if chain then " (chaining)" else " (no chaining)"
     else "");
  print_throughput ~jobs tp;
  print_job_timings timings;
  if blocks_built > 0 then
    Printf.printf "blocks built          %12d (avg %.1f insns)\n"
      blocks_built avg_block_len;
  if chains_built > 0 then
    Printf.printf "chains built          %12d (avg %.1f blocks, %.1f insns)\n"
      chains_built shape.avg_chain_blocks shape.avg_chain_insns;
  let n, path, oc = claim_output_channel () in
  write_json ~path ~oc ~engine ~traced ~quick ~jobs
    ~n_experiments:(List.length experiments) ~shape tp;
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
  (reports, tp, shape)

let () =
  let no_bechamel =
    Array.exists (fun a -> a = "--no-bechamel") Sys.argv
  in
  let traced = Array.exists (fun a -> a = "--trace") Sys.argv in
  let quick = Array.exists (fun a -> a = "--quick") Sys.argv in
  let ab = Array.exists (fun a -> a = "--ab") Sys.argv in
  let ab_chain = Array.exists (fun a -> a = "--ab-chain") Sys.argv in
  let chain = not (Array.exists (fun a -> a = "--no-chain") Sys.argv) in
  let engine =
    Array.fold_left
      (fun acc a ->
        if String.length a >= 9 && String.sub a 0 9 = "--engine=" then
          let name = String.sub a 9 (String.length a - 9) in
          match Core.engine_of_string name with
          | Some e -> e
          | None ->
            Printf.eprintf
              "bench: unknown engine %S (expected block|predecode|reference)\n"
              name;
            exit 2
        else acc)
      (Core.default_engine ()) Sys.argv
  in
  let jobs =
    match Parallel.jobs_of_argv Sys.argv with
    | Some j -> j
    | None -> Parallel.default_jobs ()
  in
  (match serve_of_argv Sys.argv with
   | Some requests ->
     run_serve ~requests ~engine ~jobs;
     exit 0
   | None -> ());
  if matrix_of_argv Sys.argv then begin
    run_matrix ~quick ~engine ~jobs ~traced;
    exit 0
  end;
  if frontend_of_argv Sys.argv then begin
    run_frontend ~quick ~engine ~jobs;
    exit 0
  end;
  let experiments = experiments ~quick in
  let render reports =
    String.concat "\n"
      (List.map (Format.asprintf "%a" Harness.Report.pp) reports)
  in
  if ab then begin
    (* A/B gate: the same reproduction under the per-instruction
       pre-decoded engine and then the superblock engine. Tables must
       match byte for byte (simulated semantics are engine-independent)
       and the block engine must not be slower — a direct regression
       tripwire for the block dispatch and fast-path layers. *)
    let reports_pre, tp_pre, _ =
      run_reproduction ~experiments ~engine:Machine.Cpu.Predecoded ~chain
        ~jobs ~traced ~quick ~print_tables:false
    in
    let reports_blk, tp_blk, _ =
      run_reproduction ~experiments ~engine:Machine.Cpu.Block ~chain ~jobs
        ~traced ~quick ~print_tables:false
    in
    if render reports_pre <> render reports_blk then begin
      prerr_endline "bench --ab: block-engine tables differ from predecode";
      exit 1
    end;
    Printf.printf
      "\n== A/B gate: block %.0f insns/s vs predecode %.0f insns/s (%.2fx) ==\n"
      tp_blk.insns_per_second tp_pre.insns_per_second
      (tp_blk.insns_per_second /. tp_pre.insns_per_second);
    if tp_blk.insns_per_second < tp_pre.insns_per_second then begin
      prerr_endline "bench --ab: block engine slower than predecode";
      exit 1
    end
  end
  else if ab_chain then begin
    (* Chain A/B gate: the superblock engine with chaining off and then
       on. Chaining is a pure host-throughput cache, so the tables must
       match byte for byte, chains must actually have been built on the
       on leg, and the chained run must not be slower — the tripwire
       for the chain builder and the chained dispatch loop. *)
    let reports_off, tp_off, _ =
      run_reproduction ~experiments ~engine:Machine.Cpu.Block ~chain:false
        ~jobs ~traced ~quick ~print_tables:false
    in
    let reports_on, tp_on, shape_on =
      run_reproduction ~experiments ~engine:Machine.Cpu.Block ~chain:true
        ~jobs ~traced ~quick ~print_tables:false
    in
    if render reports_off <> render reports_on then begin
      prerr_endline "bench --ab-chain: chained tables differ from unchained";
      exit 1
    end;
    Printf.printf
      "\n== chain A/B gate: chained %.0f insns/s vs unchained %.0f insns/s \
       (%.2fx, %d chains) ==\n"
      tp_on.insns_per_second tp_off.insns_per_second
      (tp_on.insns_per_second /. tp_off.insns_per_second)
      shape_on.chains_built;
    if shape_on.chains_built = 0 then begin
      prerr_endline "bench --ab-chain: no chains were built on the on leg";
      exit 1
    end;
    if tp_on.insns_per_second < tp_off.insns_per_second then begin
      prerr_endline "bench --ab-chain: chained run slower than unchained";
      exit 1
    end
  end
  else begin
    let _reports, tp, shape =
      run_reproduction ~experiments ~engine ~chain ~jobs ~traced ~quick
        ~print_tables:true
    in
    (match compare_of_argv Sys.argv with
     | Some path -> compare_against ~path ~engine ~quick ~jobs ~shape tp
     | None -> ());
    if not no_bechamel then run_bechamel experiments
  end
