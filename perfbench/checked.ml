(* checked: the full five-scheme matrix (Matrix.run ~quick:false at one
   job) under an ambient Trace.sink with every shipped checker plugin
   attached — what `bench --trace` and `cashc --check` users pay. The
   only workload with lib/trace on. Inputs are fixed; the seed is
   ignored.

   Correctness: the matrix's own Runner.Disagreement gates, the shipped
   plugins' violations, and Cash's overhead over gcc, which must read
   +1.5% (the repo's reproduced figure). *)

let cells () =
  List.length (Harness.Matrix.workloads ~quick:false)
  * List.length Harness.Matrix.schemes

let expected_cash_pct = 1.5

let cash_pct totals =
  match
    List.find_opt
      (fun (t : Harness.Matrix.totals) -> t.Harness.Matrix.t_scheme = "cash")
      totals
  with
  | Some t -> t.Harness.Matrix.t_overhead_pct
  | None -> Float.nan

(* Matrix.run with [sink] (if any) as this domain's ambient sink. At one
   job the matrix runs every cell on the calling domain, so every cell
   emits into it. *)
let matrix sink =
  Core.set_default_trace sink;
  Fun.protect
    ~finally:(fun () -> Core.set_default_trace None)
    (fun () ->
      match Harness.Matrix.run ~quick:false ~jobs:1 () with
      | _, totals -> Ok totals
      | exception Harness.Runner.Disagreement msg -> Error msg)

let new_sink () =
  Trace.set_auto_plugins Checkers.all;
  let sink = Trace.create () in
  Trace.set_auto_plugins [];
  sink

(* One checked pass: a fresh plugin-carrying sink, the matrix, the
   plugins' end-of-run pass. *)
let pass () =
  let sink = new_sink () in
  let c0 = Common.counters () in
  let result, wall = Common.time (fun () -> matrix (Some sink)) in
  let insns = (Common.counters ()).Common.retired - c0.Common.retired in
  Trace.finish_plugins sink;
  let violations = Checkers.shipped_violations sink in
  List.iter
    (fun (c, m) -> Printf.printf "checked: plugin violation: %s: %s\n" c m)
    violations;
  let pct, failed =
    match result with
    | Ok totals ->
      let pct = cash_pct totals in
      if Float.abs (pct -. expected_cash_pct) > 0.05 then
        Printf.printf "checked: cash overhead %.3f%%, expected %.1f%%\n" pct
          expected_cash_pct;
      (pct, if Float.abs (pct -. expected_cash_pct) > 0.05 then 1 else 0)
    | Error msg ->
      Printf.printf "checked: %s\n" msg;
      (Float.nan, 1)
  in
  let n = cells () in
  ( { Common.wall; insns; items = n; lats_ms = [ wall *. 1e3 ];
      attempted = n;
      failed = min n (failed + List.length violations) },
    sink, pct )

(* Set-up: a plugin-carrying sink and a cold compile of the matrix's
   programs under every scheme. *)
let setup () =
  ignore (new_sink ());
  List.iter
    (fun (w : Harness.Matrix.workload) ->
      List.iter
        (fun (_, b) -> ignore (Core.compile b w.Harness.Matrix.w_source))
        Harness.Matrix.schemes)
    (Harness.Matrix.workloads ~quick:false)

(* The pass is timed in host seconds. It is one Matrix.run call of about
   30 seconds, and calibration bursts at its two ends sample the host
   too briefly to stand for it: corrected (see Host), runs of the same
   code spread twice as wide as raw ones. *)
let run_untraced ~seconds =
  let (), setup_s = Common.setup setup in
  let passes =
    Common.passes ~correct:false ~seconds ~min_passes:1 (fun _ ->
        let p, _, _ = pass () in
        p)
  in
  let metrics = Common.end_to_end ~setup_s passes in
  ( Common.sum (fun p -> p.Common.attempted) passes,
    Common.sum (fun p -> p.Common.failed) passes,
    metrics )

(* The matrix replayed cell by cell through the layer functions, under
   one plugin-carrying sink like the matrix's own. *)
let replay sink =
  List.map
    (fun (w : Harness.Matrix.workload) ->
      List.map
        (fun (_, b) ->
          Layers.run ~trace:sink (Layers.compile b w.Harness.Matrix.w_source))
        Harness.Matrix.schemes)
    (Harness.Matrix.workloads ~quick:false)

let run_traced () =
  let (), _ = Common.setup ~reps:1 setup in
  Gc.full_major ();
  let c0 = Common.counters () in
  let u, u_sink, u_pct = pass () in
  let c1 = Common.counters () in
  Gc.full_major ();
  let _, n_wall = Common.time (fun () -> matrix None) in
  Spans.enabled := true;
  Layers.tokens := 0;
  Layers.code_bytes := 0;
  let r_sink = new_sink () in
  let r0 = Common.counters () in
  let rows, r_wall = Common.time (fun () -> replay r_sink) in
  let r_insns = (Common.counters ()).Common.retired - r0.Common.retired in
  Spans.enabled := false;
  Trace.finish_plugins r_sink;
  (* Each row lists the schemes in Matrix.schemes order: gcc first,
     cash fourth. *)
  let cycles row = List.map (fun o -> o.Common.cycles) row in
  let pairs =
    List.map (fun row -> (List.nth (cycles row) 0, List.nth (cycles row) 3)) rows
  in
  let r_pct = Common.cash_overhead_pct pairs in
  Common.guard "cash_overhead_pct" (Printf.sprintf "%.6f" u_pct)
    (Printf.sprintf "%.6f" r_pct);
  Common.guard "sink counters" (Common.counters_digest u_sink)
    (Common.counters_digest r_sink);
  let events = Trace.total_events u_sink in
  let metrics =
    Common.counter_metrics ~wall:u.Common.wall c0 c1
    @ Common.sink_metrics u_sink
    @ Common.span_metrics ~traced_wall:r_wall
    @ [ ("minic.lex.tokens", float_of_int !Layers.tokens);
        ("compilers.code_bytes", float_of_int !Layers.code_bytes) ]
    @ Common.cashrt_metrics (List.concat rows)
    @ [ ("harness.matrix.s", u.Common.wall);
        ("machine.ns_per_insn",
         Common.ratio (Spans.self_seconds "machine.exec") (float_of_int r_insns)
         *. 1e9);
        ("cash_overhead_pct", u_pct);
        ("trace.overhead_ratio", Common.ratio u.Common.wall n_wall);
        ("trace.ns_per_event",
         Common.ratio (u.Common.wall -. n_wall) (float_of_int events) *. 1e9) ]
  in
  (u.Common.attempted, u.Common.failed, metrics)
