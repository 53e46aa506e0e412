(* The parallel harness: lib/parallel's pool discipline, and the
   serial-vs-parallel oracle — the whole point of running experiments on
   domains is that nobody can tell from the output that we did.

   The oracle regenerates the full reproduction (every table and figure,
   via the same Harness.Suite list bench/main.exe uses) at -j 1 and
   -j 4 and asserts the rendered reports are byte-identical and the
   per-job trace sinks merge to identical aggregates: counters,
   histograms, attribution, and event totals sum exactly. A separate
   case pins the merge against a single-sink serial run, where only the
   sums (not ring interleaving or cross-experiment reload intervals)
   are comparable. *)

(* --- pool discipline ---------------------------------------------------- *)

let test_result_ordering () =
  (* Results come back in job order whatever the completion order; skew
     the work so later jobs finish first under real parallelism. *)
  let tasks =
    Array.init 32 (fun i () ->
        let spin = (32 - i) * 10_000 in
        let acc = ref 0 in
        for k = 1 to spin do
          acc := (!acc + k) land 0xFFFF
        done;
        ignore !acc;
        i * i)
  in
  let out = Parallel.run_jobs ~jobs:4 tasks in
  Array.iteri
    (fun i v -> Alcotest.(check int) (Printf.sprintf "slot %d" i) (i * i) v)
    out

exception Boom of int

let test_exception_lowest_index () =
  (* Jobs 5 and 20 both fail; the re-raised failure must be job 5's,
     deterministically, like a serial run's. *)
  let tasks =
    Array.init 32 (fun i () ->
        if i = 5 || i = 20 then raise (Boom i) else i)
  in
  (match Parallel.run_jobs ~jobs:4 tasks with
   | _ -> Alcotest.fail "expected Boom"
   | exception Boom 5 -> ()
   | exception Boom n -> Alcotest.failf "re-raised job %d, wanted job 5" n)

let test_nested_stays_serial () =
  (* A run_jobs inside a worker must not fan out again (and a ~jobs:1
     run is serial all the way down); observed via Domain.self. *)
  let inner_domains () =
    Array.to_list
      (Parallel.run_jobs ~jobs:4
         (Array.init 4 (fun _ () -> (Domain.self () :> int))))
  in
  let nested =
    Parallel.run_jobs ~jobs:2 (Array.init 2 (fun _ () -> inner_domains ()))
  in
  Array.iter
    (fun ds ->
      match ds with
      | d :: rest ->
        List.iter
          (fun d' ->
            Alcotest.(check int) "nested jobs share their worker's domain" d d')
          rest
      | [] -> Alcotest.fail "no results")
    nested;
  let serial =
    Parallel.run_jobs ~jobs:1 (Array.init 2 (fun _ () -> inner_domains ()))
  in
  let self = (Domain.self () :> int) in
  Array.iter
    (List.iter
       (fun d -> Alcotest.(check int) "-j1 runs on the calling domain" self d))
    serial

(* Two tasks that must run on different domains: each waits for the
   other to arrive. The wait is bounded, so a pool that ran both on one
   domain fails the test instead of hanging it. Each task returns
   (its index, its domain). *)
let rendezvous ?(raise_after = false) () =
  let arrived = Atomic.make 0 in
  Array.init 2 (fun i () ->
      Atomic.incr arrived;
      let deadline = Unix.gettimeofday () +. 10. in
      while Atomic.get arrived < 2 do
        if Unix.gettimeofday () > deadline then
          failwith "rendezvous: the other task never arrived";
        Domain.cpu_relax ()
      done;
      if raise_after then raise (Boom i);
      (i, (Domain.self () :> int)))

(* The one domain in a rendezvous result that is not the caller's. *)
let helper_of results =
  let self = (Domain.self () :> int) in
  Alcotest.(check (list int)) "results in task order" [ 0; 1 ]
    (Array.to_list (Array.map fst results));
  let domains = Array.to_list (Array.map snd results) in
  match List.filter (fun d -> d <> self) domains with
  | [ h ] -> h
  | ds -> Alcotest.failf "expected one helper domain, got %d" (List.length ds)

let test_helpers_persist () =
  let first = helper_of (Parallel.run_jobs ~jobs:2 (rendezvous ())) in
  let second = helper_of (Parallel.run_jobs ~jobs:2 (rendezvous ())) in
  Alcotest.(check int) "the same helper serves both calls" first second

let test_crew_survives_failure () =
  let helper = helper_of (Parallel.run_jobs ~jobs:2 (rendezvous ())) in
  (match Parallel.run_jobs ~jobs:2 (rendezvous ~raise_after:true ()) with
   | _ -> Alcotest.fail "expected Boom"
   | exception Boom 0 -> ()
   | exception Boom n -> Alcotest.failf "re-raised task %d, wanted task 0" n);
  Alcotest.(check int) "the same helper after a failed call" helper
    (helper_of (Parallel.run_jobs ~jobs:2 (rendezvous ())))

(* --- trace sink merging -------------------------------------------------- *)

let test_merge_sums_exactly () =
  let mk () =
    let s = Trace.create ~capacity:8 () in
    Trace.emit s (Trace.Segreg_load { reg = "GS"; selector = 0xB });
    s
  in
  let a = mk () and b = mk () in
  for _ = 1 to 5 do
    Trace.emit a Trace.Tlb_hit
  done;
  for _ = 1 to 7 do
    Trace.emit b Trace.Tlb_hit
  done;
  Trace.add_attribution a "f" ~insns:10 ~cycles:30;
  Trace.add_attribution b "f" ~insns:1 ~cycles:3;
  Trace.violation a ~checker:"c" "first";
  Trace.violation b ~checker:"c" "second";
  let agg = Trace.create ~capacity:8 () in
  Trace.merge_into ~into:agg a;
  Trace.merge_into ~into:agg b;
  Alcotest.(check int) "tlb hits sum" 12 (Trace.count agg Trace.K_tlb_hit);
  Alcotest.(check int) "segreg loads sum" 2
    (Trace.count agg Trace.K_segreg_load);
  Alcotest.(check int) "totals sum" (Trace.total_events a + Trace.total_events b)
    (Trace.total_events agg);
  Alcotest.(check (list (pair string string))) "violations in merge order"
    [ ("c", "first"); ("c", "second") ]
    (Trace.violations agg);
  (match Trace.attributions agg with
   | [ ("f", insns, cycles) ] ->
     Alcotest.(check (pair int int)) "attribution sums" (11, 33) (insns, cycles)
   | other ->
     Alcotest.failf "unexpected attribution rows: %d" (List.length other))

(* --- the serial-vs-parallel oracle --------------------------------------- *)

let render reports =
  String.concat "\n"
    (List.map (Format.asprintf "%a" Harness.Report.pp) reports)

(* Full reproduction, the same Suite list bench/main.exe runs (table8
   scaled down to keep the suite's wall-clock in check — both sides of
   the comparison use the same scale, so the oracle is unweakened). *)
let test_full_reproduction_oracle () =
  let exps () = Harness.Suite.all ~table8_requests:10 () in
  let agg1 = Trace.create () in
  let r1 = Harness.Suite.run_all ~jobs:1 ~trace_into:agg1 (exps ()) in
  let agg4 = Trace.create () in
  let r4 = Harness.Suite.run_all ~jobs:4 ~trace_into:agg4 (exps ()) in
  Alcotest.(check string) "byte-identical tables" (render r1) (render r4);
  Alcotest.(check (list (pair string int))) "trace counters sum exactly"
    (Trace.counters agg1) (Trace.counters agg4);
  Alcotest.(check int) "event totals sum exactly" (Trace.total_events agg1)
    (Trace.total_events agg4);
  Alcotest.(check (list (pair int int))) "reload-interval histogram"
    (Trace.Histogram.buckets (Trace.reload_interval agg1))
    (Trace.Histogram.buckets (Trace.reload_interval agg4));
  let attr s =
    List.map (fun (sym, i, c) -> (sym, (i, c))) (Trace.attributions s)
  in
  Alcotest.(check (list (pair string (pair int int))))
    "cycle attribution sums exactly" (attr agg1) (attr agg4);
  let lines f xs = String.concat "\n" (List.map f xs) in
  Golden.check "repro"
    (List.map2
       (fun (ex : Harness.Suite.experiment) r ->
         (ex.Harness.Suite.name, Format.asprintf "%a" Harness.Report.pp r))
       (exps ()) r1
    @ [
        ( "trace-counters",
          lines (fun (k, n) -> Printf.sprintf "%s %d" k n)
            (Trace.counters agg1) );
        ( "trace-attributions",
          lines (fun (sym, i, c) -> Printf.sprintf "%s %d %d" sym i c)
            (Trace.attributions agg1) );
      ])

(* The untraced superblock engine, serial and fanned out, must render
   the tables whose digests the traced run above pins — the trace
   identity and the -j identity in one comparison. Scaled like the
   oracle above. *)
let test_block_engine_oracle () =
  let exps () = Harness.Suite.all ~table8_requests:10 () in
  let under jobs =
    let saved = Core.default_engine () in
    Core.set_default_engine Machine.Cpu.Block;
    Fun.protect
      ~finally:(fun () -> Core.set_default_engine saved)
      (fun () ->
        List.map2
          (fun (ex : Harness.Suite.experiment) r ->
            (ex.Harness.Suite.name, Format.asprintf "%a" Harness.Report.pp r))
          (exps ())
          (Harness.Suite.run_all ~jobs (exps ())))
  in
  Golden.check ~partial:true "repro" (under 1);
  Golden.check ~partial:true "repro" (under 4)

(* Against a single ambient sink shared by a strictly serial pass (the
   pre-parallel bench's tracing mode): the pure sums — counters,
   attribution — must match the merged per-job aggregate exactly. Ring
   interleaving and reload intervals that straddle experiment
   boundaries are the documented difference, so they are not compared.
   A fast three-experiment subset keeps this case cheap; the full-list
   identity is covered above. *)
let test_merged_matches_single_sink () =
  let subset all =
    List.filter
      (fun (ex : Harness.Suite.experiment) ->
        List.mem ex.Harness.Suite.name [ "table2"; "figure2"; "microcosts" ])
      all
  in
  let single = Trace.create () in
  Core.set_default_trace (Some single);
  Fun.protect
    ~finally:(fun () -> Core.set_default_trace None)
    (fun () ->
      List.iter
        (fun (ex : Harness.Suite.experiment) ->
          ignore (ex.Harness.Suite.run () : Harness.Report.t))
        (subset (Harness.Suite.all ())));
  let merged = Trace.create () in
  ignore
    (Harness.Suite.run_all ~jobs:3 ~trace_into:merged
       (subset (Harness.Suite.all ()))
      : Harness.Report.t list);
  Alcotest.(check (list (pair string int))) "counters sum exactly"
    (Trace.counters single) (Trace.counters merged);
  Alcotest.(check int) "event totals sum exactly" (Trace.total_events single)
    (Trace.total_events merged)

let suite =
  [
    Alcotest.test_case "result ordering" `Quick test_result_ordering;
    Alcotest.test_case "lowest-index failure wins" `Quick
      test_exception_lowest_index;
    Alcotest.test_case "nested fan-out stays serial" `Quick
      test_nested_stays_serial;
    Alcotest.test_case "crew: helpers persist across calls" `Quick
      test_helpers_persist;
    Alcotest.test_case "crew: usable after a failing call" `Quick
      test_crew_survives_failure;
    Alcotest.test_case "sink merge sums exactly" `Quick test_merge_sums_exactly;
    Alcotest.test_case "full reproduction: -j1 = -j4 (oracle)" `Slow
      test_full_reproduction_oracle;
    Alcotest.test_case "block engine: -j1 and -j4 = golden tables (oracle)"
      `Slow
      test_block_engine_oracle;
    Alcotest.test_case "merged sinks = single-sink sums" `Slow
      test_merged_matches_single_sink;
  ]
