(* repro: the full paper reproduction, Suite.all () at one job — long
   hot loops of the paper's gcc/bcc/cash programs, where execution in
   machine/seghw/osim/cashrt is nearly all the time. The inputs are the
   paper's fixed programs, so the seed is ignored.

   A pass calls Suite.run_all_timed once per experiment, so each
   experiment is one timed item. Correctness: the MD5 of every rendered
   report against the golden digests in perfbench/golden/repro.md5. *)

let golden_path = "perfbench/golden/repro.md5"

let digest report =
  Digest.to_hex
    (Digest.string (Format.asprintf "%a" Harness.Report.pp report))

(* One pass: one Suite.run_all_timed call per experiment, so each
   experiment is one item. Its latency sample is the whole pass, one
   reproduction: single experiments, corrected, spread too widely for a
   percentile over 14 unlike items to repeat. With [correct], each call
   runs between calibration bursts and is timed in reference seconds
   (see Host): a 15-second pass is too long for one correction to follow
   the host. Returns the pass, the (experiment, digest) list, and
   per-experiment seconds. *)
let pass ~span ?(correct = false) () =
  let experiments = Harness.Suite.all () in
  let c0 = Common.counters () in
  let per =
    List.map
      (fun (ex : Harness.Suite.experiment) ->
        let call () =
          let f () = fst (Harness.Suite.run_all_timed ~jobs:1 [ ex ]) in
          if span then Spans.record "harness.suite" f else f ()
        in
        let reports, raw, k =
          if correct then Host.measured call
          else
            let r, dt = Common.time call in
            (r, dt, 1.)
        in
        if correct then
          Printf.printf "repro: %-17s %7.3f host s, factor %.3f\n"
            ex.Harness.Suite.name raw k;
        (ex.Harness.Suite.name, List.hd reports, raw *. k))
      experiments
  in
  let insns = (Common.counters ()).Common.retired - c0.Common.retired in
  let n = List.length experiments in
  let wall = Common.fsum (fun (_, _, dt) -> dt) per in
  ( { Common.wall; insns; items = n; lats_ms = [ wall *. 1e3 ]; attempted = n;
      failed = 0 },
    List.map (fun (name, report, _) -> (name, digest report)) per,
    List.map (fun (name, _, dt) -> (name, dt)) per )

let read_golden () =
  match Core.read_file golden_path with
  | exception Sys_error msg ->
    Printf.printf "repro: cannot read golden digests: %s\n" msg;
    []
  | text ->
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' (String.trim line) with
        | [ name; md5 ] -> Some (name, md5)
        | _ -> None)
      (String.split_on_char '\n' text)

(* Failed experiments: a digest that differs from (or is missing in) the
   golden file. *)
let check digests =
  let golden = read_golden () in
  List.fold_left
    (fun failed (name, d) ->
      match List.assoc_opt name golden with
      | Some g when g = d -> failed
      | g ->
        Printf.printf "repro: %s digest %s, golden %s\n" name d
          (Option.value g ~default:"missing");
        failed + 1)
    0 digests

let write_golden () =
  let _, digests, _ = pass ~span:false () in
  Core.write_file golden_path
    (String.concat "" (List.map (fun (n, d) -> n ^ " " ^ d ^ "\n") digests));
  Printf.printf "wrote %s (%d experiments)\n" golden_path (List.length digests)

(* Set-up: the experiment list plus a cold compile of the paper's
   program corpus under the three paper backends — the frontend work a
   reproduction pays before its first simulated cycle. *)
let corpus () = Harness.Matrix.workloads ~quick:false
let paper_backends = [ ("gcc", Core.gcc); ("bcc", Core.bcc); ("cash", Core.cash) ]

let setup () =
  ignore (Harness.Suite.all ());
  List.iter
    (fun (w : Harness.Matrix.workload) ->
      List.iter
        (fun (_, b) -> ignore (Core.compile b w.Harness.Matrix.w_source))
        paper_backends)
    (corpus ())

let run_untraced ~seconds =
  let (), setup_s = Common.setup setup in
  let digests = ref [] in
  let passes =
    Common.passes ~correct:false ~seconds ~min_passes:2 (fun _ ->
        let p, d, _ = pass ~span:false ~correct:true () in
        digests := d :: !digests;
        p)
  in
  let metrics = Common.end_to_end ~setup_s passes in
  let failed = List.fold_left (fun acc d -> acc + check d) 0 !digests in
  (Common.sum (fun p -> p.Common.attempted) passes, failed, metrics)

(* The corpus replay: every paper program under gcc/bcc/cash through
   the layer functions. Returns the runs in order. *)
let replay ~trace =
  List.concat_map
    (fun (w : Harness.Matrix.workload) ->
      List.map
        (fun (_, b) ->
          Layers.run ?trace (Layers.compile b w.Harness.Matrix.w_source))
        paper_backends)
    (corpus ())

let run_traced () =
  let (), _ = Common.setup ~reps:1 setup in
  Gc.full_major ();
  let c0 = Common.counters () in
  let u, u_digests, u_times = pass ~span:false () in
  let c1 = Common.counters () in
  Gc.full_major ();
  Spans.enabled := true;
  let (t, t_digests, _), t_wall = Common.time (pass ~span:true) in
  Common.guard "report digests"
    (String.concat ";" (List.map snd u_digests))
    (String.concat ";" (List.map snd t_digests));
  Common.guard_int "machine.insns" u.Common.insns t.Common.insns;
  let runs, r_wall, replay_metrics =
    Layers.replay_pair replay
  in
  Spans.enabled := false;
  let failed = check u_digests in
  let metrics =
    Common.counter_metrics ~wall:u.Common.wall c0 c1
    @ List.map (fun (name, dt) -> ("harness." ^ name ^ ".s", dt)) u_times
    @ Common.span_metrics ~traced_wall:(t_wall +. r_wall)
    @ replay_metrics
    @ Common.cashrt_metrics runs
    @ [ ("trace.overhead_ratio", Common.ratio t_wall u.Common.wall) ]
  in
  (u.Common.attempted, failed, metrics)
