(* fuzz: the differential fleet (Fleet.run, Fast engines, one job, no
   dump, no shrink, default oob_every) over thousands of distinct short
   programs — compile, machine creation, cold superblock builds and
   allocation dominate. The client submits seeds in chunks; each chunk
   is one Fleet.run call and one timed item. Each pass covers fresh
   seeds derived from the run's seed. Correctness: the fleet's
   differential failures. *)

let chunk = 25
let chunks_per_pass = 10
let per_pass = chunk * chunks_per_pass

(* Seeds of different runs never overlap. Set-up uses a fixed range of
   its own, so set-up time does not depend on the run's seed. *)
let base_seed seed = seed * 1_000_003
let setup_seed rep = -1_000_000 - (rep * chunk)

let config ~first_seed ~count =
  { Fuzz.Fleet.default with
    count; first_seed; jobs = Some 1; dump_dir = None; shrink = false }

type fleet = { programs : int; known_misses : int; failures : int;
               check_s : float; compile_s : float }

(* One pass over [per_pass] seeds starting at [first]. *)
let pass first =
  let c0 = Common.counters () in
  let chunks =
    List.init chunks_per_pass (fun i ->
        Common.time (fun () ->
            Fuzz.Fleet.run (config ~first_seed:(first + (i * chunk)) ~count:chunk)))
  in
  let insns = (Common.counters ()).Common.retired - c0.Common.retired in
  let stats = List.map fst chunks in
  List.iter
    (fun (s : Fuzz.Fleet.stats) ->
      List.iter
        (fun (f : Fuzz.Fleet.failure_report) ->
          Printf.printf "fuzz: seed %d: %s (%s): %s\n" f.Fuzz.Fleet.r_seed
            f.Fuzz.Fleet.r_what f.Fuzz.Fleet.r_backend f.Fuzz.Fleet.r_message)
        s.Fuzz.Fleet.failures)
    stats;
  let fleet =
    { programs = Common.sum (fun (s : Fuzz.Fleet.stats) -> s.Fuzz.Fleet.ran) stats;
      known_misses = Common.sum (fun (s : Fuzz.Fleet.stats) -> s.Fuzz.Fleet.known_misses) stats;
      failures = Common.sum (fun (s : Fuzz.Fleet.stats) -> List.length s.Fuzz.Fleet.failures) stats;
      check_s = Common.fsum (fun (s : Fuzz.Fleet.stats) -> s.Fuzz.Fleet.check_seconds) stats;
      compile_s = Common.fsum (fun (s : Fuzz.Fleet.stats) -> s.Fuzz.Fleet.compile_seconds) stats }
  in
  let times = List.map snd chunks in
  ( { Common.wall = List.fold_left ( +. ) 0. times; insns;
      items = fleet.programs;
      lats_ms = List.map (fun t -> t *. 1e3) times;
      attempted = fleet.programs; failed = fleet.failures },
    fleet )

(* Set-up: a short warm-up fleet on seeds of its own, so the measured
   passes start with the per-domain memory-recycling pools warm. *)
let setup () =
  let rep = ref 0 in
  fun () ->
    ignore (Fuzz.Fleet.run (config ~first_seed:(setup_seed !rep) ~count:chunk));
    incr rep

let run_untraced ~seed ~seconds =
  let (), setup_s = Common.setup (setup ()) in
  let passes =
    Common.passes ~seconds ~min_passes:3 (fun i ->
        fst (pass (base_seed seed + (i * per_pass))))
  in
  let metrics = Common.end_to_end ~setup_s passes in
  ( Common.sum (fun p -> p.Common.attempted) passes,
    Common.sum (fun p -> p.Common.failed) passes,
    metrics )

(* Whether the [i]th program of a pass carries an injected overrun: the
   fleet's rule, applied within the chunk the program ran in. *)
let oob i =
  let every = Fuzz.Fleet.default.Fuzz.Fleet.oob_every in
  every > 0 && i mod chunk mod every = every - 1

(* The backends Fuzz.Check compiles every program for. *)
let backends = [ Core.gcc; Core.bcc; Core.cash; Core.mpx; Core.cap ]

(* The same seeds as a fleet pass, through the fuzz layers: generate,
   then check, one span each. Returns (known misses, failures). *)
let gen_check first =
  List.fold_left
    (fun (misses, failures) i ->
      let seed = first + i in
      let oob = oob i in
      let prog =
        Spans.record ~item:seed "fuzz.gen" (fun () -> Fuzz.Gen.generate ~seed ~oob)
      in
      match
        Spans.record ~item:seed "fuzz.check" (fun () ->
            Fuzz.Check.check ~engines:Fuzz.Check.fast_engines ~seed prog)
      with
      | Fuzz.Check.Pass { known_miss } ->
        ((if known_miss then misses + 1 else misses), failures)
      | Fuzz.Check.Fail _ -> (misses, failures + 1))
    (0, 0) (List.init per_pass Fun.id)

(* Every program of the pass, compiled and run under every backend
   through the compile and machine layers, on the fleet's engine. *)
let replay first ~trace =
  List.concat_map
    (fun i ->
      let seed = first + i in
      let oob = oob i in
      let source = Fuzz.Gen.render (Fuzz.Gen.generate ~seed ~oob) in
      List.map
        (fun b ->
          let _, engine, chain = List.hd Fuzz.Check.fast_engines in
          Layers.run ~item:seed ~engine ?chain ?trace
            (Layers.compile ~item:seed b source))
        backends)
    (List.init per_pass Fun.id)

let run_traced ~seed =
  let (), _ = Common.setup ~reps:1 (setup ()) in
  let first = base_seed seed in
  Gc.full_major ();
  let c0 = Common.counters () in
  let u, fleet = pass first in
  let c1 = Common.counters () in
  Gc.full_major ();
  Spans.enabled := true;
  let t0 = (Common.counters ()).Common.retired in
  let (misses, failures), t_wall = Common.time (fun () -> gen_check first) in
  let t_insns = (Common.counters ()).Common.retired - t0 in
  Common.guard_int "fuzz.known_misses" fleet.known_misses misses;
  Common.guard_int "fuzz failures" fleet.failures failures;
  Common.guard_int "machine.insns" u.Common.insns t_insns;
  let runs, r_wall, replay_metrics =
    Layers.replay_pair (replay first)
  in
  Spans.enabled := false;
  let metrics =
    Common.counter_metrics ~wall:u.Common.wall c0 c1
    @ Common.span_metrics ~traced_wall:(t_wall +. r_wall)
    @ replay_metrics
    @ Common.cashrt_metrics runs
    @ [ ("fuzz.gen.s", Spans.self_seconds "fuzz.gen");
        ("fuzz.check.s", Spans.self_seconds "fuzz.check");
        ("fuzz.compile_share", Common.ratio fleet.compile_s fleet.check_s);
        ("fuzz.known_misses", float_of_int fleet.known_misses);
        ("trace.overhead_ratio", Common.ratio t_wall u.Common.wall) ]
  in
  (u.Common.attempted, u.Common.failed, metrics)
