(* The fuzzing fleet: generate -> check -> (shrink -> dump) over the
   domain pool.

   Every seed is an independent deterministic simulation, so the fleet
   fans out through {!Parallel.run_jobs} exactly like the experiment
   harness: one atomic index hands seeds to workers, results land in
   per-seed slots, and the collected output — including the failure
   list — is byte-identical to a serial run regardless of worker count.

   A failing seed is handled ENTIRELY inside its own job: the original
   program is dumped, the shrinker descends on it (re-running the same
   check configuration as its predicate), and the shrunk reproducer is
   re-checked one last time so ITS crash snapshot — not the original's —
   lands next to it as [seed_N.min.snap]. The fleet keeps running
   through failures; callers get them all, in seed order, in
   [stats.failures]. *)

type engine_choice =
  | Fast  (* block engine only — throughput runs *)
  | All  (* the full differential matrix, reference every 7th seed *)

type config = {
  count : int;  (* programs to generate *)
  first_seed : int;
  oob_every : int;  (* every Nth program gets an injected overrun; 0 = none *)
  engines : engine_choice;
  jobs : int option;  (* worker domains; [None] = CASH_JOBS / recommended *)
  dump_dir : string option;  (* [None] = no artifacts *)
  force_fail : int option;  (* CI drill: force this seed to fail *)
  shrink : bool;
  plugins : bool;  (* shipped checker plugins on every cash run *)
}

let default =
  {
    count = 1000;
    first_seed = 0;
    oob_every = 3;
    engines = Fast;
    jobs = None;
    dump_dir = Some "fuzz-failures";
    force_fail = None;
    shrink = true;
    plugins = false;
  }

type failure_report = {
  r_seed : int;
  r_what : string;
  r_backend : string;
  r_message : string;
  r_artifacts : string list;  (* files written, original first *)
  r_min_src : string option;  (* shrunk reproducer source *)
}

type stats = {
  ran : int;
  oob_injected : int;
  known_misses : int;  (* direct overruns cash passed on by §3.8 policy *)
  failures : failure_report list;  (* seed order *)
  wall_seconds : float;  (* whole run: check AND shrink/dump phases *)
  programs_per_sec : float;  (* count / wall_seconds *)
  (* The check phase alone, timed per seed inside its job and summed
     across workers (so above one job it exceeds the wall clock).
     Shrinking a failure re-runs the predicate dozens of times and
     dumping touches the filesystem; folding that into one wall-clock
     rate made a run with failures look like a slow fleet. The pair
     below reports generator+checker throughput undistorted. *)
  check_seconds : float;
  check_programs_per_sec : float;  (* count / check_seconds *)
  (* The frontend+codegen slice of the check phase: seconds spent
     inside [Core.compile] (lex, parse, typecheck, codegen), summed
     across workers like [check_seconds] — the rest of the check phase
     is execution and comparison. Each check compiles its three
     backends once, ahead of the engine loop (see [Check]), so this is
     a clean per-program frontend cost; a rising share across
     otherwise-identical runs means a frontend regression. *)
  compile_seconds : float;
  compile_share : float;  (* compile_seconds / check_seconds; 0 if unknown *)
}

let engines_for cfg ~seed =
  match cfg.engines with
  | Fast -> Check.fast_engines
  | All -> Check.all_engines ~seed

let check_seed cfg ~seed prog =
  Check.check ~engines:(engines_for cfg ~seed) ~plugins:cfg.plugins
    ~force_fail:(cfg.force_fail = Some seed) ~seed prog

let report_failure cfg ~seed prog (f : Check.failure) =
  let dump ?suffix (f : Check.failure) =
    match cfg.dump_dir with
    | None -> []
    | Some dir ->
      Dump.dump_failure ~dir ~seed ?suffix ~what:f.f_what ~backend:f.f_backend
        ~src:f.f_src f.f_run
  in
  let artifacts = dump f in
  let min_src, min_artifacts =
    if not cfg.shrink then (None, [])
    else begin
      let pred p = Check.failed (check_seed cfg ~seed p) in
      let small = Shrink.minimize ~pred prog in
      (* Re-check the shrunk program so its own terminal machine state
         gets snapshotted for replay. By [minimize]'s contract it still
         fails; if it somehow passes (a flaky predicate would be a bug
         in itself), record the source without artifacts. *)
      match check_seed cfg ~seed small with
      | Check.Fail mf -> (Some mf.f_src, dump ~suffix:".min" mf)
      | Check.Pass _ -> (Some (Gen.render small), [])
    end
  in
  {
    r_seed = seed;
    r_what = f.f_what;
    r_backend = Core.backend_name f.f_backend;
    r_message = f.f_message;
    r_artifacts = artifacts @ min_artifacts;
    r_min_src = min_src;
  }

let run cfg =
  let t0 = Unix.gettimeofday () in
  let compile0 = Core.compile_seconds () in
  let tasks =
    Array.init cfg.count (fun i () ->
        let seed = cfg.first_seed + i in
        let oob = cfg.oob_every > 0 && i mod cfg.oob_every = cfg.oob_every - 1 in
        (* Generate + check is the phase whose throughput the fleet
           reports; shrink + dump (inside [report_failure]) is failure
           triage and is timed only by the whole-run wall clock. *)
        let c0 = Unix.gettimeofday () in
        let prog = Gen.generate ~seed ~oob in
        let verdict = check_seed cfg ~seed prog in
        let check_dt = Unix.gettimeofday () -. c0 in
        match verdict with
        | Check.Pass { known_miss } -> (oob, known_miss, None, check_dt)
        | Check.Fail f ->
          (oob, false, Some (report_failure cfg ~seed prog f), check_dt))
  in
  let results = Parallel.run_jobs ?jobs:cfg.jobs tasks in
  let compile_seconds = Core.compile_seconds () -. compile0 in
  let wall = Unix.gettimeofday () -. t0 in
  let oob_injected = ref 0 and known_misses = ref 0 and failures = ref [] in
  let check_seconds = ref 0. in
  Array.iter
    (fun (oob, miss, failure, check_dt) ->
      if oob then incr oob_injected;
      if miss then incr known_misses;
      check_seconds := !check_seconds +. check_dt;
      match failure with Some r -> failures := r :: !failures | None -> ())
    results;
  {
    ran = cfg.count;
    oob_injected = !oob_injected;
    known_misses = !known_misses;
    failures = List.rev !failures;
    wall_seconds = wall;
    programs_per_sec =
      (if wall > 0. then float_of_int cfg.count /. wall else 0.);
    check_seconds = !check_seconds;
    check_programs_per_sec =
      (if !check_seconds > 0. then float_of_int cfg.count /. !check_seconds
       else 0.);
    compile_seconds;
    compile_share =
      (if !check_seconds > 0. then compile_seconds /. !check_seconds else 0.);
  }
