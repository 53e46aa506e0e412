(* The differential property, as a reusable predicate.

   [check] runs one generated program through the five compilers
   (gcc unchecked / bcc software fat pointers / cash segmentation
   hardware / mpx bounds registers / cap capabilities) under a
   configurable engine matrix and judges the result:

   - in bounds: all five finish with identical output, under every
     engine, with identical output across engines — no checker may
     change observable semantics of a correct program;
   - out of bounds, loop shape: bcc, cash, mpx, and cap ALL report a
     bound violation while gcc never does;
   - out of bounds, straight-line shape: bcc, mpx, and cap report a
     bound violation (mpx and cap check every reference, in or out of
     loops); cash FINISHES with the baseline's (corrupted) output. That
     is the paper's §3.8 policy — only references inside loops are
     checked — and the fleet pins it as a {e known miss} ([Pass
     {known_miss = true}]) rather than reporting a divergence. If cash
     ever starts catching straight-line references, the pin fails
     loudly and the policy model here must be updated, not silently
     absorbed.

   Failures come back as a value ([Fail]) rather than an exception so
   the same function serves as the shrinking predicate: a candidate
   program "still fails" iff [check] on it is [Fail _].

   With [~plugins:true] every cash run carries a fresh sink with the
   shipped checker plugins attached ({!Checkers.attach_shipped}); any
   plugin violation is a failure in its own right — the fleet then
   cross-checks the simulated hardware itself, not just compiler
   agreement.

   [~force_fail:true] short-circuits the property into a failure on an
   otherwise healthy program: CI's dump-and-replay drill uses it to
   exercise the artifact path (and the shrinker, which under a
   constantly-failing predicate reduces the program to near-nothing)
   on demand. *)

type failure = {
  f_seed : int;
  f_what : string;  (* property leg, e.g. "oob/block" *)
  f_backend : Core.backend;
  f_message : string;
  f_src : string;
  (* The offending run and its compiled program, if the program got that
     far. Carrying the compilation alongside the run lets the dumper
     snapshot the machine without compiling the source a second time. *)
  f_run : (Core.compiled * Core.run) option;
}

type verdict = Pass of { known_miss : bool } | Fail of failure

exception Failed of failure

let status_name = function
  | Core.Finished -> "finished"
  | Core.Bound_violation m -> "bound_violation: " ^ m
  | Core.Crashed m -> "crashed: " ^ m

let is_bv = function Core.Bound_violation _ -> true | _ -> false

(* One engine per program: the superblock engine, the fleet's throughput
   configuration. The third component of every engine leg is [None]:
   perfbench/fuzz_load.ml:114-115 still reads it. *)
let fast_engines : (string * Machine.Cpu.engine * bool option) list =
  [ ("block", Machine.Cpu.Block, None) ]

(* The full differential matrix of test/test_differential.ml: the block
   engine on every seed, with the reference oracle joining on every 7th
   seed. *)
let all_engines ~seed : (string * Machine.Cpu.engine * bool option) list =
  fast_engines
  @ (if seed mod 7 = 0 then [ ("reference", Machine.Cpu.Reference, None) ]
     else [])

let fail ~seed ~what ~backend ~src ?run fmt =
  Printf.ksprintf
    (fun msg ->
      raise
        (Failed
           {
             f_seed = seed;
             f_what = what;
             f_backend = backend;
             f_message = msg;
             f_src = src;
             f_run = run;
           }))
    fmt

(* Compile [src] once per backend per check, BEFORE the engine loop.
   Every engine leg then runs the same [compiled] value — same program
   identity, so the block engine's shared superblock cache binds the
   one closure set across legs instead of recompiling it.

   Deliberately NOT [Core.compile_cached]: fleet sources are distinct
   by construction, so the process-wide table never hits here — but it
   would pin every seed's program (and, transitively, its superblock
   closures) until an eviction sweep, promoting the whole stream into
   major-heap marking. Routing the fleet through the global cache was
   measured to cost 5–25% of check-phase throughput depending on the
   cache capacity; hoisting the compile out of the engine loop gives
   the same once-per-process guarantee with zero retention. *)
let compile_backend ~seed ~what backend src =
  match Core.compile backend src with
  | compiled -> compiled
  | exception (Failed _ as e) -> raise e
  | exception e ->
    fail ~seed ~what ~backend ~src "seed %d: %s under %s raised %s" seed what
      (Core.backend_name backend) (Printexc.to_string e)

(* Run an already-compiled program on one engine leg. Returns the
   (compiled, run) pair, so the failure value can carry the compiled
   program alongside the run (the dumper reuses it instead of
   recompiling). *)
let run_backend ~seed ~what ~engine ?trace backend compiled src =
  match (compiled, Core.run ~engine ?trace compiled) with
  | pair -> pair
  | exception (Failed _ as e) -> raise e
  | exception e ->
    fail ~seed ~what ~backend ~src "seed %d: %s under %s raised %s" seed what
      (Core.backend_name backend) (Printexc.to_string e)

(* A cash run, optionally with the shipped plugins watching the
   hardware event stream. Each run gets its own sink, so a violation
   names the exact program and engine leg that provoked it. *)
let run_cash ~plugins ~seed ~what ~engine compiled src =
  if not plugins then run_backend ~seed ~what ~engine Core.cash compiled src
  else begin
    let sink = Trace.create () in
    Checkers.attach_shipped sink;
    let pair =
      run_backend ~seed ~what ~engine ~trace:sink Core.cash compiled src
    in
    Trace.finish_plugins sink;
    (match Checkers.shipped_violations sink with
     | [] -> ()
     | (checker, msg) :: _ as vs ->
       fail ~seed ~what ~backend:Core.cash ~src ~run:pair
         "seed %d: %d plugin violation(s) under %s, first: [%s] %s" seed
         (List.length vs) what checker msg);
    pair
  end

(* A leg's runs are dead once its comparisons pass: recycle their
   physical-memory buffers (the eager 1 MiB stack map makes each one a
   multi-megabyte zeroed allocation) instead of leaving thousands of
   them to the major GC per sweep. Failure paths raise before reaching
   this, so a [Failed] value's carried run keeps its memory intact for
   the snapshot dumper. *)
let release_runs runs =
  List.iter
    (fun (r : Core.run) ->
      Machine.Phys_mem.release (Osim.Process.phys r.Core.process))
    runs

let check_in_bounds ~engines ~plugins ~seed src =
  let first_output = ref None in
  let what = "in-bounds" in
  let gc = compile_backend ~seed ~what Core.gcc src in
  let bc = compile_backend ~seed ~what Core.bcc src in
  let cc = compile_backend ~seed ~what Core.cash src in
  let mc = compile_backend ~seed ~what Core.mpx src in
  let kc = compile_backend ~seed ~what Core.cap src in
  List.iter
    (fun (ename, engine, _) ->
      let what = "in-bounds/" ^ ename in
      let (_, g) as gp = run_backend ~seed ~what ~engine Core.gcc gc src in
      let (_, b) as bp = run_backend ~seed ~what ~engine Core.bcc bc src in
      let (_, c) as cp = run_cash ~plugins ~seed ~what ~engine cc src in
      let (_, m) as mp = run_backend ~seed ~what ~engine Core.mpx mc src in
      let (_, k) as kp = run_backend ~seed ~what ~engine Core.cap kc src in
      List.iter
        (fun (name, backend, ((_, r) as pair)) ->
          if r.Core.status <> Core.Finished then
            fail ~seed ~what ~backend ~src ~run:pair
              "seed %d: %s did not finish under %s: %s" seed name ename
              (status_name r.Core.status))
        [ ("gcc", Core.gcc, gp); ("bcc", Core.bcc, bp);
          ("cash", Core.cash, cp); ("mpx", Core.mpx, mp);
          ("cap", Core.cap, kp) ];
      List.iter
        (fun (name, backend, ((_, r) as pair)) ->
          if r.Core.output <> g.Core.output then
            fail ~seed ~what ~backend ~src ~run:pair
              "seed %d: %s output %S <> gcc output %S (%s)" seed name
              r.Core.output g.Core.output ename)
        [ ("bcc", Core.bcc, bp); ("cash", Core.cash, cp);
          ("mpx", Core.mpx, mp); ("cap", Core.cap, kp) ];
      (match !first_output with
       | None -> first_output := Some g.Core.output
       | Some out ->
         if g.Core.output <> out then
           fail ~seed ~what ~backend:Core.gcc ~src ~run:gp
             "seed %d: output differs across engines at %s" seed ename);
      release_runs [ g; b; c; m; k ])
    engines

let check_oob ~engines ~plugins ~seed prog src =
  let direct = Gen.oob_is_direct prog.Gen.oob in
  let what = if direct then "oob-direct" else "oob" in
  let gc = compile_backend ~seed ~what Core.gcc src in
  let bc = compile_backend ~seed ~what Core.bcc src in
  let cc = compile_backend ~seed ~what Core.cash src in
  let mc = compile_backend ~seed ~what Core.mpx src in
  let kc = compile_backend ~seed ~what Core.cap src in
  List.iter
    (fun (ename, engine, _) ->
      let what = (if direct then "oob-direct/" else "oob/") ^ ename in
      let (_, g) as gp = run_backend ~seed ~what ~engine Core.gcc gc src in
      let (_, b) as bp = run_backend ~seed ~what ~engine Core.bcc bc src in
      let (_, c) as cp = run_cash ~plugins ~seed ~what ~engine cc src in
      let (_, m) as mp = run_backend ~seed ~what ~engine Core.mpx mc src in
      let (_, k) as kp = run_backend ~seed ~what ~engine Core.cap kc src in
      if not (is_bv b.Core.status) then
        fail ~seed ~what ~backend:Core.bcc ~src ~run:bp
          "seed %d: bcc missed the overrun under %s (%s)" seed ename
          (status_name b.Core.status);
      (* Unlike cash's loop-only policy, the MPX and capability
         backends check every reference — BOTH overrun shapes must
         fault. *)
      if not (is_bv m.Core.status) then
        fail ~seed ~what ~backend:Core.mpx ~src ~run:mp
          "seed %d: mpx missed the overrun under %s (%s)" seed ename
          (status_name m.Core.status);
      if not (is_bv k.Core.status) then
        fail ~seed ~what ~backend:Core.cap ~src ~run:kp
          "seed %d: cap missed the overrun under %s (%s)" seed ename
          (status_name k.Core.status);
      if is_bv g.Core.status then
        fail ~seed ~what ~backend:Core.gcc ~src ~run:gp
          "seed %d: gcc reported a bound violation it cannot detect under %s \
           (%s)"
          seed ename
          (status_name g.Core.status);
      if direct then begin
        (* The known miss, pinned: straight-line references are
           unchecked by policy, so like the baseline cash runs straight
           through the overrun. Output equality with gcc is NOT part of
           the pin — an out-of-bounds read has no defined value and the
           two backends lay out data differently, so each corrupts (or
           reads) its own neighbour. *)
        if is_bv c.Core.status then
          fail ~seed ~what ~backend:Core.cash ~src ~run:cp
            "seed %d: cash caught a straight-line overrun under %s — §3.8 \
             loop-only policy says it cannot; update the policy model"
            seed ename;
        if c.Core.status <> Core.Finished then
          fail ~seed ~what ~backend:Core.cash ~src ~run:cp
            "seed %d: cash did not finish on a straight-line overrun under \
             %s (%s)"
            seed ename
            (status_name c.Core.status)
      end
      else if not (is_bv c.Core.status) then
        fail ~seed ~what ~backend:Core.cash ~src ~run:cp
          "seed %d: cash missed the overrun under %s (%s)" seed ename
          (status_name c.Core.status);
      release_runs [ g; b; c; m; k ])
    engines

let check ?(engines = fast_engines) ?(plugins = false) ?(force_fail = false)
    ~seed prog =
  let src = Gen.render prog in
  try
    if force_fail then begin
      let what = "in-bounds/forced" in
      let run =
        match Core.compile_cached Core.cash src with
        | exception _ -> None
        | compiled -> (
          match Core.run compiled with
          | r -> Some (compiled, r)
          | exception _ -> None)
      in
      fail ~seed ~what ~backend:Core.cash ~src ?run
        "seed %d: forced failure (CASH_DIFF_FORCE_FAIL)" seed
    end;
    (match prog.Gen.oob with
     | None -> check_in_bounds ~engines ~plugins ~seed src
     | Some _ -> check_oob ~engines ~plugins ~seed prog src);
    Pass { known_miss = Gen.oob_is_direct prog.Gen.oob }
  with Failed f -> Fail f

let failed verdict = match verdict with Fail _ -> true | Pass _ -> false
