(* Replays through the layers' public functions, one span per call.
   The workloads' entry points (Suite.run_all_timed, Matrix.run,
   Fleet.run, Server.run_batch) call these layers internally, where the
   benchmark cannot time them; the traced run feeds the same programs
   through the layers directly instead. *)

let tokens = ref 0
let code_bytes = ref 0

(* [Core.compile], stage by stage. The parser scans its input itself, so
   the separate scan costs the replay one extra lex per program; the
   span metrics subtract it back out of the parse layer. *)
let compile ?item backend source =
  let buf = Spans.record ?item "minic.lex" (fun () -> Minic.Lexer.scan source) in
  tokens := !tokens + Minic.Lexer.count buf;
  let ast =
    Spans.record ?item "minic.parse" (fun () -> Minic.Parser.parse_program source)
  in
  let ir = Spans.record ?item "minic.typecheck" (fun () -> Minic.Typecheck.check ast) in
  let compiled =
    Spans.record ?item "compilers.codegen" (fun () ->
        Compilers.Codegen.generate backend ir)
  in
  code_bytes := !code_bytes + compiled.Compilers.Codegen.code_bytes;
  compiled

(* [Core.run], split into machine creation and execution. *)
let run ?item ?engine ?chain ?trace compiled =
  let state =
    Spans.record ?item "osim.load" (fun () ->
        Core.start ?engine ?chain ?trace compiled)
  in
  Common.outcome
    (Spans.record ?item "machine.exec" (fun () -> Core.finish state))

(* Run [replay] over the same programs three times: with spans and no
   sink (R), then twice under a fresh sink with spans off (K). R times
   the layers; K counts the simulated hardware. [replay ~trace] returns
   the outcomes of its runs in order. Cycles, instructions, code size
   and event counts must not depend on the sink, nor differ between the
   two counting passes. *)
let replay_pair replay =
  let pass ~trace =
    tokens := 0;
    code_bytes := 0;
    let c0 = Common.counters () in
    let outcomes, wall = Common.time (fun () -> replay ~trace) in
    let insns = (Common.counters ()).Common.retired - c0.Common.retired in
    (outcomes, wall, insns, (!tokens, !code_bytes))
  in
  let runs, wall, insns, sizes = pass ~trace:None in
  let count () =
    let sink = Trace.create () in
    let outcomes, k_wall, k_insns, k_sizes =
      Spans.with_recording false (fun () -> pass ~trace:(Some sink))
    in
    Common.guard "cycles with and without a sink" (Common.cycles_digest runs)
      (Common.cycles_digest outcomes);
    Common.guard_int "machine.insns with and without a sink" insns k_insns;
    Common.guard_int "compilers.code_bytes" (snd sizes) (snd k_sizes);
    (sink, k_wall)
  in
  let sink, k_wall = count () in
  let sink2, _ = count () in
  Common.guard "seghw and osim counts" (Common.counters_digest sink)
    (Common.counters_digest sink2);
  let events = Trace.total_events sink in
  let metrics =
    Common.sink_metrics sink
    @ [ ("minic.lex.tokens", float_of_int (fst sizes));
        ("compilers.code_bytes", float_of_int (snd sizes));
        ("machine.ns_per_insn",
         Common.ratio (Spans.self_seconds "machine.exec") (float_of_int insns)
         *. 1e9);
        ("trace.ns_per_event",
         Common.ratio (k_wall -. wall) (float_of_int events) *. 1e9) ]
  in
  (runs, wall, metrics)
