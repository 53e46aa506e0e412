(* cashc: compile and run a mini-C file on the simulated machine.

     dune exec bin/cashc.exe -- prog.c                 # Cash, 3 registers
     dune exec bin/cashc.exe -- --compiler gcc prog.c
     dune exec bin/cashc.exe -- --compiler bcc --stats prog.c
     dune exec bin/cashc.exe -- --dump-asm prog.c      # print generated code
     dune exec bin/cashc.exe -- --profile prog.c       # traced run: flat
                                                         per-function cycle
                                                         profile + hardware
                                                         event counters on
                                                         stderr
     dune exec bin/cashc.exe -- --check prog.c         # traced run with the
                                                         shipped checker
                                                         plugins attached;
                                                         exit 5 on a plugin
                                                         violation
     dune exec bin/cashc.exe -- --replay s.snap prog.c # restore a machine
                                                         checkpoint of prog.c
                                                         (e.g. a differential
                                                         crash dump) and
                                                         resume from it
*)

open Cmdliner

let backend_conv =
  let all =
    [ ("gcc", Core.gcc); ("bcc", Core.bcc); ("cash", Core.cash);
      (* "cash3" = "cash": [Core.backend_name] prints the register count,
         and crash-dump replay lines quote that name verbatim. *)
      ("cash2", Core.cash_n 2); ("cash3", Core.cash); ("cash4", Core.cash_n 4);
      ("mpx", Core.mpx); ("cap", Core.cap) ]
  in
  Arg.enum all

let file =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
       ~doc:"mini-C source file")

let backend =
  Arg.(value & opt backend_conv Core.cash &
       info [ "c"; "compiler" ]
         ~doc:"Compiler: gcc, bcc, cash, cash2, cash4, mpx, cap.")

let stats =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print static and dynamic statistics.")

let dump_asm =
  Arg.(value & flag & info [ "dump-asm" ] ~doc:"Print the generated code and exit.")

let profile =
  Arg.(value & flag &
       info [ "profile" ]
         ~doc:"Run with a trace sink attached and print a flat per-function \
               cycle profile plus hardware event counters to stderr. \
               Simulated cycles are identical with and without this flag.")

let check =
  Arg.(value & flag &
       info [ "check" ]
         ~doc:"Run with the shipped checker plugins (bounds precision, \
               stack smash, LDT slot reuse, fault/counter consistency) \
               attached to the trace sink, print their report to stderr, \
               and exit 5 if any plugin recorded a violation on an \
               otherwise clean run. Composes with $(b,--profile); tracing \
               never changes simulated behaviour.")

let engine_conv =
  Arg.enum
    [ ("block", Machine.Cpu.Block); ("predecode", Machine.Cpu.Predecoded);
      ("predecoded", Machine.Cpu.Predecoded);
      ("reference", Machine.Cpu.Reference) ]

let engine =
  Arg.(value & opt engine_conv Machine.Cpu.default_engine &
       info [ "engine" ]
         ~doc:"CPU interpreter: block (superblock dispatch, the default), \
               predecode, or reference. Simulated cycles and output \
               are engine-independent.")

let no_chain =
  Arg.(value & flag &
       info [ "no-chain" ]
         ~doc:"Disable block chaining (meaningful only with \
               $(b,--engine=block)): hot blocks dispatch one at a time \
               instead of being chained past the dispatch loop. Purely a \
               host-throughput knob — simulated cycles, output, and \
               faults are identical either way.")

let replay =
  Arg.(value & opt (some file) None &
       info [ "replay" ] ~docv:"SNAPSHOT"
         ~doc:"Restore a lib/snapshot checkpoint taken of $(i,FILE)'s \
               compiled program (for example a differential-fleet crash \
               dump) and resume execution from it instead of starting \
               fresh. The compiler must match the one that took the \
               snapshot; the engine need not. A snapshot of an \
               already-terminated machine replays its final status and \
               output.")

let read_file = Core.read_file

let print_profile sink =
  Printf.eprintf "-- flat profile (cycles by function) --\n";
  Printf.eprintf "%-24s %12s %12s\n" "function" "cycles" "insns";
  List.iter
    (fun (sym, insns, cycles) ->
      Printf.eprintf "%-24s %12d %12d\n" sym cycles insns)
    (Trace.attributions sink);
  Printf.eprintf "-- hardware events --\n";
  List.iter
    (fun (k, v) -> Printf.eprintf "%-24s %12d\n" k v)
    (Trace.counters sink);
  let violations = Trace.violations sink in
  if violations <> [] then begin
    Printf.eprintf "-- checker violations --\n";
    List.iter
      (fun (checker, msg) -> Printf.eprintf "%s: %s\n" checker msg)
      violations
  end

(* The plugin report: one line per attached plugin, then every recorded
   violation. Returns [true] when the run is clean. *)
let print_check sink =
  Trace.finish_plugins sink;
  let violations = Checkers.shipped_violations sink in
  Printf.eprintf "-- checker plugins --\n";
  List.iter
    (fun name ->
      let n =
        List.length (List.filter (fun (c, _) -> c = name) violations)
      in
      Printf.eprintf "%-24s %s\n" name
        (if n = 0 then "ok" else Printf.sprintf "%d violation(s)" n))
    (Trace.plugin_names sink);
  List.iter
    (fun (checker, msg) -> Printf.eprintf "%s: %s\n" checker msg)
    violations;
  violations = []

let run file backend stats dump_asm profile check engine no_chain replay =
  let source = read_file file in
  if no_chain then Core.set_chaining false;
  match Core.compile backend source with
  | exception Minic.Lexer.Lex_error (m, l) ->
    Printf.eprintf "%s:%d: lexical error: %s\n" file l m; 1
  | exception Minic.Parser.Parse_error (m, l) ->
    Printf.eprintf "%s:%d: parse error: %s\n" file l m; 1
  | exception Minic.Typecheck.Type_error m ->
    Printf.eprintf "%s: type error: %s\n" file m; 1
  | compiled ->
    if dump_asm then begin
      Fmt.pr "%a@." Machine.Program.pp compiled.Compilers.Codegen.program;
      0
    end
    else begin
      let trace =
        if profile || check then Some (Trace.create ()) else None
      in
      (match trace with
       | Some sink when check -> Checkers.attach_shipped sink
       | _ -> ());
      match
        match replay with
        | None -> Ok (Core.run ~engine ?trace compiled)
        | Some snap -> (
          let bytes = Bytes.of_string (read_file snap) in
          match Core.restore ~engine ?trace compiled bytes with
          | state -> Ok (Core.finish state)
          | exception Snapshot.Error e -> Error (snap, e))
      with
      | Error (snap, e) ->
        Printf.eprintf "%s: cannot replay: %s\n" snap
          (Snapshot.error_to_string e);
        4
      | Ok r ->
      print_string r.Core.output;
      let plugins_clean =
        match trace with
        | Some s ->
          if profile then print_profile s;
          if check then print_check s else true
        | None -> true
      in
      let exit_code =
        match r.Core.status with
        | Core.Finished -> if plugins_clean then 0 else 5
        | Core.Bound_violation m ->
          Printf.eprintf "bound violation: %s\n" m; 2
        | Core.Crashed m ->
          Printf.eprintf "fault: %s\n" m; 3
      in
      if stats then begin
        let i = Core.static_info compiled in
        Printf.eprintf
          "cycles: %d\ninstructions: %d\ncode bytes: %d\ndata bytes: %d\n\
           hw checks (static): %d\nsw checks (static): %d\n\
           bcc checks (static): %d\nsw checks executed: %d\n"
          r.Core.cycles r.Core.insns i.Core.code_bytes i.Core.data_bytes
          i.Core.hw_checks i.Core.sw_checks i.Core.bcc_checks
          (Core.stat_sum r ~prefix:"__stat_swc_");
        match r.Core.runtime with
        | Some rt ->
          let c = Cashrt.Runtime.cache rt in
          Printf.eprintf
            "segment allocations: %d\nsegment cache hits/misses: %d/%d\n\
             peak live segments: %d\n"
            (Cashrt.Runtime.stats rt).Cashrt.Runtime.seg_allocs
            (Cashrt.Seg_cache.hits c) (Cashrt.Seg_cache.misses c)
            (Cashrt.Segment_pool.peak_live (Cashrt.Runtime.pool rt))
        | None -> ()
      end;
      exit_code
    end

let cmd =
  let doc = "compile and run mini-C on the simulated segmented x86" in
  Cmd.v (Cmd.info "cashc" ~doc)
    Term.(const run $ file $ backend $ stats $ dump_asm $ profile $ check
          $ engine $ no_chain $ replay)

let () = exit (Cmd.eval' cmd)
