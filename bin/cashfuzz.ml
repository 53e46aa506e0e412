(* cashfuzz: the property-based differential fleet, as a standalone tool.

     dune exec bin/cashfuzz.exe -- --count 1000            # quick sweep
     dune exec bin/cashfuzz.exe -- --count 100000 -j 8     # overnight fleet
     dune exec bin/cashfuzz.exe -- --engines all --plugins # full matrix,
                                                             hardware checker
                                                             plugins watching
                                                             every cash run
     dune exec bin/cashfuzz.exe -- --force-fail 3 --dump d # CI drill: force
                                                             seed 3 to fail,
                                                             shrink it, dump
                                                             artifacts under d

   Each seed generates one mini-C program (every [--oob-every]'th with
   an injected overrun), runs it through gcc/bcc/cash, and checks the
   differential property; a failing seed is greedily shrunk to a
   minimal reproducer and both the original and the shrunk program are
   dumped with crash snapshots replayable via `cashc --replay`. Exit
   status is 1 when any seed failed, 0 otherwise. *)

open Cmdliner

let count =
  Arg.(value & opt int 1000 &
       info [ "n"; "count" ] ~docv:"N" ~doc:"Number of programs to generate.")

let first_seed =
  Arg.(value & opt int 0 &
       info [ "first-seed" ] ~docv:"SEED"
         ~doc:"Seed of the first program; program $(i,i) uses seed \
               $(i,SEED+i). The generator is deterministic per seed.")

let oob_every =
  Arg.(value & opt int 3 &
       info [ "oob-every" ] ~docv:"K"
         ~doc:"Inject an out-of-bounds access into every $(i,K)-th program \
               (0 disables injection entirely).")

let jobs =
  Arg.(value & opt (some int) None &
       info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains. Defaults to $(b,CASH_JOBS) or the \
               recommended domain count.")

let engines =
  Arg.(value & opt (enum [ ("fast", Fuzz.Fleet.Fast); ("all", Fuzz.Fleet.All) ])
         Fuzz.Fleet.Fast &
       info [ "engines" ]
         ~doc:"$(b,fast) runs each program once per backend on the \
               superblock engine; $(b,all) runs the full differential \
               matrix (block on every seed, the reference oracle on \
               every 7th).")

let dump_dir =
  Arg.(value & opt string "fuzz-failures" &
       info [ "dump" ] ~docv:"DIR"
         ~doc:"Directory for crash artifacts (created recursively); each \
               failing seed dumps source, machine snapshot, and a replay \
               command, for both the original and the shrunk reproducer.")

let no_dump =
  Arg.(value & flag &
       info [ "no-dump" ] ~doc:"Do not write crash artifacts.")

let no_shrink =
  Arg.(value & flag &
       info [ "no-shrink" ] ~doc:"Do not shrink failing programs.")

let plugins =
  Arg.(value & flag &
       info [ "plugins" ]
         ~doc:"Attach the shipped checker plugins (bounds precision, stack \
               smash, LDT reuse, fault consistency) to every cash run; a \
               plugin violation fails the seed like any divergence.")

let force_fail =
  Arg.(value & opt (some int) None &
       info [ "force-fail" ] ~docv:"SEED"
         ~doc:"Force this seed to fail — exercises the shrink-and-dump \
               path on demand (the CI drill).")

let run count first_seed oob_every jobs engines dump_dir no_dump no_shrink
    plugins force_fail =
  match Parallel.resolve_jobs jobs with
  | Error msg -> `Error (false, msg)  (* a malformed CASH_JOBS *)
  | Ok _ ->
  let cfg =
    {
      Fuzz.Fleet.count;
      first_seed;
      oob_every;
      engines;
      jobs;
      dump_dir = (if no_dump then None else Some dump_dir);
      force_fail;
      shrink = not no_shrink;
      plugins;
    }
  in
  let stats = Fuzz.Fleet.run cfg in
  let open Fuzz.Fleet in
  Printf.printf
    "cashfuzz: %d programs, seeds %d..%d, engines %s%s\n\
    \  oob injected:  %d\n\
    \  known misses:  %d  (straight-line overruns cash skips by policy)\n\
    \  failures:      %d\n\
    \  wall:          %.1f s  (%.1f programs/s, check + shrink/dump)\n\
    \  check phase:   %.1f s  (%.1f programs/s, summed across workers)\n\
    \  compile:       %.1f s  (%.0f%% of the check phase: lex + parse + \
     typecheck + codegen)\n"
    stats.ran first_seed
    (first_seed + count - 1)
    (match engines with Fast -> "fast" | All -> "all")
    (if plugins then ", plugins on" else "")
    stats.oob_injected stats.known_misses
    (List.length stats.failures)
    stats.wall_seconds stats.programs_per_sec stats.check_seconds
    stats.check_programs_per_sec stats.compile_seconds
    (stats.compile_share *. 100.);
  List.iter
    (fun r ->
      Printf.printf "\nFAIL seed %d (%s, %s): %s\n" r.r_seed r.r_what
        r.r_backend r.r_message;
      List.iter (fun p -> Printf.printf "  artifact: %s\n" p) r.r_artifacts;
      match r.r_min_src with
      | Some src ->
        Printf.printf "  shrunk to %d lines:\n"
          (List.length (String.split_on_char '\n' (String.trim src)));
        String.split_on_char '\n' (String.trim src)
        |> List.iter (fun l -> Printf.printf "    %s\n" l)
      | None -> ())
    stats.failures;
  `Ok (if stats.failures = [] then 0 else 1)

let cmd =
  let doc = "property-based differential fuzzing of the Cash compilers" in
  Cmd.v (Cmd.info "cashfuzz" ~doc)
    Term.(ret (const run $ count $ first_seed $ oob_every $ jobs $ engines
               $ dump_dir $ no_dump $ no_shrink $ plugins $ force_fail))

let () = exit (Cmd.eval' cmd)
