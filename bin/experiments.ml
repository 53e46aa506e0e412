(* Run the paper's experiments and print the reproduced tables.

     dune exec bin/experiments.exe            # everything
     dune exec bin/experiments.exe -- table1 figure2
     dune exec bin/experiments.exe -- --requests 100 table8
     dune exec bin/experiments.exe -- -j 4    # fan out over 4 domains

   Each experiment builds its own simulated machine, so the selected
   experiments run as independent jobs on a Domain pool (lib/parallel).
   Reports are collected by job index and printed in selection order:
   the output is byte-identical at any -j. *)

let experiments : (string * (requests:int -> Harness.Report.t list)) list =
  [
    ("table1", fun ~requests:_ -> [ Harness.Table1.run () ]);
    ("table2", fun ~requests:_ -> [ Harness.Table2.run () ]);
    ("table3", fun ~requests:_ -> [ Harness.Table3.run () ]);
    ("table4", fun ~requests:_ -> [ Harness.Table4.run () ]);
    ("table5", fun ~requests:_ -> [ Harness.Table5.run () ]);
    ("table6", fun ~requests:_ -> [ Harness.Table6.run () ]);
    ("table7", fun ~requests:_ -> [ Harness.Table7.run () ]);
    (* The warm-started snapshot split: byte-identical to the serial
       [Table8.run] but each server inits once instead of once per
       request. Inside this fan-out it runs its jobs serially (nested
       pools do not nest); selected alone it still wins by skipping
       the per-request init replay. *)
    ("table8", fun ~requests -> [ Harness.Table8.run_split ~requests () ]);
    ("figure2", fun ~requests:_ -> [ Harness.Figure2.run () ]);
    ("microcosts", fun ~requests:_ -> [ Harness.Microcosts.run () ]);
    ( "ablation",
      fun ~requests:_ ->
        [ Harness.Ablation.run (); Harness.Ablation.sw_check_dynamics () ] );
    ("security", fun ~requests:_ -> [ Harness.Ablation.security_only () ]);
    ("bound", fun ~requests:_ -> [ Harness.Ablation.bound_instruction () ]);
    ("efence", fun ~requests:_ -> [ Harness.Ablation.efence () ]);
  ]

let names = List.map fst experiments

open Cmdliner

let selected =
  let doc =
    Printf.sprintf "Experiments to run (default: all). One of: %s."
      (String.concat ", " names)
  in
  Arg.(value & pos_all (enum (List.map (fun n -> (n, n)) names)) [] &
       info [] ~docv:"EXPERIMENT" ~doc)

let requests =
  let doc = "Requests per server for table8." in
  Arg.(value & opt int Harness.Table8.default_requests &
       info [ "requests" ] ~doc)

let jobs =
  let doc =
    "Worker domains for the experiment fan-out (default: $(b,CASH_JOBS) or \
     the recommended domain count). Output is byte-identical at any value."
  in
  Arg.(value & opt int (Parallel.default_jobs ()) &
       info [ "j"; "jobs" ] ~docv:"N" ~doc)

let engine =
  let doc =
    "CPU interpreter for every run: block or reference. Output is \
     byte-identical across engines."
  in
  Arg.(value & opt (enum Core.engines) (Core.default_engine ())
       & info [ "engine" ] ~docv:"ENGINE" ~doc)

let run selected requests jobs engine =
  (* Ambient (a process-wide atomic): set before the domain fan-out so
     every worker's [Core.run] calls pick it up. *)
  Core.set_default_engine engine;
  let to_run = if selected = [] then names else selected in
  let tasks =
    Array.of_list
      (List.map
         (fun name () -> (List.assoc name experiments) ~requests)
         to_run)
  in
  List.iter (List.iter Harness.Report.print)
    (Array.to_list (Parallel.run_jobs ~jobs tasks))

let cmd =
  let doc = "reproduce the tables and figures of the Cash paper (DSN 2005)" in
  Cmd.v (Cmd.info "experiments" ~doc)
    Term.(const run $ selected $ requests $ jobs $ engine)

let () = exit (Cmd.eval cmd)
