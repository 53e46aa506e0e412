(* The canonical experiment list — every table and figure of the paper —
   and the parallel driver that regenerates them.

   One list shared by bench/main.exe (the reproduction CLI, which
   selects from it by name), the benchmark's [repro] workload and the
   serial-vs-parallel oracle tests, so "the full reproduction" means
   the same experiments in each. bench adds one entry of its own,
   [ablation-dynamics], kept out of this list because perfbench
   digests every entry here against its own golden file. Each
   experiment builds its own kernel, machine, and MMU, making the jobs
   independent and deterministic; [run_all] fans them out over
   [Parallel.run_jobs] and returns the reports in list order, so the
   printed output is byte-identical to a serial run at any [-j].

   Table 8 is special-cased: its serial closure reruns every server once
   per request, which made it the monolithic job that bounded the whole
   suite's wall-clock. [run_all] instead fans it out through the
   lib/snapshot warm-start split — the 12 (app, backend) warm jobs join
   the first round alongside the other experiments, every per-request
   job runs in a second round, and the table is assembled serially from
   the per-job cycle counts ([Table8.assemble]), byte-identical to the
   serial closure at any [-j]. *)

let default_table8_requests = 25

type experiment = {
  name : string;
  run : unit -> Report.t;
      (* self-contained serial closure: what [run_all] executes for
         experiments that do not split *)
  split_requests : int option;
      (* [Some r]: [run_all] replaces the serial closure by the
         warm-started per-request split at [r] requests *)
}

let simple name run = { name; run; split_requests = None }

let all ?(table8_requests = default_table8_requests) () : experiment list =
  [
    simple "table1" Table1.run;
    simple "table2" Table2.run;
    simple "table3" Table3.run;
    simple "table4" Table4.run;
    simple "table5" Table5.run;
    simple "table6" Table6.run;
    simple "table7" Table7.run;
    {
      name = "table8";
      run = (fun () -> Table8.run ~requests:table8_requests ());
      split_requests = Some table8_requests;
    };
    simple "figure2" Figure2.run;
    simple "microcosts" Microcosts.run;
    simple "ablation" Ablation.run;
    simple "ablation-security" Ablation.security_only;
    simple "ablation-bound" Ablation.bound_instruction;
    simple "ablation-efence" Ablation.efence;
  ]

(* Wall-clock spent inside one parallel job, measured by the job itself.
   [run_all_timed] returns one entry per job in merge order — the
   "table8:request:*" entries are what the split buys: the largest of
   them replaces the monolithic table8 job as the suite's critical
   path. *)
type timing = { job : string; seconds : float }

(* What a first-round job produces: a finished report, or a warmed
   server the second round will fan requests out of. *)
type round_a =
  | A_report of Report.t
  | A_warm of Table8.warm

(* Regenerate every experiment across [jobs] domains; returns the
   reports in experiment order plus per-job wall-clock timings.

   Two rounds of top-level fan-out (a nested [Parallel.run_jobs] inside
   a worker would run serially): round A runs every non-split experiment
   and the split experiments' warm jobs; round B runs the per-request
   warm-started jobs. Split reports are assembled serially afterwards
   and spliced at their experiment's position.

   With [?trace_into], every job runs under its own ambient
   [Trace.sink] (the ambient sink is domain-local, and a sink must not
   be shared across running domains); after the barriers the per-job
   sinks are merged into [trace_into] in job order — round A then
   round B — so counters, histograms, and attribution sum exactly and
   the aggregate is deterministic at any [-j]. Only against a run
   traced through one sink for the whole pass does the event-ring
   interleaving (and the reload-interval samples that straddle job
   boundaries) differ. *)
let run_all_timed ?jobs ?trace_into (experiments : experiment list) :
    Report.t list * timing list =
  let traced = trace_into <> None in
  (* Wrap a job body: own sink (when tracing) + self-measured wall
     clock. *)
  let wrap label body () =
    let t0 = Unix.gettimeofday () in
    let sink = if traced then Some (Trace.create ()) else None in
    (match sink with Some _ as s -> Core.set_default_trace s | None -> ());
    Fun.protect
      ~finally:(fun () -> if traced then Core.set_default_trace None)
      (fun () ->
        let v = body () in
        (v, sink, { job = label; seconds = Unix.gettimeofday () -. t0 }))
  in
  (* Round A: non-split experiments keep their (experiment-index) slot;
     warm jobs are keyed by (experiment index, pair index). *)
  let ra_specs =
    List.concat
      (List.mapi
         (fun ei (ex : experiment) ->
           match ex.split_requests with
           | None ->
             [ ((ei, -1), wrap ex.name (fun () -> A_report (ex.run ()))) ]
           | Some _ ->
             List.mapi
               (fun pi ((_, _, label) as pair) ->
                 ( (ei, pi),
                   wrap
                     (Printf.sprintf "%s:warm:%s" ex.name label)
                     (fun () -> A_warm (Table8.warm pair)) ))
               (Table8.split_pairs ()))
         experiments)
  in
  let ra_results =
    Parallel.run_jobs ?jobs (Array.of_list (List.map snd ra_specs))
  in
  let ra =
    List.combine (List.map fst ra_specs) (Array.to_list ra_results)
  in
  let warm_of ei pi =
    match List.assoc (ei, pi) ra with
    | A_warm w, _, _ -> w
    | A_report _, _, _ | (exception Not_found) ->
      invalid_arg "Suite.run_all: warm job missing"
  in
  (* Round B: every request of every split experiment, in experiment /
     pair / request order. *)
  let rb_specs =
    List.concat
      (List.mapi
         (fun ei (ex : experiment) ->
           match ex.split_requests with
           | None -> []
           | Some requests ->
             List.concat
               (List.mapi
                  (fun pi (_ : Workloads.Netapps.app * Core.backend * string)
                  ->
                    let w = warm_of ei pi in
                    List.init requests (fun i ->
                        wrap
                          (Printf.sprintf "%s:request:%s#%d" ex.name
                             w.Table8.w_label i)
                          (fun () -> Table8.request w i)))
                  (Table8.split_pairs ())))
         experiments)
  in
  let rb_results = Parallel.run_jobs ?jobs (Array.of_list rb_specs) in
  (* Merge sinks in job order: round A, then round B. *)
  (match trace_into with
   | None -> ()
   | Some aggregate ->
     Array.iter
       (fun (_, sink, _) ->
         Option.iter (fun s -> Trace.merge_into ~into:aggregate s) sink)
       ra_results;
     Array.iter
       (fun (_, sink, _) ->
         Option.iter (fun s -> Trace.merge_into ~into:aggregate s) sink)
       rb_results);
  (* Assemble: walk experiments, consuming round-B request runs for the
     split ones. *)
  let rb_queue = ref (Array.to_list rb_results) in
  let take n =
    let rec go n acc =
      if n = 0 then List.rev acc
      else
        match !rb_queue with
        | [] -> invalid_arg "Suite.run_all: request job missing"
        | (r, _, _) :: rest ->
          rb_queue := rest;
          go (n - 1) (r :: acc)
    in
    go n []
  in
  let reports =
    List.mapi
      (fun ei (ex : experiment) ->
        match ex.split_requests with
        | None -> (
          match List.assoc (ei, -1) ra with
          | A_report rep, _, _ -> rep
          | A_warm _, _, _ -> invalid_arg "Suite.run_all: report missing")
        | Some requests ->
          let pairs = Table8.split_pairs () in
          let warms = List.mapi (fun pi _ -> warm_of ei pi) pairs in
          let runs = List.map (fun _ -> take requests) pairs in
          Table8.assemble ~warms ~runs)
      experiments
  in
  let timings =
    List.map (fun (_, _, t) -> t) (Array.to_list ra_results)
    @ List.map (fun (_, _, t) -> t) (Array.to_list rb_results)
  in
  (reports, timings)

let run_all ?jobs ?trace_into experiments =
  fst (run_all_timed ?jobs ?trace_into experiments)
