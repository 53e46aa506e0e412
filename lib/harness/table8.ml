(* Table 8: latency penalty, throughput penalty, and space overhead of the
   network applications (§4.4).

   The paper's setup: clients send 2000 requests; the server forks one
   child per request; latency is average child CPU time, throughput is
   2000 / (first fork .. last exit). We run [requests] simulated children
   per compiler on a shared kernel clock with the scheduler's fork
   overhead, which reproduces the paper's observation that latency and
   throughput penalties track each other.

   Space overhead is the program image (text + initialised data),
   mirroring the statically-linked binary sizes the paper reports. *)

let serve backend source ~requests =
  let kernel = Osim.Kernel.create () in
  let compiled = Core.compile backend source in
  let reference = ref None in
  let records =
    Osim.Scheduler.serve ~kernel ~requests ?trace:(Core.current_trace ())
      (fun _ ->
        let run = Core.run ~kernel compiled in
        (match run.Core.status with
         | Core.Finished -> ()
         | _ -> raise (Runner.Disagreement "request handler did not finish"));
        (match !reference with
         | None -> reference := Some run.Core.output
         | Some r ->
           if r <> run.Core.output then
             raise (Runner.Disagreement "nondeterministic handler output"));
        run.Core.process)
  in
  ( Osim.Scheduler.latency records,
    Osim.Scheduler.throughput records,
    Core.static_info compiled )

(* One row: an app's gcc and cash serve metrics, rendered. Shared by the
   serial path and the warm-started split so both produce identical
   bytes. *)
let row (a : Workloads.Netapps.app) (glat, gthr, ginfo) (clat, cthr, cinfo) =
  let latency_pen = 100.0 *. (clat /. glat -. 1.0) in
  let throughput_pen = 100.0 *. (1.0 -. (cthr /. gthr)) in
  let space =
    Report.overhead ~base:ginfo.Core.image_bytes cinfo.Core.image_bytes
  in
  [
    a.Workloads.Netapps.name;
    Report.pct latency_pen;
    Report.pct throughput_pen;
    Report.pct space;
    Printf.sprintf "%.1f/%.1f/%.1f%%" a.Workloads.Netapps.paper_latency_pct
      a.Workloads.Netapps.paper_throughput_pct
      a.Workloads.Netapps.paper_space_pct;
  ]

let make_report rows =
  Report.make ~title:"Table 8: network applications under Cash"
    ~headers:
      [ "Program"; "Latency"; "Throughput"; "Space"; "paper (lat/thr/space)" ]
    ~rows
    ~notes:
      [
        "latency and throughput penalties track each other, as in the \
         paper (single-CPU server, §4.4).";
      ]
    ()

let run ~requests () =
  let rows =
    List.map
      (fun (a : Workloads.Netapps.app) ->
        let src = a.Workloads.Netapps.source in
        let g = serve Core.gcc src ~requests in
        let c = serve Core.cash src ~requests in
        row a g c)
      (Workloads.Netapps.table8_suite ())
  in
  make_report rows

(* --- warm-started per-request split -------------------------------------

   The serial [serve] re-runs the whole server program once per request:
   every request is a fresh fork of an identical, deterministic child,
   so each one repeats the same init work before handling its request.
   The split runs each server ONCE to its accept-loop boundary (the
   [server_ready] marker), snapshots it there, and warm-starts every
   request as its own job from that image. The restored CPU carries the
   init-portion cycle count, so a resumed request reports exactly the
   serial per-request cycles, and the scheduler's clock is replayed over
   the per-job counts — the assembled table is byte-identical to the
   serial one at any job count, while the largest single job shrinks
   from requests x whole-program to one post-init request. *)

type warm = {
  w_label : string;              (* "qpopper/gcc" *)
  w_compiled : Core.compiled;
  w_image : bytes option;
      (* [None]: the server never reached the marker (e.g. a workload
         without a [server_ready] call); its requests cold-start, which
         costs the init replay but stays byte-identical. *)
}

(* The 12 (app, backend) pairs, app-major, gcc before cash — the order
   [run] serves them. *)
let split_pairs () =
  List.concat_map
    (fun (a : Workloads.Netapps.app) ->
      List.map
        (fun backend ->
          ( a,
            backend,
            Printf.sprintf "%s/%s" a.Workloads.Netapps.name
              (Core.backend_name backend) ))
        [ Core.gcc; Core.cash ])
    (Workloads.Netapps.table8_suite ())

(* Warm one server: compile, run to the accept loop, snapshot. *)
let warm (a, backend, label) =
  let compiled = Core.compile backend a.Workloads.Netapps.source in
  let state = Core.start compiled in
  let image =
    if Snapshot.run_to_marker (Core.state_process state) then
      Some (Buffer.to_bytes (Core.save state))
    else None
  in
  { w_label = label; w_compiled = compiled; w_image = image }

(* What the table needs from one served request. Deliberately NOT the
   full [Core.run]: a run pins its whole simulated machine (physical
   memory, page tables — megabytes), and the split holds every
   request's result until [assemble]. Keeping runs alive put >1 GB on
   the major heap at 12 pairs x 50 requests and made the split slower
   than the monolith it replaces; the slim record lets each machine die
   with its job. *)
type served = {
  s_output : string;  (* determinism check across a pair's requests *)
  s_cycles : int;     (* scheduler clock replay in [pair_metrics] *)
}

(* Serve request [i] from a warmed server: restore the post-init image
   and run it to completion. Emits the scheduler's Context_switch (with
   the pid the serial serve would have assigned) into the job's ambient
   sink, mirroring [Osim.Scheduler.serve]. *)
let request w i =
  let run =
    match w.w_image with
    | Some image -> Core.finish (Core.restore w.w_compiled image)
    | None -> Core.run w.w_compiled
  in
  (match run.Core.status with
   | Core.Finished -> ()
   | _ -> raise (Runner.Disagreement "request handler did not finish"));
  (match Core.current_trace () with
   | None -> ()
   | Some s -> Trace.emit s (Trace.Context_switch { pid = i + 1 }));
  { s_output = run.Core.output; s_cycles = run.Core.cycles }

(* Replay the scheduler's clock over per-request cycle counts and fold
   the result into the same metrics [serve] computes. *)
let pair_metrics w (runs : served list) =
  (match runs with
   | [] -> ()
   | first :: rest ->
     List.iter
       (fun r ->
         if r.s_output <> first.s_output then
           raise (Runner.Disagreement "nondeterministic handler output"))
       rest);
  let clock = ref 0 in
  let records =
    List.mapi
      (fun i r ->
        clock := !clock + Osim.Scheduler.default_fork_overhead;
        let created_at = !clock in
        clock := !clock + r.s_cycles;
        { Osim.Scheduler.pid = i + 1; created_at; terminated_at = !clock })
      runs
  in
  ( Osim.Scheduler.latency records,
    Osim.Scheduler.throughput records,
    Core.static_info w.w_compiled )

(* Assemble the table from warmed servers (in [split_pairs] order) and
   their per-request runs. *)
let assemble ~(warms : warm list) ~(runs : served list list) =
  let apps = Workloads.Netapps.table8_suite () in
  let rec rows warms runs apps =
    match (warms, runs, apps) with
    | wg :: wc :: warms', rg :: rc :: runs', a :: apps' ->
      row a (pair_metrics wg rg) (pair_metrics wc rc) :: rows warms' runs' apps'
    | [], [], [] -> []
    | _ -> invalid_arg "Table8.assemble: warms/runs out of step"
  in
  make_report (rows warms runs apps)
