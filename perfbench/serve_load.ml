(* serve: a closed loop in which one in-process client keeps 32 request
   lines in flight as one Server.run_batch call, against a pooled server
   with 2 workers and the Table 8 warm set. Three replays to one
   compile-and-run; half the compile-and-runs come from a small hot set
   of (micro kernel, backend) pairs, the other half are fresh Fuzz.Gen
   programs. Replay targets and hot-set picks are drawn from the seed.
   Many short runs: restore_into, the protocol, the compile cache and
   batch dispatch dominate.

   Every request line of a batch is timed from batch submission to
   batch return. Correctness: each response's status, output and cycles
   against an independent Reference-engine run of the same request,
   computed after the measured passes. *)

let workers = 2
let in_flight = 32
let batches_per_pass = 8

(* The hot set: small micro kernels, each pinned to one backend. *)
let hot_set =
  lazy
    [ (Workloads.Micro.matmul ~n:4 (), Core.gcc);
      (Workloads.Micro.gaussian ~n:6 (), Core.mpx);
      (Workloads.Micro.edge_detect ~width:8 ~height:6 (), Core.cap);
      (Workloads.Micro.matmul ~n:4 (), Core.cash_n 2) ]

(* Request [k] of a run seeded [seed]; a pure function of both. Fresh
   programs cycle over every backend the protocol accepts. The [j]th
   fresh program is the same generated program in every run, tagged
   with the run's seed: the tag makes its source new to the compile
   cache, while its work stays fixed. A few hundred generated programs
   per run vary too much in cost for runs of different seeds to agree
   otherwise. *)
let request ~seed ~names k =
  let rng = Random.State.make [| seed; k |] in
  let spec =
    if k mod 4 <> 3 then
      Serve.Protocol.Replay
        { snapshot = names.(Random.State.int rng (Array.length names)) }
    else
      let j = k / 4 in
      if j mod 2 = 0 then
        let hot = Lazy.force hot_set in
        let source, backend =
          List.nth hot (Random.State.int rng (List.length hot))
        in
        Serve.Protocol.Compile_and_run { backend; source }
      else
        let backends = Serve.Protocol.backends in
        let _, backend = List.nth backends (j / 2 mod List.length backends) in
        let source =
          Printf.sprintf "// run %d\n%s" seed
            (Fuzz.Gen.render (Fuzz.Gen.generate ~seed:j ~oob:false))
        in
        Serve.Protocol.Compile_and_run { backend; source }
  in
  { Serve.Protocol.rq_id = k + 1; rq_engine = None; rq_spec = spec }

let line rq = Trace.Json.to_string (Serve.Protocol.request_to_json rq)

type state = {
  warms : Serve.Server.warm list;
  names : string array;
  server : Serve.Server.t;
}

(* The warm set is built at one job, so set-up runs on one domain and
   its time can be corrected like the other workloads' (see Host). *)
let setup () =
  let warms = Serve.Server.table8_warms ~jobs:1 () in
  { warms;
    names = Array.of_list (List.map (fun w -> w.Serve.Server.w_name) warms);
    server = Serve.Server.create ~jobs:workers ~batch:in_flight ~warms () }

(* One pass of [batches_per_pass] batches. Returns the pass and every
   (request, response, client latency in us) of it, in order. *)
let pass ?(span = false) st ~seed p =
  let c0 = Common.counters () in
  (* The client runs each pass on a domain of its own. The server keeps
     its machine pools in the storage of the domain that calls it, one
     pool per compiled program, and never evicts them; a client domain
     that outlived the pass would keep one machine per program it ever
     compiled, gigabytes in a ten-second run. *)
  let client () =
    List.init batches_per_pass (fun b ->
        let k0 = ((p * batches_per_pass) + b) * in_flight in
        let rqs = List.init in_flight (fun i -> request ~seed ~names:st.names (k0 + i)) in
        let lines = List.map line rqs in
        let call () = Serve.Server.run_batch st.server ~default_id:(k0 + 1) lines in
        let rss, dt =
          Common.time (fun () ->
              if span then Spans.record ~item:k0 "serve.batch" call else call ())
        in
        (List.combine rqs rss, dt))
  in
  let batches = Domain.join (Domain.spawn client) in
  let insns = (Common.counters ()).Common.retired - c0.Common.retired in
  let served =
    List.concat_map
      (fun (pairs, dt) -> List.map (fun (rq, rs) -> (rq, rs, dt *. 1e6)) pairs)
      batches
  in
  let times = List.map snd batches in
  let n = List.length served in
  ( { Common.wall = List.fold_left ( +. ) 0. times; insns; items = n;
      lats_ms = List.map (fun (_, _, us) -> us /. 1e3) served;
      attempted = n; failed = 0 },
    served )

(* The independent check: each distinct request run once more on the
   Reference engine, without pools or the compile cache. *)
let reference_of st =
  let memo = Hashtbl.create 64 in
  fun (rq : Serve.Protocol.request) ->
    let key, run =
      match rq.Serve.Protocol.rq_spec with
      | Serve.Protocol.Replay { snapshot } ->
        ( "replay:" ^ snapshot,
          fun () ->
            let w = List.find (fun w -> w.Serve.Server.w_name = snapshot) st.warms in
            Core.finish
              (Core.restore ~engine:Machine.Cpu.Reference w.Serve.Server.w_compiled
                 w.Serve.Server.w_image) )
      | Serve.Protocol.Compile_and_run { backend; source } ->
        ( Core.backend_name backend ^ ":" ^ Digest.string source,
          fun () ->
            Core.run ~engine:Machine.Cpu.Reference (Core.compile backend source) )
    in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
      let r = Serve.Protocol.of_run ~id:0 ~latency_us:0. (run ()) in
      Hashtbl.add memo key r;
      r

let same (a : Serve.Protocol.response) (b : Serve.Protocol.response) =
  a.Serve.Protocol.rs_ok && b.Serve.Protocol.rs_ok
  && a.Serve.Protocol.rs_status = b.Serve.Protocol.rs_status
  && a.Serve.Protocol.rs_detail = b.Serve.Protocol.rs_detail
  && a.Serve.Protocol.rs_output = b.Serve.Protocol.rs_output
  && a.Serve.Protocol.rs_cycles = b.Serve.Protocol.rs_cycles

let check st served =
  let reference = reference_of st in
  List.fold_left
    (fun failed ((rq : Serve.Protocol.request), rs, _) ->
      if same rs (reference rq) then failed
      else begin
        Printf.printf "serve: request %d: response differs from the reference%s\n"
          rq.Serve.Protocol.rq_id
          (match rs.Serve.Protocol.rs_error with Some e -> ": " ^ e | None -> "");
        failed + 1
      end)
    0 served

let run_untraced ~seed ~seconds =
  let st, setup_s = Common.setup setup in
  let served = ref [] in
  let passes =
    Common.passes ~seconds ~min_passes:3 (fun p ->
        let pass, s = pass st ~seed p in
        served := s :: !served;
        pass)
  in
  let metrics = Common.end_to_end ~setup_s passes in
  let served = List.concat (List.rev !served) in
  (List.length served, check st served, metrics)

(* The served requests replayed on this domain through the serving
   layers: parse, compile (the first time a program is seen, as a
   compile-cache miss would), machine creation and image save, restore
   into the program's reused machine, execute, encode. *)
let replay st lines ~trace =
  let machines = Hashtbl.create 64 in
  let machine ~item key compile image =
    match Hashtbl.find_opt machines key with
    | Some m -> m
    | None ->
      let compiled = compile () in
      let state =
        Spans.record ~item "osim.load" (fun () -> Core.start ?trace compiled)
      in
      let image =
        match image with
        | Some image -> image
        | None ->
          Spans.record ~item "snapshot.save" (fun () ->
              Buffer.to_bytes (Core.save state))
      in
      Hashtbl.add machines key (state, image);
      (state, image)
  in
  List.mapi
    (fun item line ->
      let rq =
        match
          Spans.record ~item "serve.parse" (fun () ->
              Serve.Protocol.parse_request ~default_id:(item + 1) line)
        with
        | Ok rq -> rq
        | Error msg -> failwith ("serve replay: " ^ msg)
      in
      let state, image =
        match rq.Serve.Protocol.rq_spec with
        | Serve.Protocol.Replay { snapshot } ->
          let w = List.find (fun w -> w.Serve.Server.w_name = snapshot) st.warms in
          machine ~item ("replay:" ^ snapshot)
            (fun () -> w.Serve.Server.w_compiled)
            (Some w.Serve.Server.w_image)
        | Serve.Protocol.Compile_and_run { backend; source } ->
          machine ~item
            (Core.backend_name backend ^ ":" ^ Digest.string source)
            (fun () -> Layers.compile ~item backend source)
            None
      in
      let state =
        Spans.record ~item "snapshot.restore_into" (fun () ->
            Core.restore_into ?trace state image)
      in
      let run = Spans.record ~item "machine.exec" (fun () -> Core.finish state) in
      Spans.record ~item "serve.encode" (fun () ->
          let rs = Serve.Protocol.of_run ~id:rq.Serve.Protocol.rq_id ~latency_us:0. run in
          ignore (Trace.Json.to_string (Serve.Protocol.response_to_json rs)));
      Common.outcome run)
    lines

let run_traced ~seed =
  let st, _ = Common.setup ~reps:1 setup in
  Gc.full_major ();
  let c0 = Common.counters () in
  let u, u_served = pass st ~seed 0 in
  let c1 = Common.counters () in
  Gc.full_major ();
  Spans.enabled := true;
  let (t, t_served), t_wall = Common.time (fun () -> pass ~span:true st ~seed 0) in
  let summary served =
    String.concat ";"
      (List.map
         (fun (_, (rs : Serve.Protocol.response), _) ->
           Printf.sprintf "%s/%d/%s" rs.Serve.Protocol.rs_status
             rs.Serve.Protocol.rs_cycles
             (Digest.to_hex (Digest.string rs.Serve.Protocol.rs_output)))
         served)
  in
  Common.guard "responses" (summary u_served) (summary t_served);
  Common.guard_int "machine.insns" u.Common.insns t.Common.insns;
  let lines = List.map (fun (rq, _, _) -> line rq) u_served in
  let runs, r_wall, replay_metrics =
    Layers.replay_pair (replay st lines)
  in
  Spans.enabled := false;
  Common.guard "replayed responses"
    (String.concat ";"
       (List.map
          (fun (_, (rs : Serve.Protocol.response), _) ->
            string_of_int rs.Serve.Protocol.rs_cycles)
          u_served))
    (String.concat ";" (List.map (fun o -> string_of_int o.Common.cycles) runs));
  let failed = check st u_served in
  (* Service time is what the server measured; wait is the rest of the
     client's latency. *)
  let service = List.map (fun (_, (rs : Serve.Protocol.response), _) -> rs.Serve.Protocol.rs_latency_us) u_served in
  let wait =
    List.map
      (fun (_, (rs : Serve.Protocol.response), client_us) ->
        client_us -. rs.Serve.Protocol.rs_latency_us)
      u_served
  in
  let service_of pred =
    List.filter_map
      (fun ((rq : Serve.Protocol.request), (rs : Serve.Protocol.response), _) ->
        if pred rq.Serve.Protocol.rq_spec then Some rs.Serve.Protocol.rs_latency_us
        else None)
      u_served
  in
  let is_replay = function Serve.Protocol.Replay _ -> true | _ -> false in
  let image_bytes =
    Common.ratio
      (float_of_int
         (Common.sum (fun w -> Bytes.length w.Serve.Server.w_image) st.warms))
      (float_of_int (List.length st.warms))
  in
  let metrics =
    Common.counter_metrics ~wall:u.Common.wall c0 c1
    @ Common.span_metrics ~traced_wall:(t_wall +. r_wall)
    @ replay_metrics
    @ Common.cashrt_metrics runs
    @ [ ("snapshot.restore_into.us", Spans.mean_us "snapshot.restore_into");
        ("snapshot.image_bytes", image_bytes);
        ("serve.parse.us", Spans.mean_us "serve.parse");
        ("serve.encode.us", Spans.mean_us "serve.encode");
        ("serve.service.us_p50", Common.percentile 50. service);
        ("serve.service.us_p99", Common.percentile 99. service);
        ("serve.wait.us_p50", Common.percentile 50. wait);
        ("serve.wait.us_p99", Common.percentile 99. wait);
        ("serve.replay.us_p50", Common.percentile 50. (service_of is_replay));
        ("serve.compile_run.us_p50",
         Common.percentile 50. (service_of (fun s -> not (is_replay s))));
        ("parallel.busy_share",
         Common.ratio
           (Common.fsum (fun us -> us /. 1e6) service)
           (float_of_int workers *. u.Common.wall));
        ("trace.overhead_ratio", Common.ratio t_wall u.Common.wall) ]
  in
  (u.Common.attempted, failed, metrics)
