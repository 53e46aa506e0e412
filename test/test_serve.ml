(* lib/serve: the warm-machine request server and its determinism
   oracle.

   The heart of the server is [Core.restore_into]: re-parsing a snapshot
   image directly into a machine some previous request used, instead of
   building a fresh one. The oracle under test is byte-exact state
   equality — for every engine, restoring an image into a reused
   machine must produce the same [Core.state_digest] as a fresh
   [Core.restore] of the same image, no matter what the previous
   request left behind: a cleanly halted machine, one that faulted on a
   bound violation, or one parked mid-superblock. On top of that rides
   the server itself, which must reuse its machines and whose batched
   responses must be identical at any job count and to direct
   [Core.run]s. *)

let engines =
  [ ("block", Machine.Cpu.Block); ("reference", Machine.Cpu.Reference) ]

let matmul () = Core.compile Core.gcc (Workloads.Micro.matmul ~n:6 ())
let cash_matmul () = Core.compile Core.cash (Workloads.Micro.matmul ~n:6 ())

(* A program cash faults on: a loop overrun past a 2-element array. *)
let oob_src = "int a[2]; int main() { int i; for (i=0;i<9;i++) a[i]=i; return 0; }"
let cash_oob () = Core.compile Core.cash oob_src

(* Step a freshly started machine [n] instructions, then to the next
   superblock boundary (same helper as test_snapshot). *)
let warm_state ?engine compiled n =
  let state = Core.start ?engine compiled in
  let process = Core.state_process state in
  let cpu = Osim.Process.cpu process in
  let target = Machine.Cpu.insns_executed cpu + n in
  while
    (match Machine.Cpu.status cpu with
     | Machine.Cpu.Running -> true
     | _ -> false)
    && Machine.Cpu.insns_executed cpu < target
  do
    Machine.Cpu.step cpu
  done;
  ignore (Snapshot.align_to_block process);
  state

(* Step [n] instructions WITHOUT aligning, leaving the machine parked
   mid-superblock — the messiest reuse candidate. *)
let midblock_state ?engine compiled n =
  let state = Core.start ?engine compiled in
  let cpu = Osim.Process.cpu (Core.state_process state) in
  for _ = 1 to n do
    match Machine.Cpu.status cpu with
    | Machine.Cpu.Running -> Machine.Cpu.step cpu
    | _ -> ()
  done;
  state

(* --- the determinism oracle ---------------------------------------------- *)

(* Restore into a reused machine == fresh restore, byte for byte, on
   every engine, for every kind of leftover machine. *)
let test_restore_into_digest_oracle () =
  List.iter
    (fun (ename, engine) ->
      List.iter
        (fun compiled ->
          let image =
            Buffer.to_bytes (Core.save (warm_state ~engine compiled 500))
          in
          let fresh = Core.restore ~engine compiled image in
          let d_fresh = Core.state_digest fresh in
          let victims =
            [ ("halted", Core.state_of_run compiled (Core.run ~engine compiled));
              ("mid-block", midblock_state ~engine compiled 137);
              ("pristine", Core.start ~engine compiled) ]
          in
          List.iter
            (fun (vname, victim) ->
              let reused = Core.restore_into victim image in
              Alcotest.(check string)
                (Printf.sprintf "pooled = fresh digest (%s, %s)" ename vname)
                d_fresh (Core.state_digest reused))
            victims)
        [ matmul (); cash_matmul () ])
    engines

(* Reuse after a FAULTED run: the previous request died on a bound
   violation; the next restore into that machine must still be
   byte-identical to a fresh one, and finish identically. *)
let test_restore_into_after_fault () =
  let compiled = cash_oob () in
  List.iter
    (fun (ename, engine) ->
      let image =
        Buffer.to_bytes (Core.save (warm_state ~engine compiled 20))
      in
      let crashed = Core.run ~engine compiled in
      (match crashed.Core.status with
       | Core.Bound_violation _ -> ()
       | s ->
         Alcotest.failf "expected a bound violation, got %s (%s)"
           (match s with
            | Core.Finished -> "finished"
            | Core.Crashed m -> "crashed: " ^ m
            | Core.Bound_violation _ -> assert false)
           ename);
      let victim = Core.state_of_run compiled crashed in
      let reused = Core.restore_into victim image in
      let fresh = Core.restore ~engine compiled image in
      Alcotest.(check string)
        (Printf.sprintf "pooled = fresh digest after fault (%s)" ename)
        (Core.state_digest fresh) (Core.state_digest reused);
      let r1 = Core.finish reused and r2 = Core.run ~engine compiled in
      Alcotest.(check bool)
        (Printf.sprintf "replayed fault matches (%s)" ename)
        true
        (r1.Core.status = r2.Core.status && r1.Core.output = r2.Core.output
         && r1.Core.cycles = r2.Core.cycles))
    engines

(* Restoring an image into a machine built for a different program is
   a [Program_mismatch], not silent corruption. *)
let test_restore_into_rejects_wrong_program () =
  let a = matmul () and b = cash_matmul () in
  let image = Buffer.to_bytes (Core.save (Core.start a)) in
  let victim = Core.start b in
  match Core.restore_into victim image with
  | _ -> Alcotest.fail "expected Program_mismatch"
  | exception Snapshot.Error Snapshot.Program_mismatch -> ()

(* --- the server ----------------------------------------------------------- *)

let mini_warms () =
  List.map
    (fun (name, compiled) ->
      {
        Serve.Server.w_name = name;
        w_compiled = compiled;
        w_image = Buffer.to_bytes (Core.save (warm_state compiled 400));
      })
    [ ("m/gcc", matmul ()); ("m/cash", cash_matmul ()) ]

let tiny_src = "int main() { print_int(41 + 1); return 0; }"

let request_lines =
  [ {|{"op": "replay", "snapshot": "m/gcc"}|};
    {|{"op": "replay", "snapshot": "m/cash"}|};
    Printf.sprintf {|{"op": "compile-and-run", "backend": "gcc", "source": %S}|}
      tiny_src;
    {|{"op": "replay", "snapshot": "m/cash", "engine": "block"}|};
    {|{"op": "replay", "snapshot": "no-such-snapshot"}|};
    {|this is not json|};
    {|{"op": "compile-and-run", "backend": "cash", "source": "int nope("}|} ]

(* Everything observable about a response except its latency. *)
let strip (r : Serve.Protocol.response) =
  ( r.Serve.Protocol.rs_id, r.rs_ok, r.rs_status, r.rs_detail, r.rs_output,
    r.rs_cycles, r.rs_insns, r.rs_error )

(* Batched responses are byte-identical (modulo latency) at any job
   count and match direct Core runs. *)
let test_server_batch_matches_direct () =
  let warms = mini_warms () in
  let serve ~jobs =
    let server = Serve.Server.create ~jobs ~warms ~batch:4 () in
    let responses, summary = Serve.Server.run_lines server request_lines in
    Alcotest.(check int) "one response per request"
      (List.length request_lines) (List.length responses);
    Alcotest.(check int) "summary counts requests"
      (List.length request_lines) summary.Serve.Server.requests;
    Alcotest.(check int) "three request-level failures" 3
      summary.Serve.Server.errors;
    List.map strip responses
  in
  let j1 = serve ~jobs:1 in
  Alcotest.(check bool) "-j4 identical" true (j1 = serve ~jobs:4);
  (* spot-check against direct runs *)
  let w = List.hd warms in
  let direct =
    Core.finish (Core.restore w.Serve.Server.w_compiled w.Serve.Server.w_image)
  in
  (match j1 with
   | (id, ok, status, _, output, cycles, insns, err) :: _ ->
     Alcotest.(check int) "replay id defaults to position" 1 id;
     Alcotest.(check bool) "replay ok" true ok;
     Alcotest.(check string) "replay status" "finished" status;
     Alcotest.(check string) "replay output" direct.Core.output output;
     Alcotest.(check int) "replay cycles" direct.Core.cycles cycles;
     Alcotest.(check int) "replay insns" direct.Core.insns insns;
     Alcotest.(check bool) "no error" true (err = None)
   | [] -> Alcotest.fail "no responses");
  let direct_tiny = Core.exec Core.gcc tiny_src in
  (match List.nth j1 2 with
   | _, ok, status, _, output, _, _, _ ->
     Alcotest.(check bool) "compile-and-run ok" true ok;
     Alcotest.(check string) "compile-and-run status" "finished" status;
     Alcotest.(check string) "compile-and-run output" direct_tiny.Core.output
       output);
  List.iteri
    (fun i (_, ok, _, _, _, _, _, err) ->
      if i >= 4 then begin
        Alcotest.(check bool) (Printf.sprintf "request %d failed" (i + 1))
          false ok;
        Alcotest.(check bool) "carries an error" true (err <> None)
      end)
    j1

(* A worker keeps one machine per warm entry: after a warm-up replay,
   eight more replays of the same warm at -j1 match the direct run and
   together allocate less than building one machine does. That is
   measured by one [Core.start] on a fresh domain, whose free list of
   physical memory is empty, so the machine's whole footprint shows; a
   server that built a machine per request would allocate eight. *)
let test_server_reuses_machine () =
  let warms = mini_warms () in
  let w = List.hd warms in
  let direct =
    Core.finish (Core.restore w.Serve.Server.w_compiled w.Serve.Server.w_image)
  in
  let start_bytes =
    Domain.join
      (Domain.spawn (fun () ->
           let b0 = Gc.allocated_bytes () in
           let s = Core.start w.Serve.Server.w_compiled in
           let b1 = Gc.allocated_bytes () in
           ignore (Sys.opaque_identity s);
           b1 -. b0))
  in
  let line =
    Printf.sprintf {|{"op": "replay", "snapshot": %S}|} w.Serve.Server.w_name
  in
  let server = Serve.Server.create ~jobs:1 ~warms () in
  ignore (Serve.Server.run_lines server [ line ]);
  let b0 = Gc.allocated_bytes () in
  let responses, summary =
    Serve.Server.run_lines server (List.init 8 (fun _ -> line))
  in
  let replay_bytes = Gc.allocated_bytes () -. b0 in
  Alcotest.(check int) "no errors" 0 summary.Serve.Server.errors;
  List.iter
    (fun (r : Serve.Protocol.response) ->
      Alcotest.(check string) "replay output" direct.Core.output
        r.Serve.Protocol.rs_output;
      Alcotest.(check int) "replay cycles" direct.Core.cycles
        r.Serve.Protocol.rs_cycles)
    responses;
  if replay_bytes >= start_bytes then
    Alcotest.failf "8 replays allocated %.0f KB, one Core.start %.0f KB"
      (replay_bytes /. 1024.) (start_bytes /. 1024.)

(* The streaming entry point: same requests through channels, responses
   line-framed in order, summary line last. *)
let test_server_streams_channels () =
  let dir = Filename.get_temp_dir_name () in
  let req_path = Filename.concat dir
      (Printf.sprintf "cash_serve_req_%d.jsonl" (Unix.getpid ())) in
  let rsp_path = Filename.concat dir
      (Printf.sprintf "cash_serve_rsp_%d.jsonl" (Unix.getpid ())) in
  Core.write_file req_path (String.concat "\n" request_lines ^ "\n");
  let server = Serve.Server.create ~jobs:1 ~warms:(mini_warms ()) () in
  let ic = open_in req_path in
  let oc = open_out rsp_path in
  let summary =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic; close_out_noerr oc)
      (fun () -> Serve.Server.serve server ic oc)
  in
  Alcotest.(check int) "summary requests" (List.length request_lines)
    summary.Serve.Server.requests;
  let lines =
    String.split_on_char '\n' (String.trim (Core.read_file rsp_path))
  in
  Alcotest.(check int) "one line per response + summary"
    (List.length request_lines + 1) (List.length lines);
  List.iteri
    (fun i line ->
      let json = Trace.Json.parse line in
      if i < List.length request_lines then
        Alcotest.(check (option int)) "ids in request order" (Some (i + 1))
          (Option.bind (Trace.Json.member "id" json) Trace.Json.to_int_opt)
      else
        Alcotest.(check bool) "summary line last" true
          (Trace.Json.member "summary" json <> None))
    lines;
  Sys.remove req_path;
  Sys.remove rsp_path

(* The summary reports the process-wide program cache: a repeated
   compile-and-run source compiles once and hits thereafter, and the
   hit/miss pair rides at the END of the summary JSON (CI greps the
   leading fields by position). *)
let test_summary_compile_cache () =
  let src = "int main() { print_int(20260808); return 0; }" in
  let lines =
    List.init 4 (fun _ ->
        Printf.sprintf
          {|{"op": "compile-and-run", "backend": "cash", "source": %S}|} src)
  in
  let server = Serve.Server.create ~jobs:1 () in
  let _, s = Serve.Server.run_lines server lines in
  Alcotest.(check int) "no errors" 0 s.Serve.Server.errors;
  Alcotest.(check bool) "at most one miss" true
    (s.Serve.Server.compile_misses <= 1);
  Alcotest.(check bool) "the rest are hits" true
    (s.Serve.Server.compile_hits >= 3);
  let json = Trace.Json.to_string (Serve.Server.summary_to_json s) in
  let has needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "summary json carries compile_hits" true
    (has "\"compile_hits\"");
  Alcotest.(check bool) "…and compile_misses" true (has "\"compile_misses\"");
  Alcotest.(check bool) "grep-pinned prefix unchanged" true
    (has "\"summary\":true,\"requests\":")

(* A long-lived server fed a stream of distinct programs keeps a
   bounded amount of memory: its worker's warm table evicts the least
   recently used program, and the machine behind each start image is
   recycled at once. The bound is counted in machines, measured here by
   one [Core.start] on a fresh domain (whose free list of physical
   memory is empty, so the machine's whole footprint shows). *)
let test_server_state_bounded () =
  let src k = Printf.sprintf "int main() { print_int(%d); return 0; }" k in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let machine_words =
    let compiled = Core.compile Core.cash (src 0) in
    Domain.join
      (Domain.spawn (fun () ->
           let w0 = live () in
           let s = Core.start compiled in
           let w1 = live () in
           ignore (Sys.opaque_identity s);
           w1 - w0))
  in
  let lines =
    List.init 100 (fun k ->
        Printf.sprintf
          {|{"op": "compile-and-run", "backend": "cash", "source": %S}|}
          (src (7_100_000 + k)))
  in
  let server = Serve.Server.create ~jobs:1 ~warms:[] () in
  let w0 = live () in
  let responses, summary = Serve.Server.run_lines server lines in
  let growth = live () - w0 in
  Alcotest.(check int) "no errors" 0 summary.Serve.Server.errors;
  Alcotest.(check int) "every program compiled" 100
    summary.Serve.Server.compile_misses;
  Alcotest.(check string) "last output" "7100099\n"
    (List.nth responses 99).Serve.Protocol.rs_output;
  if growth >= 25 * machine_words then
    Alcotest.failf "live heap grew %d words over 100 programs, %.1f machines"
      growth
      (float_of_int growth /. float_of_int machine_words)

(* --- protocol ------------------------------------------------------------- *)

let test_protocol_round_trip () =
  let reqs =
    [ { Serve.Protocol.rq_id = 7; rq_engine = Some Machine.Cpu.Block;
        rq_spec = Serve.Protocol.Replay { snapshot = "a/b" } };
      { Serve.Protocol.rq_id = 8; rq_engine = None;
        rq_spec =
          Serve.Protocol.Compile_and_run
            { backend = Core.cash; source = "int main() { return 0; }" } } ]
  in
  List.iter
    (fun rq ->
      let line = Trace.Json.to_string (Serve.Protocol.request_to_json rq) in
      match Serve.Protocol.parse_request ~default_id:0 line with
      | Error e -> Alcotest.failf "round-trip failed: %s" e
      | Ok rq' ->
        Alcotest.(check int) "id" rq.Serve.Protocol.rq_id
          rq'.Serve.Protocol.rq_id;
        Alcotest.(check bool) "engine" true
          (rq.Serve.Protocol.rq_engine = rq'.Serve.Protocol.rq_engine);
        Alcotest.(check bool) "spec" true
          (match (rq.Serve.Protocol.rq_spec, rq'.Serve.Protocol.rq_spec) with
           | ( Serve.Protocol.Replay { snapshot = a },
               Serve.Protocol.Replay { snapshot = b } ) -> a = b
           | ( Serve.Protocol.Compile_and_run a,
               Serve.Protocol.Compile_and_run b ) ->
             a.source = b.source
             && Core.backend_name a.backend = Core.backend_name b.backend
           | _ -> false))
    reqs;
  (* malformed lines come back as Error, not exceptions *)
  List.iter
    (fun line ->
      match Serve.Protocol.parse_request ~default_id:3 line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" line)
    [ "nope"; "{}"; {|{"op": "replay"}|}; {|{"op": "warp"}|};
      {|{"op": "compile-and-run", "backend": "tcc", "source": "x"}|};
      {|{"op": "replay", "snapshot": "s", "engine": "warp"}|} ]

(* An engine name outside [Core.engines] is a request-level error; the
   rest of the batch is still served. *)
let test_unknown_engine_request () =
  let line engine =
    Printf.sprintf
      {|{"op": "compile-and-run", "backend": "gcc", "source": %S, "engine": %S}|}
      tiny_src engine
  in
  (match Serve.Protocol.parse_request ~default_id:1 (line "predecode") with
   | Error e ->
     Alcotest.(check string) "parse error" "unknown engine \"predecode\"" e
   | Ok _ -> Alcotest.fail "accepted engine \"predecode\"");
  let server = Serve.Server.create ~jobs:1 ~warms:[] () in
  let responses, summary =
    Serve.Server.run_lines server [ line "predecode"; line "block" ]
  in
  Alcotest.(check (list (option string))) "error, then ok"
    [ Some "unknown engine \"predecode\""; None ]
    (List.map (fun r -> r.Serve.Protocol.rs_error) responses);
  Alcotest.(check string) "the valid request ran" "42\n"
    (List.nth responses 1).Serve.Protocol.rs_output;
  Alcotest.(check int) "one error" 1 summary.Serve.Server.errors

let suite =
  [
    Alcotest.test_case "restore_into: pooled = fresh digest, all engines"
      `Slow test_restore_into_digest_oracle;
    Alcotest.test_case "restore_into: reuse after a faulted run" `Quick
      test_restore_into_after_fault;
    Alcotest.test_case "restore_into: rejects a different program" `Quick
      test_restore_into_rejects_wrong_program;
    Alcotest.test_case "pool: 8 requests build 1 machine" `Quick
      test_server_reuses_machine;
    Alcotest.test_case "server: batches match direct runs at -j1/-j4" `Slow
      test_server_batch_matches_direct;
    Alcotest.test_case "server: summary reports the compile cache" `Quick
      test_summary_compile_cache;
    Alcotest.test_case "server: streams channels with summary" `Quick
      test_server_streams_channels;
    Alcotest.test_case "server: retained state stays bounded" `Quick
      test_server_state_bounded;
    Alcotest.test_case "protocol: unknown engine is one request error" `Quick
      test_unknown_engine_request;
    Alcotest.test_case "protocol: round-trip and rejection" `Quick
      test_protocol_round_trip;
  ]
