(* cashd: the warm-machine request server.

     dune exec bin/cashd.exe                        # serve stdin -> stdout
     dune exec bin/cashd.exe -- -j 4 --batch 128
     dune exec bin/cashd.exe -- --socket /tmp/cashd.sock --max-conns 1
     dune exec bin/cashd.exe -- --gen-requests 200  # print a request mix
                                                      and exit (feed it back
                                                      through a second cashd)

   Requests are newline-framed JSON (see lib/serve/protocol.mli):

     {"op": "replay", "snapshot": "qpopper/cash3"}
     {"op": "compile-and-run", "backend": "cash", "source": "..."}

   One response line per request, in request order, then a summary line
   with latency percentiles and req/s. The replay targets are the
   twelve Table 8 app/backend pairs, warmed to their accept loop at
   startup (skip with --no-warm when serving only compile-and-run). *)

open Cmdliner

let engine =
  Arg.(value & opt (enum Core.engines) Machine.Cpu.default_engine &
       info [ "engine" ]
         ~doc:"Default CPU engine for requests that don't name one: \
               block or reference. Results are engine-independent.")

let jobs =
  Arg.(value & opt (some int) None &
       info [ "j"; "jobs" ] ~docv:"N"
         ~doc:"Worker domains (default: CASH_JOBS or the host's core \
               count).")

let batch =
  Arg.(value & opt int 256 &
       info [ "batch" ] ~docv:"N"
         ~doc:"Requests dispatched per parallel batch (responses are \
               flushed per batch). Worker domains and their warm \
               machines persist across batches.")

let no_warm =
  Arg.(value & flag &
       info [ "no-warm" ]
         ~doc:"Skip warming the Table 8 replay set at startup; replay \
               requests then fail with an unknown-snapshot error.")

let socket =
  Arg.(value & opt (some string) None &
       info [ "socket" ] ~docv:"PATH"
         ~doc:"Listen on a Unix-domain socket instead of serving \
               stdin/stdout. Each connection is an independent request \
               stream with its own summary line.")

let max_conns =
  Arg.(value & opt int 0 &
       info [ "max-conns" ] ~docv:"N"
         ~doc:"With --socket: exit after serving N connections \
               (0 = serve forever).")

let gen_requests =
  Arg.(value & opt (some int) None &
       info [ "gen-requests" ] ~docv:"N"
         ~doc:"Print N request lines of the Table 8 mix (3 replays : 1 \
               compile-and-run) to stdout and exit, without compiling \
               or warming anything.")

let serve_socket server path max_conns =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 8;
  Printf.eprintf "cashd: listening on %s\n%!" path;
  let served = ref 0 in
  (try
     while max_conns = 0 || !served < max_conns do
       let conn, _ = Unix.accept sock in
       let ic = Unix.in_channel_of_descr conn in
       let oc = Unix.out_channel_of_descr conn in
       let s =
         try Serve.Server.serve server ic oc
         with e ->
           Printf.eprintf "cashd: connection failed: %s\n%!"
             (Printexc.to_string e);
           { Serve.Server.requests = 0; errors = 0; wall_seconds = 0.;
             req_per_s = 0.; p50_us = 0.; p90_us = 0.; p99_us = 0.;
             compile_hits = 0; compile_misses = 0 }
       in
       (try close_out oc with Sys_error _ -> ());
       incr served;
       Printf.eprintf "cashd: connection %d done: %d request(s), %.1f req/s\n%!"
         !served s.Serve.Server.requests s.Serve.Server.req_per_s
     done
   with e ->
     Unix.close sock;
     raise e);
  Unix.close sock;
  (try Unix.unlink path with Unix.Unix_error _ -> ())

let run engine jobs batch no_warm socket max_conns gen_requests =
  match gen_requests with
  | Some n ->
    List.iter print_endline
      (Serve.Server.gen_mix ~names:(Serve.Server.table8_names ()) n);
    0
  | None ->
    Core.set_default_engine engine;
    let warms = if no_warm then [] else Serve.Server.table8_warms ?jobs () in
    let server = Serve.Server.create ?jobs ~batch ~engine ~warms () in
    (match socket with
     | Some path -> serve_socket server path max_conns
     | None ->
       let s = Serve.Server.serve server stdin stdout in
       Printf.eprintf "cashd: %d request(s), %d error(s), %.1f req/s, \
                       p50 %.1fus p90 %.1fus p99 %.1fus, \
                       compile cache %d hit(s) / %d miss(es)\n%!"
         s.Serve.Server.requests s.Serve.Server.errors
         s.Serve.Server.req_per_s s.Serve.Server.p50_us s.Serve.Server.p90_us
         s.Serve.Server.p99_us s.Serve.Server.compile_hits
         s.Serve.Server.compile_misses);
    0

let cmd =
  let doc = "warm-machine request server for the simulated segmented x86" in
  Cmd.v (Cmd.info "cashd" ~doc)
    Term.(const run $ engine $ jobs $ batch $ no_warm $ socket $ max_conns
          $ gen_requests)

let () = exit (Cmd.eval' cmd)
