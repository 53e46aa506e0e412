(* Domain-based fan-out for independent simulator jobs.

   The pool is deliberately minimal: one atomic next-job index shared by
   all workers (Checkbochs-style "many independent guest instances", not
   a general task graph). Each simulated run costs milliseconds to
   seconds, so one fetch-and-add per job is noise, and handing out jobs
   one at a time load-balances experiments whose costs differ by an
   order of magnitude (table8 vs microcosts) better than static
   chunking would.

   Determinism contract: results are stored by job index and returned
   in job order; an exception re-raised on behalf of a failed job is
   the lowest-indexed one. Callers therefore see output byte-identical
   to a serial run no matter how the domains interleave. *)

let default_jobs () =
  match Sys.getenv_opt "CASH_JOBS" with
  | None -> Domain.recommended_domain_count ()
  | Some s ->
    (match int_of_string_opt (String.trim s) with
     | Some n when n >= 1 -> n
     | _ ->
       failwith
         (Printf.sprintf "CASH_JOBS must be a positive integer, got %S" s))

(* True while the current domain is executing jobs for an enclosing
   [run_jobs]: a nested call then runs serially instead of fanning out
   underneath every worker (the ablation grid is parallel in its own
   right AND runs as one job of the bench fan-out). Helpers keep it set
   for life. *)
let inside_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let as_worker f =
  let was_inside = Domain.DLS.get inside_worker in
  Domain.DLS.set inside_worker true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set inside_worker was_inside) f

(* Serial execution also sets the worker flag: a [~jobs:1] run means
   "this subtree is serial", so a nested [run_jobs] underneath it must
   not fan out either — otherwise [-j 1] would not actually be a serial
   run (and a traced jobs-on-one-domain pass could leak work onto
   untraced domains). *)
let run_serial tasks =
  as_worker (fun () -> Array.map (fun task -> task ()) tasks)

(* The crew: helper domains spawned on demand, never more than the
   largest [jobs - 1] any call has asked for, and parked on [wake]
   between calls. A call posts one round — its job loop plus how many
   helpers take part — and waits on [idle] until every participant has
   left the loop. Helpers outlive the call, so whatever a task leaves in
   a helper's domain-local storage (the server's warm machines) is
   still there for the next call — and a task that sets ambient
   domain-local state (a trace sink) must restore it before returning,
   or later tasks on that helper inherit it. [owner] admits one
   top-level call at a time; nested calls never reach it, because
   [inside_worker] makes them serial. *)
type crew = {
  owner : Mutex.t;
  lock : Mutex.t;  (* guards the mutable fields *)
  wake : Condition.t;
  idle : Condition.t;
  mutable size : int;  (* helpers spawned so far *)
  mutable round : int;  (* rounds posted so far *)
  mutable wanted : int;  (* helpers [0, wanted) take part in [round] *)
  mutable pending : int;  (* ... and have not finished it yet *)
  mutable work : unit -> unit;  (* [round]'s job loop *)
}

let crew =
  { owner = Mutex.create (); lock = Mutex.create ();
    wake = Condition.create (); idle = Condition.create (); size = 0;
    round = 0; wanted = 0; pending = 0; work = ignore }

let rec helper index seen =
  Mutex.lock crew.lock;
  while crew.round = seen || index >= crew.wanted do
    Condition.wait crew.wake crew.lock
  done;
  let round = crew.round and work = crew.work in
  Mutex.unlock crew.lock;
  (* The job loop captures every task's exception; anything else that
     escapes must still reach the barrier, or the caller waits forever. *)
  (try work () with _ -> ());
  Mutex.lock crew.lock;
  crew.pending <- crew.pending - 1;
  if crew.pending = 0 then Condition.signal crew.idle;
  Mutex.unlock crew.lock;
  helper index round

(* Run [work] on the calling domain and [helpers] crew members. *)
let run_round ~helpers work =
  Mutex.protect crew.owner (fun () ->
      while crew.size < helpers do
        let index = crew.size and seen = crew.round in
        let (_ : unit Domain.t) =
          Domain.spawn (fun () ->
              Domain.DLS.set inside_worker true;
              helper index seen)
        in
        crew.size <- crew.size + 1
      done;
      Mutex.protect crew.lock (fun () ->
          crew.work <- work;
          crew.wanted <- helpers;
          crew.pending <- helpers;
          crew.round <- crew.round + 1;
          Condition.broadcast crew.wake);
      Fun.protect
        ~finally:(fun () ->
          Mutex.protect crew.lock (fun () ->
              while crew.pending > 0 do
                Condition.wait crew.idle crew.lock
              done;
              (* Drop the finished round's tasks and results. *)
              crew.work <- ignore))
        (fun () -> as_worker work))

let run_jobs ?jobs (tasks : (unit -> 'a) array) : 'a array =
  let n = Array.length tasks in
  let jobs =
    max 1 (min n (match jobs with Some j -> j | None -> default_jobs ()))
  in
  if n = 0 || jobs = 1 || Domain.DLS.get inside_worker then run_serial tasks
  else begin
    (* One slot per job; every slot is written by exactly one worker, so
       the only cross-domain handoff is the round's barrier. *)
    let results :
        ('a, exn * Printexc.raw_backtrace) result option array =
      Array.make n None
    in
    let next = Atomic.make 0 in
    let rec work () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <-
          Some
            (match tasks.(i) () with
             | v -> Ok v
             | exception e -> Error (e, Printexc.get_raw_backtrace ()));
        work ()
      end
    in
    run_round ~helpers:(jobs - 1) work;
    Array.mapi
      (fun i -> function
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None ->
          (* Only if something escaped a helper's job loop after it
             claimed job [i]. *)
          failwith (Printf.sprintf "Parallel.run_jobs: job %d was lost" i))
      results
  end

let map ?jobs f xs =
  Array.to_list
    (run_jobs ?jobs (Array.of_list (List.map (fun x () -> f x) xs)))
