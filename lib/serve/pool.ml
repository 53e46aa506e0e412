(* A pool of warm machines for one (compiled program, engine) pair.

   Machines are expensive to build ([Osim.Process.load] maps megabytes
   of physical memory and page tables) and cheap to reuse
   ([Core.restore_into] overwrites the same arrays in place, and the
   compiled superblock closures survive because they are keyed by the
   unchanged program). The pool amortises the build: [acquire] hands
   out an idle machine, building one only while the pool is below
   capacity; [release] returns it for the next request.

   The policy decides what happens when every machine is busy and the
   pool is at capacity: [Grow] builds past capacity (latency over
   memory), [Block] waits for a release (memory over latency). The
   server uses one pool per worker domain, so its pools never contend;
   the mutex/condition pair is for callers that do share a pool across
   domains — the pool-smaller-than-load tests, or an async front end.

   A machine that fails mid-restore is half-scrubbed
   ([Snapshot.restore_into]'s contract), so [with_machine] discards it
   on any exception instead of returning it to the free list; a blocked
   waiter is woken to build a replacement. *)

type policy = Grow | Block

type t = {
  compiled : Core.compiled;
  engine : Machine.Cpu.engine;
  capacity : int;
  policy : policy;
  mutex : Mutex.t;
  nonempty : Condition.t;
  mutable free : Core.state list;
  mutable built : int;  (* machines ever constructed *)
  mutable busy : int;
}

let create ?(capacity = 1) ?(policy = Grow) ?engine compiled =
  if capacity < 1 then invalid_arg "Pool.create: capacity < 1";
  let engine =
    match engine with Some e -> e | None -> Core.default_engine ()
  in
  {
    compiled;
    engine;
    capacity;
    policy;
    mutex = Mutex.create ();
    nonempty = Condition.create ();
    free = [];
    built = 0;
    busy = 0;
  }

let acquire t =
  Mutex.lock t.mutex;
  let rec take () =
    match t.free with
    | s :: rest ->
      t.free <- rest;
      s
    | [] ->
      if t.policy = Grow || t.built < t.capacity then begin
        t.built <- t.built + 1;
        Core.start ~engine:t.engine t.compiled
      end
      else begin
        Condition.wait t.nonempty t.mutex;
        take ()
      end
  in
  let s = take () in
  t.busy <- t.busy + 1;
  Mutex.unlock t.mutex;
  s

let release t s =
  Mutex.lock t.mutex;
  t.free <- s :: t.free;
  t.busy <- t.busy - 1;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

(* Drop a machine (after a failed restore) instead of pooling it. The
   build count shrinks so a [Block]-policy waiter may construct a
   replacement. *)
let discard t _s =
  Mutex.lock t.mutex;
  t.built <- t.built - 1;
  t.busy <- t.busy - 1;
  Condition.signal t.nonempty;
  Mutex.unlock t.mutex

(* Hand every idle machine back to the caller, which now owns it (the
   server returns their memory when it evicts the pool). *)
let drain t =
  Mutex.lock t.mutex;
  let free = t.free in
  t.free <- [];
  t.built <- t.built - List.length free;
  Mutex.unlock t.mutex;
  free

let with_machine t f =
  let s = acquire t in
  match f s with
  | v ->
    release t s;
    v
  | exception e ->
    discard t s;
    raise e

let built t =
  Mutex.lock t.mutex;
  let n = t.built in
  Mutex.unlock t.mutex;
  n

let idle t =
  Mutex.lock t.mutex;
  let n = List.length t.free in
  Mutex.unlock t.mutex;
  n
