(** A pool of warm machines for one (compiled program, engine) pair.

    Building a simulated machine allocates megabytes; restoring into a
    reused one ({!Core.restore_into}) overwrites the same arrays in
    place and keeps its compiled superblock closures. The pool hands
    out idle machines and builds new ones only while below [capacity];
    past capacity the [policy] decides: [Grow] builds anyway, [Block]
    waits for a {!release}. Thread-safe — safe to share across domains,
    though the server keeps one pool per worker so its pools never
    contend. *)

type policy = Grow | Block

type t

(** [create compiled] — an empty pool of machines for [compiled] under
    [engine] (default: the ambient {!Core.default_engine}). [capacity]
    (default 1) bounds how many machines the pool builds before the
    [policy] (default [Grow]) applies.
    @raise Invalid_argument when [capacity < 1]. *)
val create :
  ?capacity:int -> ?policy:policy -> ?engine:Machine.Cpu.engine ->
  Core.compiled -> t

(** Take an idle machine, building one if allowed; blocks under
    [Block] policy at capacity until a machine is released or
    discarded. *)
val acquire : t -> Core.state

(** Return a machine for reuse. Only pass states obtained from
    {!acquire} whose restore succeeded. *)
val release : t -> Core.state -> unit

(** Drop a machine instead of pooling it (a failed restore leaves it
    half-scrubbed). Shrinks the build count so a blocked waiter may
    construct a replacement. *)
val discard : t -> Core.state -> unit

(** Take every idle machine out of the pool and return it; the build
    count shrinks by as many. The caller owns the machines — the server
    returns their physical memory when it evicts the pool. *)
val drain : t -> Core.state list

(** [with_machine t f] = acquire, run [f], release — or {!discard} if
    [f] raises. *)
val with_machine : t -> (Core.state -> 'a) -> 'a

(** Machines constructed over the pool's lifetime — the reuse oracle:
    after N same-program requests through [with_machine], [built t]
    stays at the concurrency level, not N. *)
val built : t -> int

(** Machines currently idle in the free list. *)
val idle : t -> int
