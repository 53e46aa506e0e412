(** The CPU: a fetch/decode/execute interpreter over a linked {!Program},
    with cycle accounting from {!Cost_model} and every data access
    translated through the segmentation/paging {!Seghw.Mmu}.

    Labels whose name starts with ["__stat_"] are zero-cost dynamic
    counters: executing one bumps a named counter without consuming
    cycles — the harness's measurement channel.

    Two engines implement the same semantics. {!Block}, the default
    ({!default_engine}), executes the linker's superblock partition —
    each maximal straight-line region is compiled once into
    operand-resolved closures and dispatched as a unit, with a
    per-segment TLB fast path — while staying fault-precise: a
    mid-block fault leaves EIP, counters, registers, and trace events
    identical to per-instruction execution. It steps the link-time
    lowered program one instruction at a time (pre-resolved branch
    targets, a per-site cycle-cost table, pre-interned stat counters,
    exception-free control flow) for fuel straddles and mid-block
    entries, for {!step}, and whenever a trace sink is attached.
    {!Reference} is the original interpreter, kept as the oracle for the
    equivalence suite. Both produce bit-identical cycles, instruction
    counts, and machine state. *)

type status =
  | Running
  | Halted                     (** reached HLT *)
  | Faulted of Seghw.Fault.t   (** processor fault, EIP at the fault *)

(** Which interpreter executes the program. *)
type engine =
  | Block       (** superblock dispatch over the lowered fast path
                    (default) *)
  | Reference   (** the pre-lowering interpreter — the equivalence oracle *)

(** The engine {!create} uses when none is given: {!Block}. *)
val default_engine : engine

type t

exception Out_of_fuel

val create :
  ?engine:engine -> mmu:Seghw.Mmu.t -> phys:Phys_mem.t ->
  costs:Cost_model.t -> program:Program.t -> unit -> t

(** Install the kernel entry point dispatching `int n` and call-gate far
    calls. *)
val set_kernel :
  t -> (t -> gate:[ `Gate of Seghw.Selector.t | `Int of int ] -> unit) -> unit

(** Register a host routine reachable via [Callext name]. *)
val register_external : t -> string -> (t -> unit) -> unit

(** Charge extra cycles (host externals model their own library cost). *)
val add_cycles : t -> int -> unit

val cycles : t -> int
val insns_executed : t -> int
val status : t -> status
val eip : t -> int
val regs : t -> Registers.t
val mmu : t -> Seghw.Mmu.t
val phys : t -> Phys_mem.t
val program : t -> Program.t
val engine : t -> engine

(** Value of one ["__stat_"] counter (0 if never executed). *)
val stat : t -> string -> int

(** Counters that fired at least once, sorted by name (deterministic for
    harness output). *)
val stats : t -> (string * int) list

(** Read the [n]th 32-bit cdecl argument of a host routine (arg 0 at
    [ESP]). *)
val arg_int : t -> int -> int

(** Read a double argument starting at word [n]. *)
val arg_float : t -> int -> float

val return_int : t -> int -> unit
val return_float : t -> float -> unit

(** Execute one instruction (no-op unless [Running]). *)
val step : t -> unit

(** Run until halt, fault, or fuel exhaustion; returns the final status.
    At most [fuel] instructions execute (default 4e9).
    @raise Out_of_fuel once the budget is exhausted. *)
val run : ?fuel:int -> t -> status

(** Instructions retired by {!run} across every CPU of this OCaml
    process, summed over all domains (the counter is atomic; each [run]
    adds its retire count once, on completion) — the host-throughput
    metric reported by the benchmark harness. No simulated semantics
    depend on it. *)
val total_retired : unit -> int

(** Superblocks compiled by {!Block}-engine CPUs of this process (summed
    over all domains). Compiled closures capture no CPU state — they
    fetch the running machine's registers, MMU, and memory from their
    argument — so each {e program}'s closure set compiles once, lazily,
    on the first run of the first machine executing it, and lands in a
    process-wide shared cache keyed on [Program.uid]. Reported as BENCH
    schema 4's ["blocks_built"]. *)
val blocks_built : unit -> int

(** Instructions covered by those compiled superblocks; divided by
    {!blocks_built} this gives BENCH schema 4's ["avg_block_len"]. *)
val block_insns_compiled : unit -> int

(** Superblocks {e bound} from the shared cache instead of compiled: a
    later machine running an already-compiled program bumps this by its
    block count. [blocks_bound / (blocks_built + blocks_bound)] is the
    shared superblock cache's hit rate; a serve/pool workload re-running
    one program should show {!blocks_built} constant while this grows. *)
val blocks_bound : unit -> int

(** Both always 0: perfbench/common.ml:138-139 still reads them. *)
val chains_built : unit -> int

val chain_insns_linked : unit -> int

(** {2 Tracing and profiling}

    Attaching a {!Trace.sink} makes the CPU (and its MMU — the sink is
    forwarded to [Seghw.Mmu.set_trace]) emit typed events: segment
    register loads, limit checks, TLB hits/misses/evictions, and
    exactly one [Fault] event per architectural fault caught by {!run}.
    It also switches {!run} to the traced stepping loop, which executes
    one instruction at a time under {!Block} too (no superblocks) and
    counts per-site retires for the cycle profiler.
    Tracing never changes simulated semantics: cycles, stat counters,
    registers, and memory are bit-identical with and without a sink
    (pinned by the oracle suite in [test/test_predecode.ml]). *)

(** Attach or detach the event sink (detached by default). *)
val set_sink : t -> Trace.sink option -> unit

val sink : t -> Trace.sink option

(** Per-function flat profile of a traced run: [(symbol, insns,
    cycles)] sorted by cycles descending. Symbols are function labels
    (anything but ["__stat_"] counters and [".L"] locals); cycles are
    exact ([retires x tabulated site cost]), not sampled. Empty unless
    a sink was attached before running. *)
val profile : t -> (string * int * int) list

(** Fold {!profile} into the attached sink's attribution table (once
    per finished run — the underlying counts are cumulative). *)
val commit_profile : t -> unit

(** {2 Snapshot support}

    The CPU state a checkpoint must carry: everything mutable that is
    not rederivable from the (immutable) program. Registers, the MMU,
    and physical memory are serialized by their own modules; the
    superblock closure cache and the per-segment fast-path arrays are
    derived state, reset/revalidated after an {!import_state}. *)
type persisted = {
  p_eip : int;
  p_zf : bool;
  p_sf : bool;
  p_cf : bool;
  p_ovf : bool;
  p_cycles : int;
  p_insns_executed : int;
  p_status : status;
  p_stats : (string * int) list;
      (** every ["__stat_"] counter that fired, sorted by name *)
  p_prof_hits : (int * int) list;
      (** (site, retires) for nonzero sites, ascending — empty unless
          the run was traced *)
}

val export_state : t -> persisted

(** Overwrite this CPU's mutable execution state with [persisted].
    Counters not named in [p_stats] are zeroed; the per-segment memory
    fast path is invalidated. The CPU must have been created over the
    same program the state was exported from. *)
val import_state : t -> persisted -> unit
