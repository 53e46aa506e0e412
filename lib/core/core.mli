(** Cash — checking array bound violations using (simulated) segmentation
    hardware: the public API.

    {[
      let compiled = Core.compile Core.cash source_text in
      match (Core.run compiled).Core.status with
      | Core.Finished -> ...
      | Core.Bound_violation msg -> ...   (* #GP/#SS/#BR *)
      | Core.Crashed msg -> ...
    ]} *)

type backend = Compilers.Backend.kind

(** The baseline: no bound checking. *)
val gcc : backend

(** Software bound checking with 3-word fat pointers and in-memory bounds
    records — the paper's comparison compiler. *)
val bcc : backend

(** [bcc] with checks through the x86 [BOUND] instruction — §2's losing
    alternative. *)
val bcc_bound : backend

(** The paper's contribution, default 3-segment-register configuration. *)
val cash : backend

(** §3.8's security-only deployment: writes checked, reads free. *)
val cash_security : backend

(** The 2-, 3-, and 4-register configurations of §3.7/§4.2.
    @raise Invalid_argument for any other count. *)
val cash_n : int -> backend

(** MPX-style bounds-register checking: 1-word pointers, four BND
    registers, bounds spilled through a two-level bound table keyed on
    the pointer slot's linear address. Checks everywhere (in and out of
    loops). *)
val mpx : backend

(** Capability checking: 2-word tagged base+length pointers, every
    dereference validated by the hardware capability table; pointer
    arithmetic that escapes the bounds clears the tag. *)
val cap : backend

val backend_name : backend -> string

type compiled = Compilers.Codegen.result

(** Parse, type-check, and compile.
    @raise Minic.Lexer.Lex_error, [Minic.Parser.Parse_error], or
    [Minic.Typecheck.Type_error] on bad input. *)
val compile : backend -> string -> compiled

(** {!compile} through the process-wide compiled-program cache, keyed
    on a digest of the full backend configuration plus the source: each
    distinct program compiles once per process, no matter how many
    worker domains, fleet re-checks, or serve requests ask for it.
    Returning the {e same} [compiled] value also shares its program
    identity, so the block engine's shared superblock cache binds
    instead of recompiling. Compilation errors propagate and are never
    cached; the table is capacity-bounded (cleared wholesale on
    overflow). Safe from any domain. *)
val compile_cached : backend -> string -> compiled

(** [(hits, misses)] of {!compile_cached} since process start. *)
val compile_cache_stats : unit -> int * int

(** Cumulative wall-clock seconds spent inside {!compile} (lex + parse
    + typecheck + codegen) since process start, summed across domains —
    above one worker it can exceed the wall clock, like the fleet's
    check-phase split. {!compile_cached} hits add nothing. *)
val compile_seconds : unit -> float

type status =
  | Finished                   (** ran to the final HLT *)
  | Bound_violation of string  (** segment limit / BOUND / software check *)
  | Crashed of string          (** any other processor fault *)

type run = {
  status : status;
  cycles : int;
  insns : int;
  output : string;
  process : Osim.Process.t;
  runtime : Cashrt.Runtime.t option;  (** present for Cash programs *)
  kernel : Osim.Kernel.t;
}

(** A machine that has been loaded (and possibly partially executed or
    restored from a snapshot) but not yet run to completion. *)
type state

(** The compiled program a state is executing. *)
val state_compiled : state -> compiled

(** The underlying simulated process, for checkpoint-placement helpers
    ({!Snapshot.run_to_marker}, {!Snapshot.align_to_block}). *)
val state_process : state -> Osim.Process.t

(** Load into a fresh simulated process, wire the trace sink and (for
    Cash programs) the runtime, and stop before the first instruction.
    Same optional arguments as {!run}. *)
val start :
  ?kernel:Osim.Kernel.t -> ?engine:Machine.Cpu.engine -> ?chain:bool ->
  ?trace:Trace.sink -> ?guard_malloc:bool -> compiled -> state

(** Run (or resume) a started machine to completion.
    [run c = finish (start c)].
    @raise Machine.Cpu.Out_of_fuel past [fuel] instructions. *)
val finish : ?fuel:int -> state -> run

(** Serialize a started machine's complete state ({!Snapshot.save}). *)
val save : state -> Buffer.t

(** Rebuild a machine from snapshot bytes taken of [compiled]
    ({!Snapshot.restore}). [engine] defaults to the ambient engine and
    need not match the saving engine; [trace] defaults to the ambient
    sink.
    @raise Snapshot.Error on truncated/corrupt/mismatched images. *)
val restore :
  ?engine:Machine.Cpu.engine -> ?trace:Trace.sink -> compiled -> bytes ->
  state

(** Pool-aware restore: overwrite [state]'s {e existing} machine with
    snapshot bytes taken of the same compiled program, in place —
    {!Snapshot.restore_into}. The returned state reuses the process and
    kernel; by the determinism oracle its {!state_digest} is
    byte-identical to a fresh {!restore} of the same image, including
    after the previous request faulted, halted, or stopped
    mid-superblock. On [Snapshot.Error] the machine is half-scrubbed:
    discard the state instead of pooling it.
    @raise Snapshot.Error on bad images or a program mismatch. *)
val restore_into : ?trace:Trace.sink -> state -> bytes -> state

(** [save] digested — the byte-stable state-equality oracle. *)
val state_digest : state -> string

(** Re-wrap a finished run as a state, so a crash snapshot can be taken
    of whatever machine a failing run left behind. *)
val state_of_run : compiled -> run -> state

(** Load into a fresh simulated process and run to completion. Supply
    [kernel] to share a global clock across processes (the network
    experiments do); [engine] to pick the CPU interpreter (the
    pre-decoded fast path by default, [Machine.Cpu.Reference] for the
    equivalence oracle); [chain] to override the block-chaining
    default (see {!set_chaining}); [trace] to attach a {!Trace.sink} — the run
    emits hardware/OS events into it and folds its per-function cycle
    attribution in afterwards (tracing never changes simulated
    semantics); [guard_malloc] enables the Electric Fence
    comparator (§2): page-fenced heap allocations that catch
    malloc-buffer overruns under ANY backend, at page-granular
    virtual-memory cost.
    @raise Machine.Cpu.Out_of_fuel past [fuel] instructions. *)
val run :
  ?kernel:Osim.Kernel.t -> ?engine:Machine.Cpu.engine -> ?chain:bool ->
  ?fuel:int -> ?trace:Trace.sink -> ?guard_malloc:bool -> compiled -> run

(** [compile] then [run]. *)
val exec :
  ?engine:Machine.Cpu.engine -> ?chain:bool -> ?fuel:int ->
  ?trace:Trace.sink -> ?guard_malloc:bool -> backend -> string -> run

(** Ambient sink applied to every {!run} without an explicit [?trace] —
    how [bench/main.exe --trace] traces whole-harness reproductions
    whose [run] calls are buried inside the table modules. [None] (the
    default) restores untraced runs.

    The ambient sink is {e domain-local}: setting it affects only the
    calling domain, and a freshly spawned domain starts untraced. A
    [Trace.sink] is a single-domain structure, so parallel harness
    workers ([Parallel.run_jobs]) each attach their own sink and merge
    them after the barrier with [Trace.merge_into] rather than sharing
    one ambient sink across domains. *)
val set_default_trace : Trace.sink option -> unit

(** The ambient sink currently in force {e on this domain}, for harness
    code that emits events itself (e.g. Table 8's scheduler). *)
val current_trace : unit -> Trace.sink option

(** Ambient CPU engine applied to every {!run} without an explicit
    [?engine] — how [--engine=block|predecode|reference] on the bench
    and experiment CLIs reaches the [run] calls buried inside the table
    modules. Process-wide (atomic, visible to every harness worker
    domain); set it once, before fanning out. Initially
    {!Machine.Cpu.default_engine}. *)
val set_default_engine : Machine.Cpu.engine -> unit

val default_engine : unit -> Machine.Cpu.engine

(** Parse an engine name: ["block"], ["predecode"] (or ["predecoded"]),
    ["reference"]. [None] for anything else. *)
val engine_of_string : string -> Machine.Cpu.engine option

(** The BENCH-json name of an engine: ["block"] / ["predecoded"] /
    ["reference"]. *)
val engine_name : Machine.Cpu.engine -> string

(** Ambient block-chaining default for {!Machine.Cpu.Block} CPUs — how
    [--no-chain] on the bench and experiment CLIs reaches the buried
    [run] calls. Process-wide (atomic, read once per CPU creation);
    set it before fanning out. On by default. A per-run [?chain] on
    {!start}/{!run}/{!exec} overrides it without touching process-wide
    state (safe under concurrent harness domains). Chaining is a pure
    host-throughput cache: simulated state, cycles, traces, and faults
    are bit-identical either way. *)
val set_chaining : bool -> unit

val chaining_enabled : unit -> bool

(** Sum of the dynamic zero-cost counters with the given name prefix:
    ["__stat_iter_a_"] array-loop iterations, ["__stat_iter_s_"]
    spilled-loop iterations, ["__stat_swc_"] software checks executed. *)
val stat_sum : run -> prefix:string -> int

(** Static characteristics, feeding Tables 1/2/4/6/7. *)
type static_info = {
  code_bytes : int;
  data_bytes : int;
  image_bytes : int;
  hw_checks : int;   (** reference sites checked by segmentation *)
  sw_checks : int;   (** sites on Cash's software fallback *)
  bcc_checks : int;  (** sites checked by the BCC backends *)
  loops : Minic.Loop_analysis.characteristics;
}

val static_info : ?budget:int -> compiled -> static_info

(** Read a whole file, closing the channel even if the read raises. *)
val read_file : string -> string

(** Write a whole file (binary, truncating), closing the channel even
    if the write raises. *)
val write_file : string -> string -> unit

(** Retained for the original scaffold's smoke test. *)
val placeholder : unit -> unit
