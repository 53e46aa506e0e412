(** Structured tracing and metrics for the simulator.

    A {!sink} receives typed {!event}s from the hardware and OS layers
    (segment-register loads, limit checks, faults, TLB traffic, LDT
    syscalls, context switches) and maintains three views of them:

    - {e counters}: one integer per {!kind}, bumped on every emit —
      always cheap, never dropped;
    - a {e ring buffer} of the most recent events, for inspection and
      JSON export (old events are overwritten, the drop count is kept);
    - {e plugins}: stateful invariant checkers in the Checkbochs style
      ({!Plugin}), each fed the events of the kinds it declares as they
      are emitted; a plugin records violations on the sink instead of
      raising, so a checked run completes and the violations can be
      asserted afterwards.

    The sink also keeps a {e hardware tally} ({!credit}, {!tally}): the
    limit checks, TLB hits and TLB misses the simulated MMU and TLB
    counted themselves, credited by the CPU running under the sink.
    Those counts are kept on the untraced path too, so a checker can
    compare them with the event counters without receiving the hot
    events one by one.

    The emitting layers hold a [sink option] and test it before
    constructing an event, so a detached run pays one load-and-branch
    per would-be event and allocates nothing. An attached sink costs
    the event record, one counter bump and one ring store per event,
    plus one call to each plugin that reads the event's kind: a kind no
    plugin reads costs no plugin call. The shipped plugins read
    [limit_check.pass] only in [stack_smash] and [tlb.hit] in none. The
    ring, the dispatch and the shipped plugins add no allocation of
    their own on [Limit_check] and [Tlb_hit]. Tracing never changes
    simulated semantics: cycles, counters, memory, and table output are
    bit-identical with and without a sink attached (asserted by the
    oracle suite in [test/test_predecode.ml]). *)

(** Which kernel path performed an LDT update. *)
type ldt_path = Slow_syscall | Call_gate

type event =
  | Segreg_load of { reg : string; selector : int }
      (** a MOV to a segment register (or a load by the loader) *)
  | Limit_check of {
      seg : string;
      base : int;  (** segment base from the hidden cache, for per-array
                       attribution — 0 for the flat segments *)
      offset : int;
      size : int;
      write : bool;
      ok : bool;
    }  (** one segment-limit check; [ok = false] means a fault follows *)
  | Fault of {
      cls : [ `Gp | `Ss | `Pf | `Np | `Ud | `Br ];
      detail : string;   (** [Seghw.Fault.to_string] of the fault *)
      address : int option;  (** faulting linear address (#PF only) *)
      selector : int option; (** faulting selector (#NP only) *)
    }
  | Tlb_hit
  | Tlb_miss of { page : int; evicted : bool }
  | Ldt_update of { path : ldt_path; index : int; cleared : bool }
  | Call_gate_entry of { selector : int }
  | Context_switch of { pid : int }
  | Btable_load of { key : int; hit : bool }
      (** one BNDLDX bound-table walk (MPX backend); a miss loads the
          unbounded range and never faults *)
  | Cap_tag_clear of { value : int; lower : int; upper : int }
      (** a CAPCLR actually clearing the tag: pointer arithmetic
          escaped the capability's bounds (capability backend) *)

(** Event classes, the counter index space. Every emitted event bumps
    exactly one kind counter, except that a [Tlb_miss] with
    [evicted = true] also bumps [K_tlb_evict]. *)
type kind =
  | K_segreg_load
  | K_limit_check_pass
  | K_limit_check_fail
  | K_fault_gp
  | K_fault_ss
  | K_fault_pf
  | K_fault_np
  | K_fault_ud
  | K_fault_br
  | K_tlb_hit
  | K_tlb_miss
  | K_tlb_evict
  | K_modify_ldt
  | K_cash_modify_ldt
  | K_call_gate_entry
  | K_context_switch
  | K_btable_hit
  | K_btable_miss
  | K_cap_tag_clear

val kind_of_event : event -> kind
val kind_name : kind -> string
val all_kinds : kind list

(** A kind's position in [0, num_kinds): the index of its counter, and
    of any per-kind table a plugin keeps as a flat array. *)
val kind_index : kind -> int

val num_kinds : int

(** A power-of-two-bucketed histogram: bucket [i] counts samples [v]
    with [2^(i-1) <= v < 2^i] (bucket 0 counts [v <= 0]). *)
module Histogram : sig
  type t

  val create : unit -> t
  val add : t -> int -> unit
  val total : t -> int

  (** [(lower_bound, count)] per non-empty bucket, ascending. *)
  val buckets : t -> (int * int) list

  (** Pointwise sum of [src] into [into]; exact, since the bucket
      boundaries are fixed. *)
  val merge_into : into:t -> t -> unit
end

(** Minimal JSON values + serialiser, for the export paths (bench
    [--trace], [cashc --profile]). Strings are escaped per RFC 8259. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string

  exception Parse_error of string

  (** Parse one JSON document — the inverse of {!to_string}; the
      [cashd] protocol reads its request lines with it. Accepts standard
      RFC 8259 JSON; integral int-syntax literals parse to [Int], other
      numbers to [Float].
      @raise Parse_error on malformed input (with a byte offset). *)
  val parse : string -> t

  (** [member k json] is the value of field [k] if [json] is an object
      that has it. *)
  val member : string -> t -> t option

  val to_int_opt : t -> int option
  val to_string_opt : t -> string option
end

type sink

(** {2 Plugins}

    A plugin is a named, stateful event subscriber in the Checkbochs
    style: one hardware-level property per plugin, expressed over the
    typed event stream. Plugins carry their own typed state (so they
    survive {!merge_into} across a parallel run's per-job sinks), an
    end-of-run pass for invariants only decidable once the stream is
    over, and a JSON report. Shipped plugins live in [lib/checkers];
    writing a new one takes a state constructor and a
    {!Plugin.spec}. *)

(** The open union of per-plugin states. Each plugin extends it with
    its own constructor ([type Trace.plugin_state += My_state of ...])
    and matches it back out inside its callbacks. *)
type plugin_state = ..

module Plugin : sig
  type spec = {
    p_name : string;       (** unique key: per-sink instances and
                               {!merge_into} pairing use it *)
    p_kinds : kind list;
        (** the kinds [p_on_event] reads: {!emit} feeds the plugin the
            events of these kinds, and others only to answer its
            {!want_next}. Contract: [p_on_event] is a no-op on any kind
            outside [p_kinds] — no state change, no violation — so
            declaring every kind ({!all_kinds}) gives the same
            violations and report, only slower. *)
    p_init : unit -> plugin_state;
    p_on_event : sink -> plugin_state -> event -> unit;
        (** run on every emitted event of a kind in [p_kinds] and on
            the event after a {!want_next}; report problems with
            {!violation} (never raise) *)
    p_at_finish : sink -> plugin_state -> unit;
        (** end-of-run pass, run once by {!finish_plugins} *)
    p_merge : into:plugin_state -> plugin_state -> unit;
        (** fold a finished worker instance's state into [into]'s;
            called by {!merge_into} when both sinks carry the plugin *)
    p_to_json : sink -> plugin_state -> Json.t;
        (** state summary for export; the sink is the one the plugin is
            attached to, so a report can quote a sink counter or the
            {!tally} instead of keeping its own copy *)
  }
end

(** [create ()] makes a detached sink. [capacity] (default 4096) bounds
    the event ring; older events are overwritten but still counted.
    Any {!set_auto_plugins} specs are attached to the new sink. *)
val create : ?capacity:int -> unit -> sink

(** Instantiate a plugin on this sink: its state is created and every
    subsequent {!emit} of a kind in its [p_kinds] feeds it. Attach
    before the first event — plugins that cross-check the sink's
    counters assume they saw the whole stream.
    @raise Invalid_argument if a plugin of the same name is attached. *)
val attach : sink -> Plugin.spec -> unit

(** [want_next sink ~checker] asks that the attached plugin named
    [checker] also receive the next emitted event, whatever its kind —
    one event, then the request is spent. A plugin that must see what
    immediately follows an event (a fault after a failed check) calls
    it from [p_on_event]; the request made while one event is fed is
    for the event after it. That event goes once to each plugin that
    reads its kind or asked for it, in attach order. A pending request
    survives {!merge_into}.
    @raise Invalid_argument if no plugin of that name is attached. *)
val want_next : sink -> checker:string -> unit

(** Plugins attached automatically by every subsequent {!create} —
    how a parallel harness whose workers build their own sinks gets
    the same plugin set on each without threading a list through every
    layer. Process-wide; set it (e.g. to [Checkers.all]) before
    fanning out, and reset to [[]] afterwards. *)
val set_auto_plugins : Plugin.spec list -> unit

(** Names of the plugins attached to this sink, in attach order. *)
val plugin_names : sink -> string list

(** Each attached plugin's JSON report, in attach order. *)
val plugin_json : sink -> (string * Json.t) list

(** Run every attached plugin's [p_at_finish] pass. Idempotent per
    instance: a second call (or a call after {!merge_into} brought in
    an already-finished instance) does nothing, so end-of-run
    violations are recorded exactly once. *)
val finish_plugins : sink -> unit

(** Record an event: bump its kind counter, append it to the ring, feed
    the plugins that read its kind (and any that asked for it with
    {!want_next}) in attach order. *)
val emit : sink -> event -> unit

(** {2 Hardware tally}

    The simulated hardware's own counts for the two hot kinds and the
    TLB misses. The CPU credits its sink with the growth of
    [Seghw.Mmu.limit_checks], [Seghw.Tlb.hits] and [Seghw.Tlb.misses]
    whenever [Machine.Cpu.run] or [Machine.Cpu.step] returns or raises.
    On a consistent run [tally.limit_checks] equals the
    [limit_check.pass] plus [limit_check.fail] counters, and
    [tlb_hits] and [tlb_misses] equal [tlb.hit] and [tlb.miss]. A sink
    fed by hand, with no machine behind it, credits what a machine
    would have counted. *)

val credit : sink -> limit_checks:int -> tlb_hits:int -> tlb_misses:int -> unit

type tally = { limit_checks : int; tlb_hits : int; tlb_misses : int }

val tally : sink -> tally

val count : sink -> kind -> int

(** All counters that fired, [(name, count)], sorted by name. *)
val counters : sink -> (string * int) list

(** Events still in the ring, oldest first. *)
val events : sink -> event list

(** Total events emitted, including overwritten ones. *)
val total_events : sink -> int

(** Events counted in {!total_events} but no longer in the ring: those
    overwritten because the ring was full, and those a {!merge_into}
    brought in that were already gone from [src]'s ring or did not fit
    in [into]'s. *)
val dropped : sink -> int

(** Limit checks observed between consecutive segment-register reloads —
    the paper's reload-rate metric as a distribution. *)
val reload_interval : sink -> Histogram.t

(** Record an invariant violation against the named checker. *)
val violation : sink -> checker:string -> string -> unit

(** All recorded violations, [(checker, message)], in emission order. *)
val violations : sink -> (string * string) list

(** Per-function cycle attribution merged in by the execution engine
    after a traced run (see [Machine.Cpu.profile]). *)
val add_attribution : sink -> string -> insns:int -> cycles:int -> unit

(** Accumulated attribution, [(symbol, insns, cycles)], sorted by cycles
    descending then name. *)
val attributions : sink -> (string * int * int) list

(** [merge_into ~into src] folds one finished sink into another — how
    the per-job sinks of a parallel run ([Parallel.run_jobs]) become
    one aggregate after the barrier. Counters, the reload-interval
    histogram, attribution, emitted-event totals and the hardware
    {!tally} sum exactly;
    [src]'s surviving ring events and violations are appended after
    [into]'s in emission order, so merging per-job sinks in job order
    is deterministic. [into]'s plugins are not run on merged events
    (aggregation, not emission): a plugin present on both sinks has
    [src]'s state folded in through its [p_merge], and one present
    only on [src] moves across with its state. A plugin's pending
    {!want_next} request moves across with it. Both sinks
    should be quiescent: reload-interval boundary state is not carried
    across the merge.
    A sink is single-domain — emit into per-job sinks and merge after
    joining, never share one sink across running domains. *)
val merge_into : into:sink -> sink -> unit

val pp_event : Format.formatter -> event -> unit


(** Full sink state as JSON: counters, attribution, reload-interval
    histogram, violations, ring contents, drop count. *)
val to_json : sink -> Json.t
