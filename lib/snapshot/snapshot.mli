(** Deterministic whole-machine checkpoint/restore.

    A snapshot is a versioned binary image of the complete simulator
    state of one process: CPU registers, EIP, flags, cycle and retired
    counters, the six segment registers {e including their hidden
    descriptor caches}, the GDT and the per-process LDT, the page
    tables and frame allocator, the TLB (entries plus its [gen]
    counter), sparse page-granular physical memory, the kernel's clock
    and statistics, the libc allocator/output state, the protection
    hardware of the MPX and capability backends (bounds registers, the
    two-level bound table, the capability table — version 2), and —
    for Cash programs — the runtime's segment pool and reuse cache.

    Encoding is byte-stable: saving the same machine state twice
    yields identical bytes (hashtable-backed structures are serialized
    in sorted key order), so {!digest} is an equality oracle — two
    machines are in the same state iff their snapshots digest equally.
    The engine is deliberately {e not} part of the image: both engines
    produce bit-identical machine state, so a snapshot taken under one
    engine restores under the other (the cross-engine resume
    oracle in the test suite pins this).

    The image does not embed the program (programs are immutable and
    compiled deterministically from source); it embeds a digest of the
    program so {!restore} can reject a mismatched one. *)

type error =
  | Truncated of string   (** ran off the end of the image *)
  | Bad_magic             (** not a snapshot *)
  | Bad_version of int    (** produced by an incompatible format *)
  | Program_mismatch      (** restored against a different program *)
  | Corrupt of string     (** structurally invalid contents *)

exception Error of error

val error_to_string : error -> string

(** Format version written by {!save}. {!restore} additionally accepts
    version-1 images (which predate the MPX/capability protection
    section); their protection state restores zero-initialized. *)
val version : int

(** Digest of the program identity embedded in every snapshot (code,
    data layout, and entry point). *)
val program_digest : Machine.Program.t -> string

(** Serialize the complete state of [process] (plus its Cash runtime,
    when given). The process must not be mid-instruction: call between
    {!Machine.Cpu.step}s or after {!Machine.Cpu.run} returns.
    [format_version] defaults to the current {!version}; pass [1] to
    write a legacy image without the protection-hardware section — it
    exists only for the back-compatibility oracle in the test suite.
    @raise Invalid_argument on an unwritable format version. *)
val save :
  ?format_version:int -> ?runtime:Cashrt.Runtime.t -> Osim.Process.t ->
  Buffer.t

(** Rebuild a process (fresh kernel, LDT, MMU, physical memory, CPU,
    libc — and the Cash runtime iff the image carries its section)
    and overwrite its state with the image. The kernel uses the
    default cost model, as every harness experiment does.
    [engine] picks the CPU interpreter; it defaults to
    [Machine.Cpu.default_engine] and need not match the saving engine.
    @raise Error on truncated, corrupt, or mismatched images. *)
val restore :
  ?engine:Machine.Cpu.engine -> program:Machine.Program.t -> bytes ->
  Osim.Process.t * Cashrt.Runtime.t option

(** Re-parse an image directly into an existing machine — the pooled
    executor's allocation-free restore. The process must have been
    loaded with (a program digest-equal to) [program]; its register
    files, descriptor tables, page tables, and TLB are overwritten in
    place, and physical memory is blitted into the existing bytes with
    the previous occupant's tail scrubbed — no large-object allocation
    when the reused buffer is big enough. The scrub also repairs a
    machine left [Faulted], [Halted], or mid-superblock by its previous
    run: [Machine.Cpu.import_state] overwrites the status and resets
    every derived fast path, so the result is byte-identical (by
    {!state_digest}) to a fresh {!restore} of the same image, under any
    engine. Compiled superblock closures survive reuse (they are a
    derived cache keyed by the unchanged program).

    Pass [runtime] to reuse the machine's Cash runtime when the image
    carries a runtime section of the same pool capacity; otherwise a
    fresh runtime is attached. Returns the runtime now wired to the
    machine ([None] for images without a runtime section).

    The accepted image formats match {!restore} exactly (current
    version plus version-1 back-compatibility): anything {!restore}
    loads, [restore_into] loads, and vice versa.

    @raise Error as {!restore}; additionally [Program_mismatch] when
    the process is running a different program. On any [Error] the
    reused machine is left half-scrubbed and must be discarded, not
    returned to a pool. *)
val restore_into :
  ?runtime:Cashrt.Runtime.t -> program:Machine.Program.t ->
  Osim.Process.t -> bytes -> Cashrt.Runtime.t option

(** MD5 hex of an image — the byte-stable state-equality oracle. *)
val digest : bytes -> string

(** [save] then [digest], for assertions. *)
val state_digest : ?runtime:Cashrt.Runtime.t -> Osim.Process.t -> string

(** {2 Checkpoint placement helpers} *)

(** Step the process until the external named [marker] (default
    ["server_ready"]) fires, at most [max_insns] instructions
    (default 200 million). Because [Callext] terminates a superblock,
    the instruction after the marker is a block start — so a snapshot
    taken here is block-aligned by construction, and a [Block]-engine
    restore re-enters at full speed. The marker external is left
    registered as a no-op (byte-identical behaviour to libc's
    default). Returns [true] if the marker fired, [false] if the
    process halted, faulted, or ran out of the instruction budget
    first. *)
val run_to_marker :
  ?marker:string -> ?max_insns:int -> Osim.Process.t -> bool

(** Step the process forward until EIP rests on a superblock boundary
    (deterministic: the block partition is a property of the linked
    program, not of the engine). Returns the number of instructions
    stepped — 0 when already aligned. Stops early if the process
    leaves the [Running] state. *)
val align_to_block : Osim.Process.t -> int
