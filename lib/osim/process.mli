(** A simulated user process: address space, per-process LDT, CPU, and
    libc. [load] performs what execve and the loader would: fresh LDT,
    MMU wired to the shared GDT, Linux's flat segment-register setup
    (CS = user code; SS = DS = ES = user data; FS/GS null), data section
    and stack mapped and initialised, libc host routines registered. *)

type t

val pid : t -> int
val ldt : t -> Seghw.Descriptor_table.t
val mmu : t -> Seghw.Mmu.t
val phys : t -> Machine.Phys_mem.t
val cpu : t -> Machine.Cpu.t
val libc : t -> Libc.t
val program : t -> Machine.Program.t
val kernel : t -> Kernel.t

(** Kernel-clock timestamps for Table 8's fork accounting. *)
val created_at : t -> int

val terminated_at : t -> int

(** [engine] selects the CPU interpreter ({!Machine.Cpu.default_engine}
    by default; {!Machine.Cpu.Reference} for the equivalence oracle). *)
val load : ?engine:Machine.Cpu.engine -> kernel:Kernel.t ->
  Machine.Program.t -> t

(** Run to completion; advances the kernel's global clock by the cycles
    consumed and records the termination timestamp. *)
val run : ?fuel:int -> t -> Machine.Cpu.status

(** Everything the program printed. *)
val output : t -> string

val cycles : t -> int

(** Snapshot support: overwrite the identity fields of a freshly-loaded
    process with serialized ones ({!load} consumed a pid from its
    kernel; the snapshot's kernel state carries the original counter, so
    nothing is leaked or duplicated). Only the snapshot subsystem should
    call this. *)
val restore_identity :
  t -> pid:int -> created_at:int -> terminated_at:int -> unit
