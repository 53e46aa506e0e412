(** Segment registers with their hidden descriptor caches.

    Each register has a visible selector and a hidden copy of the
    descriptor taken at load time (§3.1): translation uses only the
    cache, so modifying the LDT does not affect already-loaded registers
    — the property Cash's 3-entry segment-reuse cache relies on.

    Internally the hidden cache is mirrored into flat mutable scalars
    (base / effective limit / writability), refreshed on every {!load},
    so the in-bounds case of {!translate} performs a single compare
    chain with no option match and no descriptor accessor calls. *)

type name = CS | SS | DS | ES | FS | GS

val name_to_string : name -> string
val all_names : name list

(** A register's position in [all_names]: the segment index of
    [Trace.limit_check]. *)
val index : name -> int

(** Exposed concretely so the interpreter's flattened translation fast
    path can run the limit check over the [f_*] scalar mirror with
    direct field loads (cross-module calls are opaque under dune's dev
    profile). All fields are written only by {!load} (and [create]);
    treat them as read-only everywhere else. *)
type t = {
  mutable selector : Selector.t;
  mutable cache : Descriptor.t option;
      (** [None] = loaded with the null selector (or never loaded) *)
  mutable f_valid : bool;     (** flattened mirror of [cache]: *)
  mutable f_base : int;
  mutable f_limit : int;      (** effective limit in bytes *)
  mutable f_writable : bool;
}

val create : unit -> t
val selector : t -> Selector.t
val cached_descriptor : t -> Descriptor.t option

(** Loaded with the null selector (or never loaded)? *)
val is_null : t -> bool

(** [load t ~name ~selector ~descriptor] performs a segment-register
    load. Architectural rules enforced: CS/SS reject the null selector
    with [#GP]; CS requires a code descriptor; SS requires a writable
    one; data registers reject call gates. *)
val load :
  t -> name:name -> selector:Selector.t -> descriptor:Descriptor.t option ->
  unit

(** Restore a serialized register verbatim (selector plus hidden cache),
    bypassing {!load}'s architectural checks — they ran when the
    snapshotted machine performed the original load, and the hidden
    cache may legitimately disagree with the current LDT (the
    stale-selector property Cash's segment-reuse cache relies on).
    Only the snapshot subsystem should call this. *)
val restore_raw :
  t -> selector:Selector.t -> cache:Descriptor.t option -> unit

(** The per-access check of Figure 1's first stage: verify [offset]
    against the cached limit and produce the linear address.
    Raises [#SS] instead of [#GP] when [stack] is set, [#GP] on writes
    through read-only segments, and [#GP] on use of a null register. *)
val translate :
  t -> name:name -> offset:int -> size:int -> write:bool -> stack:bool -> int

val pp : Format.formatter -> t -> unit
