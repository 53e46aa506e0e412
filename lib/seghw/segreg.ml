(* Segment registers with their hidden descriptor caches.

   Every x86 segment register has a visible part (the 16-bit selector) and a
   hidden part — a cache of the base, limit, and access rights copied from
   the descriptor at load time (§3.1 of the paper). Address translation uses
   only the cached copy; modifying the descriptor table does *not* affect a
   register already loaded. The simulator preserves this property because
   Cash's 3-entry segment-reuse cache depends on it being safe to leave
   stale selectors loaded.

   The hidden cache is kept twice: [cache] holds the full descriptor (for
   introspection and the fault-reporting slow path), and the [f_*] fields
   mirror the base / effective limit / writability as unboxed mutable
   scalars so the in-bounds common case of [translate] — the check run on
   every simulated memory reference — touches no options and calls no
   descriptor accessors. Both copies are written only by [load], so they
   cannot diverge. *)

type name = CS | SS | DS | ES | FS | GS

let name_to_string = function
  | CS -> "CS" | SS -> "SS" | DS -> "DS" | ES -> "ES" | FS -> "FS" | GS -> "GS"

let all_names = [ CS; SS; DS; ES; FS; GS ]

let index = function CS -> 0 | SS -> 1 | DS -> 2 | ES -> 3 | FS -> 4 | GS -> 5

type t = {
  mutable selector : Selector.t;
  mutable cache : Descriptor.t option;
      (* None = loaded with the null selector (or never loaded). *)
  (* Flattened mirror of [cache], for the translation fast path. *)
  mutable f_valid : bool;
  mutable f_base : int;
  mutable f_limit : int; (* effective limit in bytes *)
  mutable f_writable : bool;
}

let create () =
  {
    selector = Selector.null;
    cache = None;
    f_valid = false;
    f_base = 0;
    f_limit = 0;
    f_writable = false;
  }

let selector t = t.selector
let cached_descriptor t = t.cache
let is_null t = t.cache = None

(* Refresh the flattened mirror from [cache]; the only other writer of the
   [f_*] fields is [create]. *)
let sync_flat t =
  match t.cache with
  | None ->
    t.f_valid <- false;
    t.f_base <- 0;
    t.f_limit <- 0;
    t.f_writable <- false
  | Some d ->
    t.f_valid <- true;
    t.f_base <- d.Descriptor.base;
    t.f_limit <- Descriptor.effective_limit d;
    t.f_writable <- Descriptor.is_writable d

(* Load a segment register: copies the descriptor into the hidden cache.
   [name] determines the architectural rules: CS and SS reject the null
   selector with #GP; data registers accept it but fault later on use. *)
let load t ~name ~selector ~descriptor =
  (match name, descriptor with
   | (CS | SS), None ->
     Fault.gp
       (Printf.sprintf "loading null selector into %s" (name_to_string name))
   | _, _ -> ());
  (match name, descriptor with
   | CS, Some d when not (Descriptor.is_code d) ->
     Fault.gp "loading non-code descriptor into CS"
   | SS, Some d when not (Descriptor.is_writable d) ->
     Fault.gp "loading non-writable descriptor into SS"
   | (DS | ES | FS | GS), Some d when Descriptor.is_call_gate d ->
     Fault.gp "loading call gate into a data segment register"
   | _ -> ());
  t.selector <- selector;
  t.cache <- descriptor;
  sync_flat t

(* Restore a serialized register verbatim: selector and hidden cache are
   written independently, bypassing [load]'s architectural checks. The
   checks ran when the snapshotted machine performed the original load;
   re-running them here against the *current* LDT would be wrong — the
   hidden cache may legitimately disagree with the table (that
   stale-selector property is exactly what Cash's 3-entry reuse cache
   depends on, and what a snapshot must preserve bit for bit). *)
let restore_raw t ~selector ~cache =
  t.selector <- selector;
  t.cache <- cache;
  sync_flat t

(* Fault path of [translate]: reached only when the fast-path test fails,
   so one of the conditions below must hold; raises with the exact
   diagnostics of the unflattened checker. *)
let translate_fault t ~name ~offset ~size ~write ~stack =
  match t.cache with
  | None ->
    Fault.gp
      (Printf.sprintf "memory access through null %s" (name_to_string name))
  | Some d ->
    if write && not (Descriptor.is_writable d) then
      Fault.gp (Printf.sprintf "write through read-only %s"
                  (name_to_string name));
    let msg =
      Printf.sprintf
        "segment limit violation: %s offset=0x%x size=%d limit=0x%x"
        (name_to_string name) (offset land 0xFFFFFFFF) size
        (Descriptor.effective_limit d)
    in
    if stack then Fault.ss msg else Fault.gp msg

(* The per-access check (Figure 1's first stage): verify the offset against
   the cached limit and translate to a linear address. [stack] selects #SS
   instead of #GP on violation. The in-bounds case — one compare chain over
   the flattened cache — is the hot path of the whole simulator.

   4 GiB boundary semantics (audited against Intel SDM Vol. 3A §6.3):
   [off + size - 1] is evaluated in OCaml's 63-bit integers and does NOT
   wrap at 2^32, so an access straddling the 4 GiB boundary (e.g. offset
   0xFFFF_FFFC, size 8) fails the limit check even against a flat
   segment whose effective limit is 0xFFFF_FFFF. The SDM makes exactly
   this case implementation-specific ("when the effective limit is
   FFFFFFFFH, accesses that wrap the 4-GByte boundary may or may not
   signal #GP/#SS"); the simulator pins the always-fault implementation,
   which is also the only safe choice for Cash — a wrapped access is
   never a legitimate array reference. For limits below 0xFFFF_FFFF the
   no-wrap evaluation matches the architected behaviour exactly: a huge
   (wrapped-negative) offset exceeds the limit and faults, which is how
   segmentation gives Cash its lower-bound check. The LINEAR address, by
   contrast, is architecturally defined to wrap at 2^32, and does
   ([land 0xFFFFFFFF] below) — Figure 2's end-aligned large segments
   rely on base + offset wrapping while the limit check does not.
   Regression-pinned in test/test_seghw.ml. *)
let[@inline] translate t ~name ~offset ~size ~write ~stack =
  let off = offset land 0xFFFFFFFF in
  if
    t.f_valid
    && ((not write) || t.f_writable)
    && size > 0
    && off + size - 1 <= t.f_limit
  then (t.f_base + off) land 0xFFFFFFFF
  else translate_fault t ~name ~offset ~size ~write ~stack

let pp ppf t =
  match t.cache with
  | None -> Fmt.pf ppf "%a -> null" Selector.pp t.selector
  | Some d -> Fmt.pf ppf "%a -> %a" Selector.pp t.selector Descriptor.pp d
