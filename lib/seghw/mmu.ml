(* The memory-management unit: Figure 1's full translation pipeline.

   logical address (segment register + 32-bit offset)
     --[segment limit & protection check]--> linear address
     --[TLB / two-level page walk]--------> physical address

   The MMU owns the six segment registers, references the GDT and the
   current process's LDT (the LDTR), and drives paging through a TLB.
   Every data access performed by the CPU goes through [translate]; the
   segment-limit check that Cash exploits is therefore applied to every
   simulated memory reference, exactly as on real hardware. *)

type t = {
  gdt : Descriptor_table.t;
  mutable ldt : Descriptor_table.t; (* the LDTR: current process's LDT *)
  cs : Segreg.t;
  ss : Segreg.t;
  ds : Segreg.t;
  es : Segreg.t;
  fs : Segreg.t;
  gs : Segreg.t;
  paging : Paging.t;
  tlb : Tlb.t;
  bndregs : Bound_regs.t; (* MPX bounds registers + bound table *)
  captab : Captab.t;      (* capability-backend hardware table *)
  mutable limit_checks : int; (* # segment-limit checks performed *)
  mutable trace : Trace.sink option;
      (* event sink; None (the default) keeps every emit site to one
         load-and-branch. Shared with the CPU's flattened translation
         copy, which tests the same field. *)
}

let create ~gdt ~ldt =
  {
    gdt;
    ldt;
    cs = Segreg.create ();
    ss = Segreg.create ();
    ds = Segreg.create ();
    es = Segreg.create ();
    fs = Segreg.create ();
    gs = Segreg.create ();
    paging = Paging.create ();
    tlb = Tlb.create ();
    bndregs = Bound_regs.create ();
    captab = Captab.create ();
    limit_checks = 0;
    trace = None;
  }

let set_trace t sink = t.trace <- sink
let trace t = t.trace

let[@inline] seg t = function
  | Segreg.CS -> t.cs
  | Segreg.SS -> t.ss
  | Segreg.DS -> t.ds
  | Segreg.ES -> t.es
  | Segreg.FS -> t.fs
  | Segreg.GS -> t.gs

let gdt t = t.gdt
let ldt t = t.ldt
let paging t = t.paging
let tlb t = t.tlb
let bndregs t = t.bndregs
let captab t = t.captab

(* Reload the LDTR (simulates an LDT switch: flushes nothing but future
   segment loads resolve against the new table). *)
let set_ldt t ldt = t.ldt <- ldt

let table_for t selector =
  match Selector.table selector with
  | Selector.Gdt -> t.gdt
  | Selector.Ldt -> t.ldt

(* Segment-register load: resolve the selector through the GDT/LDT and fill
   the hidden descriptor cache. A null selector loads an empty cache (legal
   for data registers; #GP for CS/SS inside Segreg.load). *)
let load_segreg t name selector =
  let descriptor =
    if Selector.is_null selector then None
    else Some (Descriptor_table.lookup_exn (table_for t selector)
                 (Selector.index selector))
  in
  Segreg.load (seg t name) ~name ~selector ~descriptor;
  match t.trace with
  | None -> ()
  | Some s ->
    Trace.emit s
      (Trace.Segreg_load
         { reg = Segreg.name_to_string name;
           selector = Selector.to_int selector })

(* Read back the visible selector, as MOV from a segment register does. *)
let read_segreg t name = Segreg.selector (seg t name)

(* Resolve linear -> physical through the TLB, falling back to the walk.
   A TLB hit is a sentinel-tested int, not an option: the common case
   allocates nothing. A write missing over a read-only entry walks (the
   page tables enforce write protection) and the insert upgrades the slot
   in place. *)
let[@inline] linear_to_physical t ~linear ~write =
  let page = linear lsr Paging.page_shift in
  let frame = Tlb.lookup t.tlb ~page ~write in
  if frame >= 0 then begin
    (match t.trace with
     | None -> ()
     | Some s -> Trace.tlb_hit s);
    (frame lsl Paging.page_shift) lor (linear land 0xFFF)
  end
  else begin
    (* The miss event precedes the walk so a faulting walk still counts
       the miss, matching the Tlb.lookup counter discipline. *)
    (match t.trace with
     | None -> ()
     | Some s ->
       let old = t.tlb.Tlb.tags.(page land t.tlb.Tlb.mask) in
       Trace.emit s
         (Trace.Tlb_miss { page; evicted = old >= 0 && old <> page }));
    let phys = Paging.walk t.paging ~linear ~write in
    Tlb.insert t.tlb ~page ~frame:(phys lsr Paging.page_shift)
      ~writable:write;
    phys
  end

(* Full logical -> physical translation for a [size]-byte access. This is
   the hot path: one segment-limit check plus a TLB lookup. *)
let[@inline] translate t ~seg_name ~offset ~size ~write =
  t.limit_checks <- t.limit_checks + 1;
  let stack = match seg_name with Segreg.SS -> true | _ -> false in
  let sr = seg t seg_name in
  (match t.trace with
   | None -> ()
   | Some s ->
     (* Recompute the check's outcome over the flat mirror so the event
        can be emitted before [Segreg.translate] raises on failure.
        Must mirror Segreg.translate bit for bit — including the 63-bit
        no-wrap [off + size - 1] evaluation at the 4 GiB boundary (see
        the audit note there); test_seghw.ml pins the two together. *)
     let off = offset land 0xFFFFFFFF in
     let ok =
       sr.Segreg.f_valid
       && ((not write) || sr.Segreg.f_writable)
       && size > 0
       && off + size - 1 <= sr.Segreg.f_limit
     in
     Trace.limit_check s ~seg:(Segreg.index seg_name) ~base:sr.Segreg.f_base
       ~offset:off ~size ~write ~ok);
  let linear = Segreg.translate sr ~name:seg_name ~offset ~size ~write ~stack in
  linear_to_physical t ~linear ~write

(* Translate without a segment register: used by the simulated kernel when
   it touches memory directly (flat linear addressing). *)
let translate_linear t ~linear ~write = linear_to_physical t ~linear ~write

(* Demand-map all pages covering [linear, linear+size). *)
let map_range t ~linear ~size ~writable =
  if size > 0 then begin
    let first = linear lsr Paging.page_shift in
    let last = (linear + size - 1) lsr Paging.page_shift in
    for page = first to last do
      ignore (Paging.map_page t.paging ~linear:(page lsl Paging.page_shift)
                ~writable : int)
    done
  end

let limit_checks t = t.limit_checks
