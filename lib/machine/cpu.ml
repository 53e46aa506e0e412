(* The CPU: a fetch/decode/execute interpreter over a linked [Program],
   with cycle accounting from [Cost_model] and every data access translated
   through the segmentation/paging [Mmu].

   Design notes:
   - Return addresses are instruction indices pushed on the simulated stack.
     CALL/RET access the stack through the flat DS segment rather than SS:
     the OS initialises SS = DS (flat), so this is semantically identical,
     and it keeps CALL/RET working in the 4-segment-register configuration
     where the Cash backend temporarily repurposes SS inside loops (§3.7).
   - PUSH/POP use SS, as on hardware; the 4-register Cash configuration
     rewrites them into MOV/SUB with explicit DS overrides at codegen time,
     exactly as the paper describes.
   - Labels whose name starts with "__stat_" are zero-cost dynamic counters:
     executing one bumps a named counter. The harness uses these to measure
     dynamic software-check and spilled-loop-iteration frequencies without
     perturbing cycle counts.

   Two execution engines share this module:

   - [Block] executes the linker's superblock partition: each maximal
     single-entry straight-line region is compiled (once, at first run)
     into an array of operand-resolved closures, dispatched as a unit
     with one EIP/instruction/cycle commit per block instead of per
     instruction. Memory operands still go through the real
     segment-limit + TLB [translate] below, augmented by a per-segment
     (linear page -> phys delta) fast path validated by the TLB's
     generation counter. Fault-precise: a mid-block fault unwinds to the
     exact faulting instruction with registers, counters, and EIP
     identical to per-instruction execution (the closures share the
     single set of [eff_*] operand-effect helpers, so there is nothing
     to diverge). It is the default ([default_engine]). Under it,
     [exec] steps one instruction of the link-time lowered form: branch
     targets from [Program.targets], per-site cycle costs from a table
     built at CPU creation, stat counters from pre-interned refs, and the
     next EIP returned instead of an exception on control transfers.
     [exec] is the block loop's fallback (fuel straddles, mid-block
     entries), [step]'s single step, and the one traced loop.
   - [Reference] is the pre-lowering interpreter kept verbatim: hashtable
     label resolution per branch, a [Cost_model.cost] match per executed
     instruction, string-keyed stat bumps, and an exception per control
     transfer. It exists as the oracle for the equivalence suite — all
     engines must produce bit-identical cycles, instruction counts, and
     machine state on every program. *)

type status =
  | Running
  | Halted
  | Faulted of Seghw.Fault.t

type engine = Block | Reference

let default_engine = Block

type t = {
  regs : Registers.t;
  mmu : Seghw.Mmu.t;
  phys : Phys_mem.t;
  costs : Cost_model.t;
  program : Program.t;
  engine : engine;
  (* Lowered program, fixed at creation (parallel to [program.code]): *)
  code : Insn.t array;         (* = program.code, fetched without bounds
                                  rechecks after the explicit EIP test *)
  targets : int array;         (* = program.targets *)
  cost_tab : int array;        (* Cost_model.precompute of the code *)
  stat_refs : int ref array;   (* pre-interned counter per stat-label site;
                                  a shared sink ref everywhere else *)
  mutable eip : int;
  mutable zf : bool;
  mutable sf : bool;
  mutable cf : bool;
  mutable ovf : bool;
  mutable cycles : int;
  mutable insns_executed : int;
  mutable status : status;
  mutable kernel : t -> gate:[ `Gate of Seghw.Selector.t | `Int of int ] -> unit;
  externals : (string, t -> unit) Hashtbl.t;
  stat_counters : (string, int ref) Hashtbl.t;
  (* Tracing: [sink] mirrors [mmu.trace] (set together by [set_sink]).
     With a sink attached the run loop takes a separate traced variant
     that bumps [prof_hits] (per-site retire counts, the cycle
     profiler's input, allocated lazily on attach); with it detached
     the hot loop is byte-for-byte the untraced one. *)
  mutable sink : Trace.sink option;
  mutable prof_hits : int array;
  (* [mmu.limit_checks], [tlb.hits] and [tlb.misses] as last credited
     to the sink's hardware tally (see [credit_tally]) *)
  mutable tallied_checks : int;
  mutable tallied_hits : int;
  mutable tallied_misses : int;
  (* Superblock engine state (all engines carry the fields; only
     [Block] uses them): *)
  block_starts : int array;    (* = program.block_starts *)
  block_lens : int array;      (* = program.block_lens *)
  block_at : int array;        (* = program.block_at *)
  block_cost : int array;      (* per block: summed cost_tab over its range *)
  mutable ublocks : (t -> int) array array;
      (* per block: one operand-resolved closure per instruction,
         compiled lazily by the first [Block] run. The last closure
         returns the block's next EIP (terminators have their dispatch
         pre-resolved; a fall-through last instruction bakes in
         [idx + 1]); body closures return a dummy 0. *)
  mutable ublocks_ready : bool;
  (* Per-segment memory fast path: for segreg slot [k] (CS..GS), if
     [fm_gen.(k)] still equals the TLB's generation counter and
     [fm_page.(k)] is the accessed linear page (and [fm_writable.(k)]
     for writes), then the TLB provably still caches that entry and the
     physical address is [linear + fm_delta.(k)] without probing the
     hash. Enabled only under the [Block] engine. *)
  fm_enabled : bool;
  fm_page : int array;         (* cached linear page, or -1 *)
  fm_delta : int array;        (* phys - linear for that page *)
  fm_writable : bool array;
  fm_gen : int array;          (* Tlb.gen at fill time, or -1 *)
}

exception Out_of_fuel

(* Host-side throughput accounting: instructions retired by [run] across
   every CPU instance of this OCaml process, on every domain. Purely a
   benchmarking aid — no simulated semantics depend on it. Atomic
   because the parallel harness retires instructions on several domains
   at once; the counter is touched once per [run] call (not per
   instruction), so contention is nil. *)
let retired_total = Atomic.make 0
let total_retired () = Atomic.get retired_total

(* Block-compilation accounting for the benchmark report (BENCH schema 4:
   "blocks_built" / "avg_block_len"): bumped once per lazy superblock
   compilation, across all CPUs and domains. No simulated semantics
   depend on these. *)
let blocks_built_total = Atomic.make 0
let block_insns_total = Atomic.make 0
let blocks_built () = Atomic.get blocks_built_total
let block_insns_compiled () = Atomic.get block_insns_total

(* Superblocks *bound* rather than compiled: a [Block] CPU whose
   program's closure set was already in the process-wide shared cache
   ([build_ublocks]) bumps this by its block count instead of the build
   counters. blocks_bound / (blocks_built + blocks_bound) is the shared
   cache's hit rate. *)
let blocks_bound_total = Atomic.make 0
let blocks_bound () = Atomic.get blocks_bound_total

(* Always 0: perfbench/common.ml:138-139 still reads both. *)
let chains_built () = 0
let chain_insns_linked () = 0

let create ?(engine = default_engine) ~mmu ~phys ~costs ~program () =
  let code = program.Program.code in
  let stat_counters = Hashtbl.create 31 in
  (* Pre-intern one counter ref per stat label; every other site shares a
     sink ref, so the Label case of the engine is an unconditional [incr]
     with no prefix scan and no hashtable probe. *)
  let sink = ref 0 in
  let stat_refs = Array.make (Array.length code) sink in
  Array.iteri
    (fun i marked ->
      if marked then begin
        match code.(i) with
        | Insn.Label l ->
          let r = ref 0 in
          Hashtbl.replace stat_counters l r;
          stat_refs.(i) <- r
        | _ -> ()
      end)
    program.Program.stat_labels;
  let cost_tab = Cost_model.precompute costs code in
  (* Per-block cycle sums: Jcc's tabulated cost is branch-direction
     independent (the model charges taken and fall-through alike), so a
     straight sum over the block's range is the exact per-instruction
     total. *)
  let block_starts = program.Program.block_starts in
  let block_lens = program.Program.block_lens in
  let block_cost =
    Array.init (Array.length block_starts) (fun b ->
        let s = block_starts.(b) in
        let acc = ref 0 in
        for i = s to s + block_lens.(b) - 1 do
          acc := !acc + cost_tab.(i)
        done;
        !acc)
  in
  {
    regs = Registers.create ();
    mmu;
    phys;
    costs;
    program;
    engine;
    code;
    targets = program.Program.targets;
    cost_tab;
    stat_refs;
    eip = program.Program.entry_index;
    zf = false;
    sf = false;
    cf = false;
    ovf = false;
    cycles = 0;
    insns_executed = 0;
    status = Running;
    kernel = (fun _ ~gate:_ -> Seghw.Fault.gp "no kernel installed");
    externals = Hashtbl.create 31;
    stat_counters;
    sink = None;
    prof_hits = [||];
    tallied_checks = 0;
    tallied_hits = 0;
    tallied_misses = 0;
    block_starts;
    block_lens;
    block_at = program.Program.block_at;
    block_cost;
    ublocks = [||];
    ublocks_ready = false;
    (* Off under the oracle, which keeps the plain TLB probe. *)
    fm_enabled = (match engine with Block -> true | Reference -> false);
    fm_page = Array.make 6 (-1);
    fm_delta = Array.make 6 0;
    fm_writable = Array.make 6 false;
    fm_gen = Array.make 6 (-1);
  }

(* The sink's hardware tally ([Trace.credit]) gets the growth of the
   MMU's and the TLB's own counters on every exit from [run] and [step],
   the only two places simulated instructions execute. [set_sink] only
   rebases: a snapshot restore overwrites the counters before
   [Core.restore]/[restore_into] attach the sink again, and that jump is
   no work the hardware did under the sink. *)
let rebase_tally t =
  let tlb = t.mmu.Seghw.Mmu.tlb in
  t.tallied_checks <- t.mmu.Seghw.Mmu.limit_checks;
  t.tallied_hits <- tlb.Seghw.Tlb.hits;
  t.tallied_misses <- tlb.Seghw.Tlb.misses

let credit_tally t s =
  let tlb = t.mmu.Seghw.Mmu.tlb in
  Trace.credit s
    ~limit_checks:(t.mmu.Seghw.Mmu.limit_checks - t.tallied_checks)
    ~tlb_hits:(tlb.Seghw.Tlb.hits - t.tallied_hits)
    ~tlb_misses:(tlb.Seghw.Tlb.misses - t.tallied_misses);
  rebase_tally t

(* Attach (or detach) the trace sink: the CPU and its MMU share it, so
   one call covers the limit-check/TLB emit sites of the flattened
   translation path as well as the module ones. *)
let set_sink t sink =
  t.sink <- sink;
  Seghw.Mmu.set_trace t.mmu sink;
  rebase_tally t;
  match sink with
  | Some _ ->
    if Array.length t.prof_hits <> Array.length t.code then
      t.prof_hits <- Array.make (Array.length t.code) 0
  | None -> ()

let sink t = t.sink

let set_kernel t k = t.kernel <- k
let register_external t name f = Hashtbl.replace t.externals name f
let add_cycles t n = t.cycles <- t.cycles + n
let cycles t = t.cycles
let insns_executed t = t.insns_executed
let status t = t.status
let regs t = t.regs
let mmu t = t.mmu
let phys t = t.phys
let program t = t.program
let engine t = t.engine

let eip t = t.eip

let stat t name =
  match Hashtbl.find_opt t.stat_counters name with
  | Some r -> !r
  | None -> 0

(* Counters that fired at least once, sorted by name so harness output is
   deterministic. Pre-interned counters that never executed are omitted,
   matching the on-demand interning of the reference engine. *)
let stats t =
  Hashtbl.fold
    (fun k r acc -> if !r > 0 then (k, !r) :: acc else acc)
    t.stat_counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let bump_stat t name =
  match Hashtbl.find_opt t.stat_counters name with
  | Some r -> incr r
  | None -> Hashtbl.add t.stat_counters name (ref 1)

(* --- snapshot support --------------------------------------------------- *)

(* The CPU state a snapshot must carry: everything mutable that is not
   rederivable from the (immutable) program. Registers, the MMU, and
   physical memory are serialized by their own modules; the superblock
   closure cache and the per-segment fast-path arrays are derived state
   — closures capture this same record and stay valid across an
   [import_state], and the fast path revalidates against [Tlb.gen]
   (cleared below anyway, since a restored generation counter could
   coincide with a stale fill). *)
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
      (* every counter that fired, sorted by name *)
  p_prof_hits : (int * int) list;
      (* (site, retires) for nonzero sites, ascending — empty unless the
         run was traced *)
}

let export_state t =
  let prof =
    if Array.length t.prof_hits = 0 then []
    else begin
      let acc = ref [] in
      for i = Array.length t.prof_hits - 1 downto 0 do
        if t.prof_hits.(i) > 0 then acc := (i, t.prof_hits.(i)) :: !acc
      done;
      !acc
    end
  in
  {
    p_eip = t.eip;
    p_zf = t.zf;
    p_sf = t.sf;
    p_cf = t.cf;
    p_ovf = t.ovf;
    p_cycles = t.cycles;
    p_insns_executed = t.insns_executed;
    p_status = t.status;
    p_stats = stats t;
    p_prof_hits = prof;
  }

let import_state t (p : persisted) =
  t.eip <- p.p_eip;
  t.zf <- p.p_zf;
  t.sf <- p.p_sf;
  t.cf <- p.p_cf;
  t.ovf <- p.p_ovf;
  t.cycles <- p.p_cycles;
  t.insns_executed <- p.p_insns_executed;
  t.status <- p.p_status;
  Hashtbl.iter (fun _ r -> r := 0) t.stat_counters;
  List.iter
    (fun (name, v) ->
      match Hashtbl.find_opt t.stat_counters name with
      | Some r -> r := v
      | None -> Hashtbl.add t.stat_counters name (ref v))
    p.p_stats;
  if Array.length t.prof_hits > 0 then Array.fill t.prof_hits 0 (Array.length t.prof_hits) 0;
  (match p.p_prof_hits with
   | [] -> ()
   | sites ->
     if Array.length t.prof_hits <> Array.length t.code then
       t.prof_hits <- Array.make (Array.length t.code) 0;
     List.iter (fun (i, h) -> t.prof_hits.(i) <- h) sites);
  Array.fill t.fm_page 0 6 (-1);
  Array.fill t.fm_gen 0 6 (-1)

(* --- the flattened hot path -------------------------------------------- *)

(* Under dune's dev profile every cross-module call compiles to an opaque
   generic application (no .cmx is read), so the per-instruction path
   keeps local copies of the few small register / memory / translation
   steps taken on every simulated access. Each copy mirrors its owning
   module bit for bit: the module stays authoritative, slow and cold
   paths still call it, and the engine-equivalence suite pins the two
   together. *)

external unsafe_get_16 : Bytes.t -> int -> int = "%caml_bytes_get16u"
external unsafe_set_16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"
external unsafe_get_32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external unsafe_set_32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external unsafe_get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external swap16 : int -> int = "%bswap16"
external swap32 : int32 -> int32 = "%bswap_int32"
external swap64 : int64 -> int64 = "%bswap_int64"

(* [Registers.reg_index] / [freg_index] / [to_signed], in-unit. *)
let[@inline] reg_index (r : Registers.reg) =
  match r with
  | Registers.EAX -> 0 | Registers.EBX -> 1 | Registers.ECX -> 2
  | Registers.EDX -> 3 | Registers.ESI -> 4 | Registers.EDI -> 5
  | Registers.EBP -> 6 | Registers.ESP -> 7

let[@inline] freg_index (r : Registers.freg) =
  match r with
  | Registers.XMM0 -> 0 | Registers.XMM1 -> 1 | Registers.XMM2 -> 2
  | Registers.XMM3 -> 3 | Registers.XMM4 -> 4 | Registers.XMM5 -> 5
  | Registers.XMM6 -> 6 | Registers.XMM7 -> 7

(* Indices are 0..7 into the 8-element files, so unchecked access is
   safe; [rset] maintains the register file's 32-bit masking invariant. *)
let[@inline] rget t r = Array.unsafe_get t.regs.Registers.gp (reg_index r)

let[@inline] rset t r v =
  Array.unsafe_set t.regs.Registers.gp (reg_index r) (v land 0xFFFFFFFF)

let[@inline] fget t r = Array.unsafe_get t.regs.Registers.fp (freg_index r)
let[@inline] fset t r v = Array.unsafe_set t.regs.Registers.fp (freg_index r) v

let[@inline] to_signed v =
  let v = v land 0xFFFFFFFF in
  if v >= 0x80000000 then v - 0x100000000 else v

(* Sign-extend an 8-/16-bit value into the low 32 bits — the one
   definition of Movsx's widening, shared by [eff_movsx] and the
   superblock closure compiler's byte-load specialisations. *)
let[@inline] sx8 v = if v land 0x80 <> 0 then v lor 0xFFFFFF00 else v
let[@inline] sx16 v = if v land 0x8000 <> 0 then v lor 0xFFFF0000 else v

let[@inline] width_bytes (w : Insn.width) =
  match w with Insn.Byte -> 1 | Insn.Word -> 2 | Insn.Long -> 4

(* [Phys_mem] accessors, in-unit: one unaligned load/store against the
   current buffer; anything that misses the allocated capacity (growth,
   straddling reads) leaves the unit for the module. [high_water] is
   maintained exactly as [Phys_mem.ensure] would. *)
let[@inline] p_read8 (p : Phys_mem.t) addr =
  let data = p.Phys_mem.data in
  if addr + 1 > Bytes.length data then 0
  else Char.code (Bytes.unsafe_get data addr)

let[@inline] p_write8 (p : Phys_mem.t) addr v =
  let data = p.Phys_mem.data in
  if addr + 1 <= Bytes.length data then begin
    if addr + 1 > p.Phys_mem.high_water then p.Phys_mem.high_water <- addr + 1;
    Bytes.unsafe_set data addr (Char.unsafe_chr (v land 0xFF))
  end
  else Phys_mem.write8 p addr v

let[@inline] p_read16 (p : Phys_mem.t) addr =
  let data = p.Phys_mem.data in
  if addr + 2 <= Bytes.length data then
    if Sys.big_endian then swap16 (unsafe_get_16 data addr)
    else unsafe_get_16 data addr
  else Phys_mem.read16 p addr

let[@inline] p_write16 (p : Phys_mem.t) addr v =
  let data = p.Phys_mem.data in
  if addr + 2 <= Bytes.length data then begin
    if addr + 2 > p.Phys_mem.high_water then p.Phys_mem.high_water <- addr + 2;
    let x = v land 0xFFFF in
    unsafe_set_16 data addr (if Sys.big_endian then swap16 x else x)
  end
  else Phys_mem.write16 p addr v

let[@inline] p_read32 (p : Phys_mem.t) addr =
  let data = p.Phys_mem.data in
  if addr + 4 <= Bytes.length data then
    Int32.to_int
      (if Sys.big_endian then swap32 (unsafe_get_32 data addr)
       else unsafe_get_32 data addr)
    land 0xFFFFFFFF
  else Phys_mem.read32 p addr

let[@inline] p_write32 (p : Phys_mem.t) addr v =
  let data = p.Phys_mem.data in
  if addr + 4 <= Bytes.length data then begin
    if addr + 4 > p.Phys_mem.high_water then p.Phys_mem.high_water <- addr + 4;
    let x = Int32.of_int v in
    unsafe_set_32 data addr (if Sys.big_endian then swap32 x else x)
  end
  else Phys_mem.write32 p addr v

let[@inline] p_read_float (p : Phys_mem.t) addr =
  let data = p.Phys_mem.data in
  if addr + 8 <= Bytes.length data then
    Int64.float_of_bits
      (if Sys.big_endian then swap64 (unsafe_get_64 data addr)
       else unsafe_get_64 data addr)
  else Phys_mem.read_float p addr

let[@inline] p_write_float (p : Phys_mem.t) addr v =
  let data = p.Phys_mem.data in
  if addr + 8 <= Bytes.length data then begin
    if addr + 8 > p.Phys_mem.high_water then p.Phys_mem.high_water <- addr + 8;
    let x = Int64.bits_of_float v in
    unsafe_set_64 data addr (if Sys.big_endian then swap64 x else x)
  end
  else Phys_mem.write_float p addr v

(* Segreg slot index for the per-segment fast-path arrays. *)
let[@inline] seg_slot (s : Seghw.Segreg.name) =
  match s with
  | Seghw.Segreg.CS -> 0 | Seghw.Segreg.SS -> 1 | Seghw.Segreg.DS -> 2
  | Seghw.Segreg.ES -> 3 | Seghw.Segreg.FS -> 4 | Seghw.Segreg.GS -> 5

(* [Seghw.Mmu.translate], in-unit: bump the limit-check counter, run the
   segment-limit compare chain over the flattened descriptor mirror,
   probe the direct-mapped TLB. Segment faults and TLB misses leave the
   unit, so diagnostics, counter discipline, and the page walk stay the
   module's.

   Under the block engine ([t.fm_enabled]) a per-segment one-entry cache
   short-circuits the TLB probe: if the last page accessed through this
   segreg is accessed again and the TLB generation counter has not moved
   since the cache was filled, the TLB provably still holds that exact
   entry (every insert/invalidate/flush bumps the generation), so the
   access is accounted as a TLB hit — same counters, same trace events —
   without touching the hash arrays. Any generation movement, page
   change, or write-over-read-only falls back to the real probe, which
   refills the cache. Segreg reloads need no special handling: the cache
   is keyed by linear page, and a reload changes [f_base] upstream of
   the key.

   [translate_via] is that one definition, parameterized over the
   pre-resolved segment-register mirror [sr] and fast-path slot [k]:
   the stepping engines resolve both per access (through [translate]
   below); the superblock closure compiler resolves them once at
   closure-compile time — legal because [Mmu.t]'s segreg fields are
   immutable references to in-place-mutated records — and calls
   [translate_via] directly. One code path either way, so the engines
   cannot diverge on translation semantics.

   [tr] is the event sink consulted by the emit sites. The stepping
   engines pass [mmu.trace]; compiled block closures pass a literal
   [None], which is exact, not an approximation: those closures only
   ever execute in [run]'s untraced [Block] arm ([t.sink = None]),
   and [set_sink] sets [t.sink] and [mmu.trace] together, so
   [mmu.trace] is provably [None] whenever one runs. A traced [Block]
   CPU steps through [exec], and therefore [translate]'s live
   [mmu.trace]. *)
let[@inline] translate_via t mmu sr k ~tr ~seg_name ~offset ~size ~write =
  mmu.Seghw.Mmu.limit_checks <- mmu.Seghw.Mmu.limit_checks + 1;
  let off = offset land 0xFFFFFFFF in
  if
    sr.Seghw.Segreg.f_valid
    && ((not write) || sr.Seghw.Segreg.f_writable)
    && size > 0
    && off + size - 1 <= sr.Seghw.Segreg.f_limit
  then begin
    (match tr with
     | None -> ()
     | Some s ->
       Trace.emit s
         (Trace.Limit_check
            { seg = Seghw.Segreg.name_to_string seg_name;
              base = sr.Seghw.Segreg.f_base; offset = off; size; write;
              ok = true }));
    let linear = (sr.Seghw.Segreg.f_base + off) land 0xFFFFFFFF in
    let tlb = mmu.Seghw.Mmu.tlb in
    let page = linear lsr Seghw.Paging.page_shift in
    if
      t.fm_enabled
      && Array.unsafe_get t.fm_page k = page
      && Array.unsafe_get t.fm_gen k = tlb.Seghw.Tlb.gen
      && ((not write) || Array.unsafe_get t.fm_writable k)
    then begin
      (* The generation check proves the TLB still caches this entry, so
         the accounting of the skipped probe is exact: one hit. *)
      tlb.Seghw.Tlb.hits <- tlb.Seghw.Tlb.hits + 1;
      (match tr with
       | None -> ()
       | Some s -> Trace.emit s Trace.Tlb_hit);
      linear + Array.unsafe_get t.fm_delta k
    end
    else begin
      let slot = page land tlb.Seghw.Tlb.mask in
      let phys =
        if
          Array.unsafe_get tlb.Seghw.Tlb.tags slot = page
          && ((not write) || Array.unsafe_get tlb.Seghw.Tlb.writable slot)
        then begin
          tlb.Seghw.Tlb.hits <- tlb.Seghw.Tlb.hits + 1;
          (match tr with
           | None -> ()
           | Some s -> Trace.emit s Trace.Tlb_hit);
          (Array.unsafe_get tlb.Seghw.Tlb.frames slot
           lsl Seghw.Paging.page_shift)
          lor (linear land 0xFFF)
        end
        else begin
          tlb.Seghw.Tlb.misses <- tlb.Seghw.Tlb.misses + 1;
          (match tr with
           | None -> ()
           | Some s ->
             let old = Array.unsafe_get tlb.Seghw.Tlb.tags slot in
             Trace.emit s
               (Trace.Tlb_miss { page; evicted = old >= 0 && old <> page }));
          let phys = Seghw.Paging.walk mmu.Seghw.Mmu.paging ~linear ~write in
          Seghw.Tlb.insert tlb ~page
            ~frame:(phys lsr Seghw.Paging.page_shift)
            ~writable:write;
          phys
        end
      in
      if t.fm_enabled then begin
        (* Refill from the slot the probe (or the walk's insert) just
           left for this page: recording the slot's writability — not
           [write] — lets a later write hit after a write walk while a
           read-filled entry stays read-only, exactly the TLB's own
           upgrade-in-place discipline. *)
        Array.unsafe_set t.fm_page k page;
        Array.unsafe_set t.fm_delta k (phys - linear);
        Array.unsafe_set t.fm_writable k
          (Array.unsafe_get tlb.Seghw.Tlb.writable slot);
        Array.unsafe_set t.fm_gen k tlb.Seghw.Tlb.gen
      end;
      phys
    end
  end
  else begin
    (* Some fast-path condition failed; [Segreg.translate] re-runs the
       same test over the same mirror and raises the architectural
       fault with the module's exact diagnostics. *)
    (match tr with
     | None -> ()
     | Some s ->
       Trace.emit s
         (Trace.Limit_check
            { seg = Seghw.Segreg.name_to_string seg_name;
              base = sr.Seghw.Segreg.f_base; offset = off; size; write;
              ok = false }));
    let stack = match seg_name with Seghw.Segreg.SS -> true | _ -> false in
    let linear =
      Seghw.Segreg.translate sr ~name:seg_name ~offset ~size ~write ~stack
    in
    Seghw.Mmu.translate_linear mmu ~linear ~write
  end

let[@inline] seg_field (mmu : Seghw.Mmu.t) (s : Seghw.Segreg.name) =
  match s with
  | Seghw.Segreg.CS -> mmu.Seghw.Mmu.cs
  | Seghw.Segreg.SS -> mmu.Seghw.Mmu.ss
  | Seghw.Segreg.DS -> mmu.Seghw.Mmu.ds
  | Seghw.Segreg.ES -> mmu.Seghw.Mmu.es
  | Seghw.Segreg.FS -> mmu.Seghw.Mmu.fs
  | Seghw.Segreg.GS -> mmu.Seghw.Mmu.gs

let[@inline] translate t ~seg_name ~offset ~size ~write =
  let mmu = t.mmu in
  translate_via t mmu (seg_field mmu seg_name) (seg_slot seg_name)
    ~tr:mmu.Seghw.Mmu.trace ~seg_name ~offset ~size ~write

(* --- memory access through segmentation ------------------------------- *)

let[@inline] default_seg (m : Insn.mem) =
  match m.Insn.seg with
  | Some s -> s
  | None ->
    (match m.Insn.base with
     | Some Registers.EBP | Some Registers.ESP -> Seghw.Segreg.SS
     | _ -> Seghw.Segreg.DS)

let[@inline] effective_offset t (m : Insn.mem) =
  let base = match m.Insn.base with
    | Some r -> rget t r
    | None -> 0
  in
  let index = match m.Insn.index with
    | Some (r, scale) -> rget t r * scale
    | None -> 0
  in
  (base + index + m.Insn.disp) land 0xFFFFFFFF

let[@inline] load_mem t (m : Insn.mem) ~width =
  let size = width_bytes width in
  let offset = effective_offset t m in
  let phys_addr =
    translate t ~seg_name:(default_seg m) ~offset ~size
      ~write:false
  in
  match width with
  | Insn.Byte -> p_read8 t.phys phys_addr
  | Insn.Word -> p_read16 t.phys phys_addr
  | Insn.Long -> p_read32 t.phys phys_addr

let[@inline] store_mem t (m : Insn.mem) ~width v =
  let size = width_bytes width in
  let offset = effective_offset t m in
  let phys_addr =
    translate t ~seg_name:(default_seg m) ~offset ~size
      ~write:true
  in
  match width with
  | Insn.Byte -> p_write8 t.phys phys_addr v
  | Insn.Word -> p_write16 t.phys phys_addr v
  | Insn.Long -> p_write32 t.phys phys_addr v

let[@inline] load_f64 t (m : Insn.mem) =
  let offset = effective_offset t m in
  let phys_addr =
    translate t ~seg_name:(default_seg m) ~offset ~size:8
      ~write:false
  in
  p_read_float t.phys phys_addr

let[@inline] store_f64 t (m : Insn.mem) v =
  let offset = effective_offset t m in
  let phys_addr =
    translate t ~seg_name:(default_seg m) ~offset ~size:8
      ~write:true
  in
  p_write_float t.phys phys_addr v

let[@inline] read_operand t (o : Insn.operand) ~width =
  match o with
  | Insn.Reg r ->
    let v = rget t r in
    (match width with
     | Insn.Long -> v
     | Insn.Word -> v land 0xFFFF
     | Insn.Byte -> v land 0xFF)
  | Insn.Imm i -> i land 0xFFFFFFFF
  | Insn.Mem m -> load_mem t m ~width

let[@inline] write_operand t (o : Insn.operand) ~width v =
  match o with
  | Insn.Reg r ->
    (match width with
     | Insn.Long -> rset t r v
     | Insn.Word ->
       let old = rget t r in
       rset t r ((old land 0xFFFF0000) lor (v land 0xFFFF))
     | Insn.Byte ->
       let old = rget t r in
       rset t r ((old land 0xFFFFFF00) lor (v land 0xFF)))
  | Insn.Mem m -> store_mem t m ~width v
  | Insn.Imm _ -> Seghw.Fault.ud "write to immediate operand"

let[@inline] read_fsrc t = function
  | Insn.Freg r -> fget t r
  | Insn.Fmem m -> load_f64 t m

(* --- flags ------------------------------------------------------------ *)

let[@inline] sign32 v = v land 0x80000000 <> 0

let[@inline] set_flags_result t r =
  let r = r land 0xFFFFFFFF in
  t.zf <- r = 0;
  t.sf <- sign32 r

let[@inline] set_flags_sub t a b =
  let a = a land 0xFFFFFFFF and b = b land 0xFFFFFFFF in
  let r = (a - b) land 0xFFFFFFFF in
  t.cf <- a < b;
  t.zf <- r = 0;
  t.sf <- sign32 r;
  t.ovf <- sign32 a <> sign32 b && sign32 r <> sign32 a

let[@inline] set_flags_add t a b =
  let a = a land 0xFFFFFFFF and b = b land 0xFFFFFFFF in
  let r = a + b in
  t.cf <- r > 0xFFFFFFFF;
  let r = r land 0xFFFFFFFF in
  t.zf <- r = 0;
  t.sf <- sign32 r;
  t.ovf <- sign32 a = sign32 b && sign32 r <> sign32 a

let[@inline] set_flags_logic t r =
  t.cf <- false;
  t.ovf <- false;
  set_flags_result t r

let[@inline] cond_holds t (c : Insn.cond) =
  match c with
  | Insn.Eq -> t.zf
  | Insn.Ne -> not t.zf
  | Insn.Lt -> t.sf <> t.ovf
  | Insn.Le -> t.zf || t.sf <> t.ovf
  | Insn.Gt -> (not t.zf) && t.sf = t.ovf
  | Insn.Ge -> t.sf = t.ovf
  | Insn.Below -> t.cf
  | Insn.Below_eq -> t.cf || t.zf
  | Insn.Above -> (not t.cf) && not t.zf
  | Insn.Above_eq -> not t.cf

(* --- stack helpers ----------------------------------------------------- *)

(* Like [translate]/[translate_via]: the [_via] forms are the single
   definitions, with the segment mirror pre-resolved by the caller —
   per access here, once at closure-compile time in the superblock
   compiler. *)
let[@inline] push32_via t mmu sr k ~tr seg v =
  let esp = (rget t Registers.ESP - 4) land 0xFFFFFFFF in
  rset t Registers.ESP esp;
  let phys_addr =
    translate_via t mmu sr k ~tr ~seg_name:seg ~offset:esp ~size:4 ~write:true
  in
  p_write32 t.phys phys_addr v

let[@inline] push32 t v ~seg =
  let mmu = t.mmu in
  push32_via t mmu (seg_field mmu seg) (seg_slot seg) ~tr:mmu.Seghw.Mmu.trace
    seg v

let[@inline] pop32_via t mmu sr k ~tr seg =
  let esp = rget t Registers.ESP in
  let phys_addr =
    translate_via t mmu sr k ~tr ~seg_name:seg ~offset:esp ~size:4 ~write:false
  in
  let v = p_read32 t.phys phys_addr in
  rset t Registers.ESP ((esp + 4) land 0xFFFFFFFF);
  v

let[@inline] pop32 t ~seg =
  let mmu = t.mmu in
  pop32_via t mmu (seg_field mmu seg) (seg_slot seg) ~tr:mmu.Seghw.Mmu.trace
    seg

(* Read the [n]th 32-bit argument of a Callext host routine (0-based;
   arguments were pushed cdecl so arg 0 sits at [ESP]). *)
let arg_int t n =
  let esp = rget t Registers.ESP in
  let phys_addr =
    translate t ~seg_name:Seghw.Segreg.DS
      ~offset:((esp + (4 * n)) land 0xFFFFFFFF)
      ~size:4 ~write:false
  in
  p_read32 t.phys phys_addr

let arg_float t n =
  let esp = rget t Registers.ESP in
  let phys_addr =
    translate t ~seg_name:Seghw.Segreg.DS
      ~offset:((esp + (4 * n)) land 0xFFFFFFFF)
      ~size:8 ~write:false
  in
  p_read_float t.phys phys_addr

let return_int t v = rset t Registers.EAX v
let return_float t v = fset t Registers.XMM0 v

(* --- shared operand effects -------------------------------------------- *)

(* One definition of every straight-line instruction effect, shared by
   all three execution paths: [exec] (pre-decoded), [exec_reference],
   and the superblock closure compiler each dispatch into these, so a
   path cannot silently diverge on an ALU or memory semantics detail. Control
   transfers and cycle/EIP commits stay engine-specific by design —
   that is exactly what distinguishes the engines. *)

let[@inline] eff_mov t w dst src =
  write_operand t dst ~width:w (read_operand t src ~width:w)

let[@inline] eff_lea t r m = rset t r (effective_offset t m)

let[@inline] eff_movsx t r src w =
  let v = read_operand t src ~width:w in
  let v =
    match w with
    | Insn.Byte -> sx8 v
    | Insn.Word -> sx16 v
    | Insn.Long -> v
  in
  rset t r v

let[@inline] eff_movzx t r src w = rset t r (read_operand t src ~width:w)

(* Flags and 32-bit result of one ALU operation (the caller writes the
   destination). *)
let[@inline] alu_result t (op : Insn.alu) a b =
  match op with
  | Insn.Add -> set_flags_add t a b; a + b
  | Insn.Sub -> set_flags_sub t a b; a - b
  | Insn.And -> let r = a land b in set_flags_logic t r; r
  | Insn.Or -> let r = a lor b in set_flags_logic t r; r
  | Insn.Xor -> let r = a lxor b in set_flags_logic t r; r
  | Insn.Imul ->
    let r = to_signed a * to_signed b in
    set_flags_logic t r; r
  | Insn.Shl -> let r = a lsl (b land 31) in set_flags_logic t r; r
  | Insn.Shr -> let r = a lsr (b land 31) in set_flags_logic t r; r
  | Insn.Sar ->
    let r = to_signed a asr (b land 31) in
    set_flags_logic t r; r

let[@inline] eff_alu t op dst src =
  let a = read_operand t dst ~width:Insn.Long in
  let b = read_operand t src ~width:Insn.Long in
  write_operand t dst ~width:Insn.Long (alu_result t op a b)

let[@inline] eff_idiv t src =
  let a = to_signed (rget t Registers.EAX) in
  let b = to_signed (read_operand t src ~width:Insn.Long) in
  if b = 0 then Seghw.Fault.ud "integer division by zero";
  let q = a / b and r = a mod b in
  rset t Registers.EAX q;
  rset t Registers.EDX r

let[@inline] eff_neg t o =
  let v = read_operand t o ~width:Insn.Long in
  set_flags_sub t 0 v;
  write_operand t o ~width:Insn.Long (-v)

let[@inline] inc_result t v =
  let r = v + 1 in
  set_flags_result t r;
  t.ovf <- v land 0xFFFFFFFF = 0x7FFFFFFF;
  r

let[@inline] dec_result t v =
  let r = v - 1 in
  set_flags_result t r;
  t.ovf <- v land 0xFFFFFFFF = 0x80000000;
  r

let[@inline] eff_inc t o =
  let v = read_operand t o ~width:Insn.Long in
  write_operand t o ~width:Insn.Long (inc_result t v)

let[@inline] eff_dec t o =
  let v = read_operand t o ~width:Insn.Long in
  write_operand t o ~width:Insn.Long (dec_result t v)

let[@inline] eff_cmp t a b =
  set_flags_sub t
    (read_operand t a ~width:Insn.Long)
    (read_operand t b ~width:Insn.Long)

let[@inline] eff_test t a b =
  set_flags_logic t
    (read_operand t a ~width:Insn.Long land read_operand t b ~width:Insn.Long)

let[@inline] eff_setcc t c r = rset t r (if cond_holds t c then 1 else 0)

let[@inline] eff_fmov t dst src =
  let v = read_fsrc t src in
  match (dst : Insn.fsrc) with
  | Insn.Freg r -> fset t r v
  | Insn.Fmem m -> store_f64 t m v

let[@inline] eff_falu t (op : Insn.falu) dst src =
  let a = fget t dst in
  let b = read_fsrc t src in
  let r =
    match op with
    | Insn.Fadd -> a +. b
    | Insn.Fsub -> a -. b
    | Insn.Fmul -> a *. b
    | Insn.Fdiv -> a /. b
  in
  fset t dst r

let[@inline] eff_fcmp t a src =
  (* comisd: ZF/CF as for an unsigned compare; OF/SF cleared *)
  let x = fget t a in
  let y = read_fsrc t src in
  t.ovf <- false;
  t.sf <- false;
  t.zf <- x = y;
  t.cf <- x < y

let[@inline] eff_fsqrt t d src = fset t d (sqrt (read_fsrc t src))

let[@inline] eff_cvtsi2sd t d src =
  fset t d (float_of_int (to_signed (read_operand t src ~width:Insn.Long)))

let[@inline] eff_cvtsd2si t d src =
  let f = read_fsrc t src in
  rset t d (truncate f)

let[@inline] eff_push t o =
  push32 t (read_operand t o ~width:Insn.Long) ~seg:Seghw.Segreg.SS

let[@inline] eff_pop t o =
  write_operand t o ~width:Insn.Long (pop32 t ~seg:Seghw.Segreg.SS)

let[@inline] eff_mov_to_seg t name o =
  let sel = Seghw.Selector.of_int (read_operand t o ~width:Insn.Word) in
  Seghw.Mmu.load_segreg t.mmu name sel

let[@inline] eff_mov_from_seg t o name =
  write_operand t o ~width:Insn.Word
    (Seghw.Selector.to_int (Seghw.Mmu.read_segreg t.mmu name))

let[@inline] eff_bound t r m =
  (* bound r32, m32&32: lower word at [m], upper at [m+4]; the checked
     value must satisfy lower <= r <= upper, else #BR. *)
  let v = to_signed (rget t r) in
  let lower = to_signed (load_mem t m ~width:Insn.Long) in
  let upper =
    to_signed
      (load_mem t { m with Insn.disp = m.Insn.disp + 4 } ~width:Insn.Long)
  in
  if v < lower || v > upper then
    Seghw.Fault.br (Printf.sprintf "bound: %d not in [%d, %d]" v lower upper)

(* --- MPX-style bounds registers ----------------------------------------
   The bound-register instructions never touch guest memory themselves:
   BNDMK reads only registers, and BNDLDX/BNDSTX key the hardware-owned
   two-level table by the *linear address* of the pointer's memory slot
   (segment base + effective address) — the same key no matter which
   segment register or addressing mode names the slot, so a caller's
   spill and a callee's reload meet at the same entry. Computing the key
   performs no limit check and can't fault: it is the hardware's
   internal address arithmetic, as in real MPX. *)

let[@inline] btable_key t (m : Insn.mem) =
  let sr = seg_field t.mmu (default_seg m) in
  (sr.Seghw.Segreg.f_base + effective_offset t m) land 0xFFFFFFFF

let[@inline] eff_bndmk t b (m : Insn.mem) =
  (* bndmk bnd, m: lower = value of m's base register (0 when absent),
     upper = the full effective address — one past the end, so
     [base + disp:size] and [base + index*1] (malloc's byte count in a
     scaled index) both form [base, base+size). *)
  let lower =
    match m.Insn.base with Some r -> rget t r | None -> 0
  in
  let upper = effective_offset t m in
  Seghw.Bound_regs.set t.mmu.Seghw.Mmu.bndregs b ~lower ~upper

let[@inline] eff_bndcl t b o =
  let bnd = Seghw.Bound_regs.reg t.mmu.Seghw.Mmu.bndregs b in
  if bnd.Seghw.Bound_regs.valid then begin
    let v = read_operand t o ~width:Insn.Long in
    if v < bnd.Seghw.Bound_regs.lower then
      Seghw.Fault.br
        (Printf.sprintf "bndcl: 0x%x below lower bound 0x%x" v
           bnd.Seghw.Bound_regs.lower)
  end

let[@inline] eff_bndcu t b o size =
  let bnd = Seghw.Bound_regs.reg t.mmu.Seghw.Mmu.bndregs b in
  if bnd.Seghw.Bound_regs.valid then begin
    let v = read_operand t o ~width:Insn.Long in
    if v + size > bnd.Seghw.Bound_regs.upper then
      Seghw.Fault.br
        (Printf.sprintf "bndcu: 0x%x+%d above upper bound 0x%x" v size
           bnd.Seghw.Bound_regs.upper)
  end

let[@inline] eff_bndldx t b (m : Insn.mem) =
  let key = btable_key t m in
  let hit = Seghw.Bound_regs.load t.mmu.Seghw.Mmu.bndregs b ~key in
  match t.mmu.Seghw.Mmu.trace with
  | None -> ()
  | Some s -> Trace.emit s (Trace.Btable_load { key; hit })

let[@inline] eff_bndstx t b (m : Insn.mem) =
  let key = btable_key t m in
  let allocated = Seghw.Bound_regs.store t.mmu.Seghw.Mmu.bndregs b ~key in
  (* A store that must allocate a second-level table pays extra memory
     traffic — the analogue of the paper's LDT-reload accounting. The
     charge is purely additive and keyed on architectural table state,
     so every execution path charges it identically. *)
  if allocated then
    t.cycles <- t.cycles + Seghw.Bound_regs.dir_alloc_cycles

(* --- capability instructions -------------------------------------------
   A capability is 2 words in the compiled code: the raw pointer plus a
   capability word [(captab index lsl 1) lor tag]. CAPMK interns the
   range in the hardware table; CAPCHK validates the tag and range on
   every dereference; CAPCLR clears the tag (GANDALF-style) when
   pointer arithmetic escapes the range. *)

let[@inline] eff_capmk t dst lo hi =
  let lower = read_operand t lo ~width:Insn.Long in
  let upper = read_operand t hi ~width:Insn.Long in
  let idx = Seghw.Captab.intern t.mmu.Seghw.Mmu.captab ~lower ~upper in
  rset t dst (Seghw.Captab.word_of_index idx)

let[@inline] eff_capchk t cap (m : Insn.mem) size write =
  let tab = t.mmu.Seghw.Mmu.captab in
  tab.Seghw.Captab.checks <- tab.Seghw.Captab.checks + 1;
  let w = rget t cap in
  if Seghw.Captab.tag_of w = 0 then
    Seghw.Fault.br
      (Printf.sprintf "capability tag: %s through untagged capability"
         (if write then "write" else "read"));
  let lower, upper = Seghw.Captab.bounds tab (Seghw.Captab.index_of w) in
  let ea = effective_offset t m in
  if ea < lower || ea + size > upper then
    Seghw.Fault.br
      (Printf.sprintf
         "capability bounds: %s 0x%x+%d outside [0x%x, 0x%x)"
         (if write then "write" else "read") ea size lower upper)

let[@inline] eff_capclr t vr cr =
  let w = rget t cr in
  if Seghw.Captab.tag_of w = 1 then begin
    let tab = t.mmu.Seghw.Mmu.captab in
    let lower, upper = Seghw.Captab.bounds tab (Seghw.Captab.index_of w) in
    let v = rget t vr in
    (* The upper bound is inclusive for arithmetic: a one-past-the-end
       pointer keeps its tag (C's &a[n] idiom); dereferencing it still
       faults in CAPCHK, whose upper is exclusive. *)
    if v < lower || v > upper then begin
      tab.Seghw.Captab.tag_clears <- tab.Seghw.Captab.tag_clears + 1;
      rset t cr (w land lnot 1);
      match t.mmu.Seghw.Mmu.trace with
      | None -> ()
      | Some s ->
        Trace.emit s (Trace.Cap_tag_clear { value = v; lower; upper })
    end
  end

let[@inline] eff_callext t name =
  match Hashtbl.find_opt t.externals name with
  | Some f -> f t
  | None -> Seghw.Fault.ud (Printf.sprintf "undefined external %S" name)

(* --- the pre-decoded execution path ------------------------------------ *)

(* Execute the instruction at index [eip] and return the next EIP.
   Control transfers read their pre-resolved target from [t.targets];
   every other instruction falls through. The caller commits EIP and
   charges the pre-tabulated cycle cost — so a faulting instruction
   (OCaml exception) leaves EIP, the instruction count, and the cycle
   count untouched, exactly like the reference engine. Taking [eip] as
   a parameter (rather than reading [t.eip]) lets the block engine
   execute mid-block instructions without maintaining [t.eip] per
   step. *)
let exec t eip (i : Insn.t) =
  let next = eip + 1 in
  match i with
  | Insn.Label _ ->
    incr (Array.unsafe_get t.stat_refs eip);
    next
  | Insn.Nop -> next
  | Insn.Halt -> t.status <- Halted; next
  | Insn.Mov (w, dst, src) -> eff_mov t w dst src; next
  | Insn.Lea (r, m) -> eff_lea t r m; next
  | Insn.Movsx (r, src, w) -> eff_movsx t r src w; next
  | Insn.Movzx (r, src, w) -> eff_movzx t r src w; next
  | Insn.Alu (op, dst, src) -> eff_alu t op dst src; next
  | Insn.Idiv src -> eff_idiv t src; next
  | Insn.Neg o -> eff_neg t o; next
  | Insn.Inc o -> eff_inc t o; next
  | Insn.Dec o -> eff_dec t o; next
  | Insn.Cmp (a, b) -> eff_cmp t a b; next
  | Insn.Test (a, b) -> eff_test t a b; next
  | Insn.Setcc (c, r) -> eff_setcc t c r; next
  | Insn.Fmov (dst, src) -> eff_fmov t dst src; next
  | Insn.Fload_const (r, f) -> fset t r f; next
  | Insn.Falu (op, dst, src) -> eff_falu t op dst src; next
  | Insn.Fcmp (a, src) -> eff_fcmp t a src; next
  | Insn.Fneg r -> fset t r (-.fget t r); next
  | Insn.Fsqrt (d, src) -> eff_fsqrt t d src; next
  | Insn.Cvtsi2sd (d, src) -> eff_cvtsi2sd t d src; next
  | Insn.Cvtsd2si (d, src) -> eff_cvtsd2si t d src; next
  | Insn.Jmp _ -> Array.unsafe_get t.targets eip
  | Insn.Jcc (c, _) ->
    if cond_holds t c then Array.unsafe_get t.targets eip else next
  | Insn.Call _ ->
    push32 t next ~seg:Seghw.Segreg.DS;
    Array.unsafe_get t.targets eip
  | Insn.Ret -> pop32 t ~seg:Seghw.Segreg.DS
  | Insn.Push o -> eff_push t o; next
  | Insn.Pop o -> eff_pop t o; next
  | Insn.Mov_to_seg (name, o) -> eff_mov_to_seg t name o; next
  | Insn.Mov_from_seg (o, name) -> eff_mov_from_seg t o name; next
  | Insn.Lcall_gate sel -> t.kernel t ~gate:(`Gate sel); next
  | Insn.Int_syscall n -> t.kernel t ~gate:(`Int n); next
  | Insn.Bound (r, m) -> eff_bound t r m; next
  | Insn.Bndmk (b, m) -> eff_bndmk t b m; next
  | Insn.Bndcl (b, o) -> eff_bndcl t b o; next
  | Insn.Bndcu (b, o, size) -> eff_bndcu t b o size; next
  | Insn.Bndldx (b, m) -> eff_bndldx t b m; next
  | Insn.Bndstx (b, m) -> eff_bndstx t b m; next
  | Insn.Capmk (dst, lo, hi) -> eff_capmk t dst lo hi; next
  | Insn.Capchk (cap, m, size, write) -> eff_capchk t cap m size write; next
  | Insn.Capclr (vr, cr) -> eff_capclr t vr cr; next
  | Insn.Callext name -> eff_callext t name; next

(* One pre-decoded step: fetch, execute, commit EIP, charge the
   tabulated cost. *)
let step_predecoded t =
  let eip = t.eip in
  if eip < 0 || eip >= Array.length t.code then
    Seghw.Fault.gp (Printf.sprintf "EIP %d outside code" eip);
  let next = exec t eip (Array.unsafe_get t.code eip) in
  t.eip <- next;
  t.insns_executed <- t.insns_executed + 1;
  t.cycles <- t.cycles + Array.unsafe_get t.cost_tab eip;
  match t.sink with
  | None -> ()
  | Some _ ->
    Array.unsafe_set t.prof_hits eip (Array.unsafe_get t.prof_hits eip + 1)

(* --- the superblock engine --------------------------------------------- *)

(* The closure compiler: every instruction of a block is lowered, once
   per *program*, into an operand-resolved [t -> int] closure. Work the
   stepping engines redo per execution happens here once, at compile
   time:

   - the instruction-constructor match and every operand-shape match;
   - register names resolved to file indices;
   - the segment override / EBP-ESP default-segment rule;
   - the fast-path slot [k] of the access;
   - the addressing-mode shape (base/index/scale/displacement);
   - a terminator's branch target and fall-through EIP.

   Everything semantic still funnels into single shared definitions —
   [translate_via] (limit check, TLB probe, per-segment fast path),
   the [p_read*]/[p_write*] accessors, the flag setters and
   [inc_result]/[alu_result]/[sx8]-style combinators, [push32_via]/
   [pop32_via], [cond_holds], and the generic [eff_*] effects for
   every shape without a bespoke lowering — so the compiled form
   cannot diverge from the stepping engines; the engine-equivalence
   suites pin the specialised shapes.

   Closures are CPU-independent: they capture only program data (code
   indices, register-file slots, immediates, branch targets) and fetch
   the running CPU's register file, MMU, physical memory, and stat
   counters from the [cpu] argument at execution time. That is what
   lets [build_ublocks] share one compiled closure set process-wide
   across every machine running the same [Program.t]. A segment
   register's mirror is re-read from the running CPU's [mmu] per call
   ([seg_field] is a six-way constant-tag match, not a table walk), so
   it always reflects current descriptor state. *)

(* Physical-address closure for one memory operand: addressing shape,
   default segment, and fast-path slot resolved now; the returned
   closure does the adds and one [translate_via]. *)
let compile_addr (m : Insn.mem) ~size ~write : t -> int =
  let seg = default_seg m in
  let k = seg_slot seg in
  let disp = m.Insn.disp in
  match (m.Insn.base, m.Insn.index) with
  | Some b, None ->
    let bi = reg_index b in
    fun cpu ->
      let mmu = cpu.mmu in
      let off =
        (Array.unsafe_get cpu.regs.Registers.gp bi + disp) land 0xFFFFFFFF
      in
      translate_via cpu mmu (seg_field mmu seg) k ~tr:None ~seg_name:seg
        ~offset:off ~size ~write
  | Some b, Some (x, scale) ->
    let bi = reg_index b and xi = reg_index x in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      let mmu = cpu.mmu in
      let off =
        (Array.unsafe_get gp bi + (Array.unsafe_get gp xi * scale) + disp)
        land 0xFFFFFFFF
      in
      translate_via cpu mmu (seg_field mmu seg) k ~tr:None ~seg_name:seg
        ~offset:off ~size ~write
  | None, Some (x, scale) ->
    let xi = reg_index x in
    fun cpu ->
      let mmu = cpu.mmu in
      let off =
        ((Array.unsafe_get cpu.regs.Registers.gp xi * scale) + disp)
        land 0xFFFFFFFF
      in
      translate_via cpu mmu (seg_field mmu seg) k ~tr:None ~seg_name:seg
        ~offset:off ~size ~write
  | None, None ->
    let off = disp land 0xFFFFFFFF in
    fun cpu ->
      let mmu = cpu.mmu in
      translate_via cpu mmu (seg_field mmu seg) k ~tr:None ~seg_name:seg
        ~offset:off ~size ~write

(* Compile one non-terminator instruction. [ret] is the closure's
   return value — 0 for body instructions, the fall-through EIP when an
   ordinary instruction ends a block because the next one is a branch
   target. *)
let compile_insn code idx ~ret : t -> int =
  let kss = seg_slot Seghw.Segreg.SS in
  match (Array.get code idx : Insn.t) with
  | Insn.Label _ ->
    fun cpu -> incr (Array.unsafe_get cpu.stat_refs idx); ret
  | Insn.Nop -> fun _ -> ret
  | Insn.Mov (Insn.Long, Insn.Reg d, Insn.Reg s) ->
    let di = reg_index d and si = reg_index s in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      Array.unsafe_set gp di (Array.unsafe_get gp si);
      ret
  | Insn.Mov (Insn.Long, Insn.Reg d, Insn.Imm i) ->
    let di = reg_index d and v = i land 0xFFFFFFFF in
    fun cpu -> Array.unsafe_set cpu.regs.Registers.gp di v; ret
  (* The two hottest shapes — 32-bit loads and stores through a
     register-addressed operand — get the address computation fused
     into the instruction closure itself (no separate [compile_addr]
     closure call); everything still goes through the one
     [translate_via]. *)
  | Insn.Mov
      ( Insn.Long,
        Insn.Reg d,
        Insn.Mem ({ Insn.base = Some b; Insn.index = None; _ } as m) ) ->
    let seg = default_seg m in
    let k = seg_slot seg in
    let bi = reg_index b and di = reg_index d and disp = m.Insn.disp in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      let mmu = cpu.mmu in
      let off = (Array.unsafe_get gp bi + disp) land 0xFFFFFFFF in
      let phys =
        translate_via cpu mmu (seg_field mmu seg) k ~tr:None ~seg_name:seg
          ~offset:off ~size:4 ~write:false
      in
      Array.unsafe_set gp di (p_read32 cpu.phys phys);
      ret
  | Insn.Mov
      ( Insn.Long,
        Insn.Reg d,
        Insn.Mem ({ Insn.base = Some b; Insn.index = Some (x, sc); _ } as m) )
    ->
    let seg = default_seg m in
    let k = seg_slot seg in
    let bi = reg_index b
    and xi = reg_index x
    and di = reg_index d
    and disp = m.Insn.disp in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      let mmu = cpu.mmu in
      let off =
        (Array.unsafe_get gp bi + (Array.unsafe_get gp xi * sc) + disp)
        land 0xFFFFFFFF
      in
      let phys =
        translate_via cpu mmu (seg_field mmu seg) k ~tr:None ~seg_name:seg
          ~offset:off ~size:4 ~write:false
      in
      Array.unsafe_set gp di (p_read32 cpu.phys phys);
      ret
  | Insn.Mov (Insn.Long, Insn.Reg d, Insn.Mem m) ->
    let pa = compile_addr m ~size:4 ~write:false in
    let di = reg_index d in
    fun cpu ->
      Array.unsafe_set cpu.regs.Registers.gp di (p_read32 cpu.phys (pa cpu));
      ret
  | Insn.Mov
      ( Insn.Long,
        Insn.Mem ({ Insn.base = Some b; Insn.index = None; _ } as m),
        Insn.Reg s ) ->
    let seg = default_seg m in
    let k = seg_slot seg in
    let bi = reg_index b and si = reg_index s and disp = m.Insn.disp in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      let mmu = cpu.mmu in
      let off = (Array.unsafe_get gp bi + disp) land 0xFFFFFFFF in
      let phys =
        translate_via cpu mmu (seg_field mmu seg) k ~tr:None ~seg_name:seg
          ~offset:off ~size:4 ~write:true
      in
      p_write32 cpu.phys phys (Array.unsafe_get gp si);
      ret
  | Insn.Mov
      ( Insn.Long,
        Insn.Mem ({ Insn.base = Some b; Insn.index = Some (x, sc); _ } as m),
        Insn.Reg s ) ->
    let seg = default_seg m in
    let k = seg_slot seg in
    let bi = reg_index b
    and xi = reg_index x
    and si = reg_index s
    and disp = m.Insn.disp in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      let mmu = cpu.mmu in
      let off =
        (Array.unsafe_get gp bi + (Array.unsafe_get gp xi * sc) + disp)
        land 0xFFFFFFFF
      in
      let phys =
        translate_via cpu mmu (seg_field mmu seg) k ~tr:None ~seg_name:seg
          ~offset:off ~size:4 ~write:true
      in
      p_write32 cpu.phys phys (Array.unsafe_get gp si);
      ret
  | Insn.Mov (Insn.Long, Insn.Mem m, Insn.Reg s) ->
    let pa = compile_addr m ~size:4 ~write:true in
    let si = reg_index s in
    fun cpu ->
      p_write32 cpu.phys (pa cpu) (Array.unsafe_get cpu.regs.Registers.gp si);
      ret
  | Insn.Mov (Insn.Long, Insn.Mem m, Insn.Imm i) ->
    let pa = compile_addr m ~size:4 ~write:true in
    let v = i land 0xFFFFFFFF in
    fun cpu -> p_write32 cpu.phys (pa cpu) v; ret
  | Insn.Mov (Insn.Byte, Insn.Reg d, Insn.Mem m) ->
    (* Byte loads merge into the destination's low byte, exactly
       [write_operand]'s Byte case. *)
    let pa = compile_addr m ~size:1 ~write:false in
    let di = reg_index d in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      let v = p_read8 cpu.phys (pa cpu) land 0xFF in
      Array.unsafe_set gp di ((Array.unsafe_get gp di land 0xFFFFFF00) lor v);
      ret
  | Insn.Mov (Insn.Byte, Insn.Mem m, Insn.Reg s) ->
    let pa = compile_addr m ~size:1 ~write:true in
    let si = reg_index s in
    fun cpu ->
      p_write8 cpu.phys (pa cpu)
        (Array.unsafe_get cpu.regs.Registers.gp si land 0xFF);
      ret
  | Insn.Mov (Insn.Byte, Insn.Mem m, Insn.Imm i) ->
    let pa = compile_addr m ~size:1 ~write:true in
    let v = i land 0xFF in
    fun cpu -> p_write8 cpu.phys (pa cpu) v; ret
  | Insn.Mov (w, dst, src) -> fun cpu -> eff_mov cpu w dst src; ret
  | Insn.Lea (r, m) ->
    (* The four addressing shapes of [effective_offset], resolved here;
       [compile_addr] resolves the same shapes for real accesses. *)
    let di = reg_index r in
    let disp = m.Insn.disp in
    (match (m.Insn.base, m.Insn.index) with
     | Some b, None ->
       let bi = reg_index b in
       fun cpu ->
         let gp = cpu.regs.Registers.gp in
         Array.unsafe_set gp di ((Array.unsafe_get gp bi + disp) land 0xFFFFFFFF);
         ret
     | Some b, Some (x, sc) ->
       let bi = reg_index b and xi = reg_index x in
       fun cpu ->
         let gp = cpu.regs.Registers.gp in
         Array.unsafe_set gp di
           ((Array.unsafe_get gp bi + (Array.unsafe_get gp xi * sc) + disp)
            land 0xFFFFFFFF);
         ret
     | None, Some (x, sc) ->
       let xi = reg_index x in
       fun cpu ->
         let gp = cpu.regs.Registers.gp in
         Array.unsafe_set gp di
           (((Array.unsafe_get gp xi * sc) + disp) land 0xFFFFFFFF);
         ret
     | None, None ->
       let v = disp land 0xFFFFFFFF in
       fun cpu -> Array.unsafe_set cpu.regs.Registers.gp di v; ret)
  | Insn.Movsx (r, Insn.Mem m, Insn.Byte) ->
    let pa = compile_addr m ~size:1 ~write:false in
    let di = reg_index r in
    fun cpu ->
      Array.unsafe_set cpu.regs.Registers.gp di
        (sx8 (p_read8 cpu.phys (pa cpu)) land 0xFFFFFFFF);
      ret
  | Insn.Movsx (r, src, w) -> fun cpu -> eff_movsx cpu r src w; ret
  | Insn.Movzx (r, Insn.Mem m, Insn.Byte) ->
    let pa = compile_addr m ~size:1 ~write:false in
    let di = reg_index r in
    fun cpu ->
      Array.unsafe_set cpu.regs.Registers.gp di
        (p_read8 cpu.phys (pa cpu) land 0xFF);
      ret
  | Insn.Movzx (r, src, w) -> fun cpu -> eff_movzx cpu r src w; ret
  | Insn.Alu (Insn.Add, Insn.Reg d, Insn.Reg s) ->
    let di = reg_index d and si = reg_index s in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      let a = Array.unsafe_get gp di and b = Array.unsafe_get gp si in
      set_flags_add cpu a b;
      Array.unsafe_set gp di ((a + b) land 0xFFFFFFFF);
      ret
  | Insn.Alu (Insn.Add, Insn.Reg d, Insn.Imm i) ->
    let di = reg_index d and b = i land 0xFFFFFFFF in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      let a = Array.unsafe_get gp di in
      set_flags_add cpu a b;
      Array.unsafe_set gp di ((a + b) land 0xFFFFFFFF);
      ret
  | Insn.Alu (Insn.Sub, Insn.Reg d, Insn.Reg s) ->
    let di = reg_index d and si = reg_index s in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      let a = Array.unsafe_get gp di and b = Array.unsafe_get gp si in
      set_flags_sub cpu a b;
      Array.unsafe_set gp di ((a - b) land 0xFFFFFFFF);
      ret
  | Insn.Alu (Insn.Sub, Insn.Reg d, Insn.Imm i) ->
    let di = reg_index d and b = i land 0xFFFFFFFF in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      let a = Array.unsafe_get gp di in
      set_flags_sub cpu a b;
      Array.unsafe_set gp di ((a - b) land 0xFFFFFFFF);
      ret
  | Insn.Alu (op, Insn.Reg d, Insn.Reg s) ->
    let di = reg_index d and si = reg_index s in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      Array.unsafe_set gp di
        (alu_result cpu op (Array.unsafe_get gp di) (Array.unsafe_get gp si)
         land 0xFFFFFFFF);
      ret
  | Insn.Alu (op, Insn.Reg d, Insn.Imm i) ->
    let di = reg_index d and b = i land 0xFFFFFFFF in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      Array.unsafe_set gp di
        (alu_result cpu op (Array.unsafe_get gp di) b land 0xFFFFFFFF);
      ret
  | Insn.Alu (op, Insn.Reg d, Insn.Mem m) ->
    let pa = compile_addr m ~size:4 ~write:false in
    let di = reg_index d in
    fun cpu ->
      let b = p_read32 cpu.phys (pa cpu) in
      let gp = cpu.regs.Registers.gp in
      Array.unsafe_set gp di
        (alu_result cpu op (Array.unsafe_get gp di) b land 0xFFFFFFFF);
      ret
  | Insn.Alu (op, Insn.Mem m, Insn.Reg s) ->
    (* Mem-destination ALU measured at ~2.6% of grown-workload
       retirements (EXPERIMENTS.md PR 5), so it gets a bespoke
       lowering. Two pre-resolved translations in the generic effect's
       order — dst read, flags, dst write — so a write fault still
       lands after the flags commit, exactly like [eff_alu]. *)
    let ra = compile_addr m ~size:4 ~write:false in
    let wa = compile_addr m ~size:4 ~write:true in
    let si = reg_index s in
    fun cpu ->
      let ph = cpu.phys in
      let a = p_read32 ph (ra cpu) in
      let r = alu_result cpu op a (Array.unsafe_get cpu.regs.Registers.gp si) in
      p_write32 ph (wa cpu) r;
      ret
  | Insn.Alu (op, Insn.Mem m, Insn.Imm i) ->
    let ra = compile_addr m ~size:4 ~write:false in
    let wa = compile_addr m ~size:4 ~write:true in
    let b = i land 0xFFFFFFFF in
    fun cpu ->
      let ph = cpu.phys in
      let a = p_read32 ph (ra cpu) in
      let r = alu_result cpu op a b in
      p_write32 ph (wa cpu) r;
      ret
  | Insn.Alu (op, dst, src) -> fun cpu -> eff_alu cpu op dst src; ret
  | Insn.Idiv (Insn.Reg s) ->
    (* ~2.3% of grown-workload retirements (EXPERIMENTS.md PR 5). *)
    let si = reg_index s
    and ax = reg_index Registers.EAX
    and dx = reg_index Registers.EDX in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      let a = to_signed (Array.unsafe_get gp ax) in
      let b = to_signed (Array.unsafe_get gp si) in
      if b = 0 then Seghw.Fault.ud "integer division by zero";
      Array.unsafe_set gp ax (a / b land 0xFFFFFFFF);
      Array.unsafe_set gp dx (a mod b land 0xFFFFFFFF);
      ret
  | Insn.Idiv src -> fun cpu -> eff_idiv cpu src; ret
  | Insn.Neg o -> fun cpu -> eff_neg cpu o; ret
  | Insn.Inc (Insn.Reg r) ->
    let ri = reg_index r in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      Array.unsafe_set gp ri
        (inc_result cpu (Array.unsafe_get gp ri) land 0xFFFFFFFF);
      ret
  | Insn.Inc o -> fun cpu -> eff_inc cpu o; ret
  | Insn.Dec (Insn.Reg r) ->
    let ri = reg_index r in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      Array.unsafe_set gp ri
        (dec_result cpu (Array.unsafe_get gp ri) land 0xFFFFFFFF);
      ret
  | Insn.Dec o -> fun cpu -> eff_dec cpu o; ret
  | Insn.Cmp (Insn.Reg a, Insn.Reg b) ->
    let ai = reg_index a and bi = reg_index b in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      set_flags_sub cpu (Array.unsafe_get gp ai) (Array.unsafe_get gp bi);
      ret
  | Insn.Cmp (Insn.Reg a, Insn.Imm i) ->
    let ai = reg_index a and b = i land 0xFFFFFFFF in
    fun cpu ->
      set_flags_sub cpu (Array.unsafe_get cpu.regs.Registers.gp ai) b;
      ret
  | Insn.Cmp (Insn.Mem m, Insn.Imm i) ->
    let pa = compile_addr m ~size:4 ~write:false in
    let b = i land 0xFFFFFFFF in
    fun cpu -> set_flags_sub cpu (p_read32 cpu.phys (pa cpu)) b; ret
  | Insn.Cmp (Insn.Mem m, Insn.Reg b) ->
    let pa = compile_addr m ~size:4 ~write:false in
    let bi = reg_index b in
    fun cpu ->
      set_flags_sub cpu
        (p_read32 cpu.phys (pa cpu))
        (Array.unsafe_get cpu.regs.Registers.gp bi);
      ret
  | Insn.Cmp (Insn.Reg a, Insn.Mem m) ->
    let pa = compile_addr m ~size:4 ~write:false in
    let ai = reg_index a in
    fun cpu ->
      let av = Array.unsafe_get cpu.regs.Registers.gp ai in
      set_flags_sub cpu av (p_read32 cpu.phys (pa cpu));
      ret
  | Insn.Cmp (a, b) -> fun cpu -> eff_cmp cpu a b; ret
  | Insn.Test (Insn.Reg a, Insn.Reg b) ->
    let ai = reg_index a and bi = reg_index b in
    fun cpu ->
      let gp = cpu.regs.Registers.gp in
      set_flags_logic cpu (Array.unsafe_get gp ai land Array.unsafe_get gp bi);
      ret
  | Insn.Test (a, b) -> fun cpu -> eff_test cpu a b; ret
  | Insn.Setcc (c, r) ->
    let ri = reg_index r in
    fun cpu ->
      Array.unsafe_set cpu.regs.Registers.gp ri
        (if cond_holds cpu c then 1 else 0);
      ret
  | Insn.Fmov (Insn.Freg d, Insn.Freg s) ->
    let di = freg_index d and si = freg_index s in
    fun cpu ->
      let fp = cpu.regs.Registers.fp in
      Array.unsafe_set fp di (Array.unsafe_get fp si);
      ret
  | Insn.Fmov (Insn.Freg d, Insn.Fmem m) ->
    let pa = compile_addr m ~size:8 ~write:false in
    let di = freg_index d in
    fun cpu ->
      Array.unsafe_set cpu.regs.Registers.fp di
        (p_read_float cpu.phys (pa cpu));
      ret
  | Insn.Fmov (Insn.Fmem m, Insn.Freg s) ->
    let pa = compile_addr m ~size:8 ~write:true in
    let si = freg_index s in
    fun cpu ->
      p_write_float cpu.phys (pa cpu)
        (Array.unsafe_get cpu.regs.Registers.fp si);
      ret
  | Insn.Fmov (dst, src) -> fun cpu -> eff_fmov cpu dst src; ret
  | Insn.Fload_const (r, f) ->
    let ri = freg_index r in
    fun cpu -> Array.unsafe_set cpu.regs.Registers.fp ri f; ret
  | Insn.Falu (op, d, Insn.Freg s) ->
    (* Fmul/Fadd measured at 2.6%/1.6% of grown-workload retirements
       (EXPERIMENTS.md PR 5): resolve the register slots and the
       operation once, at closure-compile time. *)
    let di = freg_index d and si = freg_index s in
    (match op with
     | Insn.Fadd ->
       fun cpu ->
         let fp = cpu.regs.Registers.fp in
         Array.unsafe_set fp di
           (Array.unsafe_get fp di +. Array.unsafe_get fp si);
         ret
     | Insn.Fsub ->
       fun cpu ->
         let fp = cpu.regs.Registers.fp in
         Array.unsafe_set fp di
           (Array.unsafe_get fp di -. Array.unsafe_get fp si);
         ret
     | Insn.Fmul ->
       fun cpu ->
         let fp = cpu.regs.Registers.fp in
         Array.unsafe_set fp di
           (Array.unsafe_get fp di *. Array.unsafe_get fp si);
         ret
     | Insn.Fdiv ->
       fun cpu ->
         let fp = cpu.regs.Registers.fp in
         Array.unsafe_set fp di
           (Array.unsafe_get fp di /. Array.unsafe_get fp si);
         ret)
  | Insn.Falu (op, d, Insn.Fmem m) ->
    let pa = compile_addr m ~size:8 ~write:false in
    let di = freg_index d in
    (match op with
     | Insn.Fadd ->
       fun cpu ->
         let fp = cpu.regs.Registers.fp in
         Array.unsafe_set fp di
           (Array.unsafe_get fp di +. p_read_float cpu.phys (pa cpu));
         ret
     | Insn.Fsub ->
       fun cpu ->
         let fp = cpu.regs.Registers.fp in
         Array.unsafe_set fp di
           (Array.unsafe_get fp di -. p_read_float cpu.phys (pa cpu));
         ret
     | Insn.Fmul ->
       fun cpu ->
         let fp = cpu.regs.Registers.fp in
         Array.unsafe_set fp di
           (Array.unsafe_get fp di *. p_read_float cpu.phys (pa cpu));
         ret
     | Insn.Fdiv ->
       fun cpu ->
         let fp = cpu.regs.Registers.fp in
         Array.unsafe_set fp di
           (Array.unsafe_get fp di /. p_read_float cpu.phys (pa cpu));
         ret)
  | Insn.Fcmp (a, src) -> fun cpu -> eff_fcmp cpu a src; ret
  | Insn.Fneg r -> fun cpu -> fset cpu r (-.fget cpu r); ret
  | Insn.Fsqrt (d, src) -> fun cpu -> eff_fsqrt cpu d src; ret
  | Insn.Cvtsi2sd (d, src) -> fun cpu -> eff_cvtsi2sd cpu d src; ret
  | Insn.Cvtsd2si (d, src) -> fun cpu -> eff_cvtsd2si cpu d src; ret
  | Insn.Push (Insn.Reg s) ->
    let si = reg_index s in
    fun cpu ->
      let mmu = cpu.mmu in
      push32_via cpu mmu mmu.Seghw.Mmu.ss kss ~tr:None Seghw.Segreg.SS
        (Array.unsafe_get cpu.regs.Registers.gp si);
      ret
  | Insn.Push (Insn.Imm i) ->
    let v = i land 0xFFFFFFFF in
    fun cpu ->
      let mmu = cpu.mmu in
      push32_via cpu mmu mmu.Seghw.Mmu.ss kss ~tr:None Seghw.Segreg.SS v;
      ret
  | Insn.Push o -> fun cpu -> eff_push cpu o; ret
  | Insn.Pop (Insn.Reg d) ->
    let di = reg_index d in
    fun cpu ->
      let mmu = cpu.mmu in
      Array.unsafe_set cpu.regs.Registers.gp di
        (pop32_via cpu mmu mmu.Seghw.Mmu.ss kss ~tr:None Seghw.Segreg.SS
         land 0xFFFFFFFF);
      ret
  | Insn.Pop o -> fun cpu -> eff_pop cpu o; ret
  | Insn.Mov_from_seg (o, name) -> fun cpu -> eff_mov_from_seg cpu o name; ret
  | Insn.Bound (r, m) -> fun cpu -> eff_bound cpu r m; ret
  | Insn.Bndmk (b, m) -> fun cpu -> eff_bndmk cpu b m; ret
  | Insn.Bndcl (b, o) -> fun cpu -> eff_bndcl cpu b o; ret
  | Insn.Bndcu (b, o, size) -> fun cpu -> eff_bndcu cpu b o size; ret
  | Insn.Bndldx (b, m) -> fun cpu -> eff_bndldx cpu b m; ret
  | Insn.Bndstx (b, m) -> fun cpu -> eff_bndstx cpu b m; ret
  | Insn.Capmk (dst, lo, hi) -> fun cpu -> eff_capmk cpu dst lo hi; ret
  | Insn.Capchk (cap, m, size, write) ->
    fun cpu -> eff_capchk cpu cap m size write; ret
  | Insn.Capclr (vr, cr) -> fun cpu -> eff_capclr cpu vr cr; ret
  | (Insn.Jmp _ | Insn.Jcc _ | Insn.Call _ | Insn.Ret | Insn.Halt
    | Insn.Mov_to_seg _ | Insn.Lcall_gate _ | Insn.Int_syscall _
    | Insn.Callext _) as i ->
    (* Terminators are compiled by [compile_term] ([Program.partition]
       puts them last); keep a correct fallback anyway. *)
    fun cpu -> exec cpu idx i

(* Compile a block's last instruction into the closure producing the
   next EIP. Real terminators get their dispatch pre-resolved — the
   [targets] entry is read once, here. A block can also end on an
   ordinary instruction (the next one is a branch target), in which
   case the fall-through EIP is baked into the ordinary closure. *)
let compile_term code targets idx : t -> int =
  let next = idx + 1 in
  match (Array.get code idx : Insn.t) with
  | Insn.Jmp _ ->
    let tgt = Array.get targets idx in
    fun _ -> tgt
  | Insn.Jcc (c, _) ->
    (* The hot conditions are resolved to direct flag reads — each
       formula is [cond_holds]'s own line for that constructor, and the
       branch-direction equivalence suites pin them to it. *)
    let tgt = Array.get targets idx in
    (match c with
     | Insn.Eq -> fun cpu -> if cpu.zf then tgt else next
     | Insn.Ne -> fun cpu -> if cpu.zf then next else tgt
     | Insn.Lt -> fun cpu -> if cpu.sf <> cpu.ovf then tgt else next
     | Insn.Le -> fun cpu -> if cpu.zf || cpu.sf <> cpu.ovf then tgt else next
     | Insn.Gt ->
       fun cpu -> if (not cpu.zf) && cpu.sf = cpu.ovf then tgt else next
     | Insn.Ge -> fun cpu -> if cpu.sf = cpu.ovf then tgt else next
     | _ -> fun cpu -> if cond_holds cpu c then tgt else next)
  | Insn.Call _ ->
    let tgt = Array.get targets idx in
    let kds = seg_slot Seghw.Segreg.DS in
    fun cpu ->
      let mmu = cpu.mmu in
      push32_via cpu mmu mmu.Seghw.Mmu.ds kds ~tr:None Seghw.Segreg.DS next;
      tgt
  | Insn.Ret ->
    let kds = seg_slot Seghw.Segreg.DS in
    fun cpu ->
      let mmu = cpu.mmu in
      pop32_via cpu mmu mmu.Seghw.Mmu.ds kds ~tr:None Seghw.Segreg.DS
  | Insn.Halt ->
    fun cpu ->
      cpu.status <- Halted;
      next
  | i ->
    if Program.block_terminator i then fun cpu -> exec cpu idx i
    else compile_insn code idx ~ret:next

(* The process-wide shared superblock cache. The closure compiler above
   captures nothing CPU-specific, so a program's compiled closure set
   is a pure function of its [Program.t] — keyed here by [Program.uid]
   identity. Every machine executing the same linked program (fleet
   re-checks, warm-pool restores, the serve loop's request machines)
   binds the one shared set instead of recompiling; [blocks_bound_total]
   counts those rebinds, the build counters only real compiles.
   Compilation happens under the lock — it is a few microseconds of
   closure allocation, and holding the lock gives the strict
   at-most-once-per-program guarantee the serve-scale tests pin.

   The table is an ephemeron keyed on the [Program.t] record: an entry
   lives exactly as long as its program does, and is swept by the GC
   the moment the last machine (or compile-cache slot) holding the
   program dies. A strong capacity-bounded table here was measured to
   cost the fuzzing fleet ~43% of its throughput — hundreds of dead
   programs' closure sets pinned in the major heap turn every major
   collection into a sweep of megabytes of garbage-that-isn't. The
   closures capture the program's code/targets arrays, never the
   [Program.t] record itself, so the ephemeron's key-in-data cycle
   rule holds and entries really are collectable. *)
module Ublk_tbl = Ephemeron.K1.Make (struct
  type nonrec t = Program.t

  let equal = ( == )
  let hash (p : Program.t) = p.Program.uid
end)

let shared_ublocks : (t -> int) array array Ublk_tbl.t = Ublk_tbl.create 64
let shared_ublocks_lock = Mutex.create ()

(* Bind (or compile) the program's closure set on the first [Block] run. *)
let build_ublocks t =
  let nb = Array.length t.block_starts in
  t.ublocks <-
    Mutex.protect shared_ublocks_lock (fun () ->
        match Ublk_tbl.find_opt shared_ublocks t.program with
        | Some ub ->
          ignore (Atomic.fetch_and_add blocks_bound_total nb : int);
          ub
        | None ->
          let code = t.code and targets = t.targets in
          let ub =
            Array.init nb (fun b ->
                let start = t.block_starts.(b) in
                let len = t.block_lens.(b) in
                Array.init len (fun j ->
                    if j = len - 1 then compile_term code targets (start + j)
                    else compile_insn code (start + j) ~ret:0))
          in
          Ublk_tbl.add shared_ublocks t.program ub;
          ignore (Atomic.fetch_and_add blocks_built_total nb : int);
          ignore
            (Atomic.fetch_and_add block_insns_total (Array.length t.code)
              : int);
          ub);
  t.ublocks_ready <- true

(* --- the reference engine (the equivalence oracle) --------------------- *)

(* The pre-lowering interpreter, preserved verbatim: label hashtable
   lookups on the branch path, a cost-model match per executed
   instruction, string-keyed stat bumps, and an [Exit] exception per
   control transfer. Semantically authoritative; [exec] and the
   superblocks must match it bit for bit. *)
let exec_reference t (i : Insn.t) =
  let next = t.eip + 1 in
  (match i with
   | Insn.Label l -> if Program.is_stat_label l then bump_stat t l
   | Insn.Nop -> ()
   | Insn.Halt -> t.status <- Halted
   | Insn.Mov (w, dst, src) -> eff_mov t w dst src
   | Insn.Lea (r, m) -> eff_lea t r m
   | Insn.Movsx (r, src, w) -> eff_movsx t r src w
   | Insn.Movzx (r, src, w) -> eff_movzx t r src w
   | Insn.Alu (op, dst, src) -> eff_alu t op dst src
   | Insn.Idiv src -> eff_idiv t src
   | Insn.Neg o -> eff_neg t o
   | Insn.Inc o -> eff_inc t o
   | Insn.Dec o -> eff_dec t o
   | Insn.Cmp (a, b) -> eff_cmp t a b
   | Insn.Test (a, b) -> eff_test t a b
   | Insn.Setcc (c, r) -> eff_setcc t c r
   | Insn.Fmov (dst, src) -> eff_fmov t dst src
   | Insn.Fload_const (r, f) -> fset t r f
   | Insn.Falu (op, dst, src) -> eff_falu t op dst src
   | Insn.Fcmp (a, src) -> eff_fcmp t a src
   | Insn.Fneg r -> fset t r (-.fget t r)
   | Insn.Fsqrt (d, src) -> eff_fsqrt t d src
   | Insn.Cvtsi2sd (d, src) -> eff_cvtsi2sd t d src
   | Insn.Cvtsd2si (d, src) -> eff_cvtsd2si t d src
   | Insn.Jmp l ->
     t.eip <- Program.resolve t.program l;
     t.insns_executed <- t.insns_executed + 1;
     t.cycles <- t.cycles + Cost_model.cost t.costs i;
     raise Exit (* handled by caller: eip already set *)
   | Insn.Jcc (c, l) ->
     if cond_holds t c then begin
       t.eip <- Program.resolve t.program l;
       t.insns_executed <- t.insns_executed + 1;
       t.cycles <- t.cycles + Cost_model.cost t.costs i;
       raise Exit
     end
   | Insn.Call l ->
     push32 t next ~seg:Seghw.Segreg.DS;
     t.eip <- Program.resolve t.program l;
     t.insns_executed <- t.insns_executed + 1;
     t.cycles <- t.cycles + Cost_model.cost t.costs i;
     raise Exit
   | Insn.Ret ->
     let ra = pop32 t ~seg:Seghw.Segreg.DS in
     t.eip <- ra;
     t.insns_executed <- t.insns_executed + 1;
     t.cycles <- t.cycles + Cost_model.cost t.costs i;
     raise Exit
   | Insn.Push o -> eff_push t o
   | Insn.Pop o -> eff_pop t o
   | Insn.Mov_to_seg (name, o) -> eff_mov_to_seg t name o
   | Insn.Mov_from_seg (o, name) -> eff_mov_from_seg t o name
   | Insn.Lcall_gate sel -> t.kernel t ~gate:(`Gate sel)
   | Insn.Int_syscall n -> t.kernel t ~gate:(`Int n)
   | Insn.Bound (r, m) -> eff_bound t r m
   | Insn.Bndmk (b, m) -> eff_bndmk t b m
   | Insn.Bndcl (b, o) -> eff_bndcl t b o
   | Insn.Bndcu (b, o, size) -> eff_bndcu t b o size
   | Insn.Bndldx (b, m) -> eff_bndldx t b m
   | Insn.Bndstx (b, m) -> eff_bndstx t b m
   | Insn.Capmk (dst, lo, hi) -> eff_capmk t dst lo hi
   | Insn.Capchk (cap, m, size, write) -> eff_capchk t cap m size write
   | Insn.Capclr (vr, cr) -> eff_capclr t vr cr
   | Insn.Callext name -> eff_callext t name);
  t.eip <- next;
  t.insns_executed <- t.insns_executed + 1;
  t.cycles <- t.cycles + Cost_model.cost t.costs i

let step_reference t =
  if t.eip < 0 || t.eip >= Array.length t.program.Program.code then
    Seghw.Fault.gp (Printf.sprintf "EIP %d outside code" t.eip);
  let eip = t.eip in
  let i = t.program.Program.code.(eip) in
  (try exec_reference t i with
   | Exit -> () (* control transfer already applied *));
  (* A faulting instruction propagates past this point unretired, so it
     is not attributed — matching [step_predecoded]. *)
  match t.sink with
  | None -> ()
  | Some _ -> t.prof_hits.(eip) <- t.prof_hits.(eip) + 1

(* --- stepping and the run loop ----------------------------------------- *)

let[@inline] step_engine t =
  match t.engine with
  (* Single-stepping a [Block] CPU steps per instruction (block
     dispatch only pays off across a whole [run]); the per-segment
     fast path stays active via [t.fm_enabled]. *)
  | Block -> step_predecoded t
  | Reference -> step_reference t

let step t =
  match t.status with
  | Running ->
    (match t.sink with
     | None -> step_engine t
     | Some s ->
       (match step_engine t with
        | () -> credit_tally t s
        | exception e ->
          credit_tally t s;
          raise e))
  | Halted | Faulted _ -> ()

(* Commit a partially executed block after an exception: [k] body
   instructions starting at [start] retired, EIP resting on the
   faulting instruction — byte-identical to where the per-instruction
   engines would stop. Cold path: per-site costs are summed on
   demand. *)
let commit_partial t start k =
  if k > 0 then begin
    t.insns_executed <- t.insns_executed + k;
    let acc = ref 0 in
    for i = start to start + k - 1 do
      acc := !acc + Array.unsafe_get t.cost_tab i
    done;
    t.cycles <- t.cycles + !acc
  end;
  t.eip <- start + k

(* Exactly one Fault event per architectural fault: raised faults
   funnel through [run]'s single handler, which calls this before
   recording the status. *)
let emit_fault_event t (f : Seghw.Fault.t) =
  match t.sink with
  | None -> ()
  | Some s ->
    let cls, address, selector =
      match f with
      | Seghw.Fault.General_protection _ -> (`Gp, None, None)
      | Seghw.Fault.Stack_fault _ -> (`Ss, None, None)
      | Seghw.Fault.Page_fault { linear; _ } -> (`Pf, Some linear, None)
      | Seghw.Fault.Not_present sel -> (`Np, None, Some sel)
      | Seghw.Fault.Invalid_opcode _ -> (`Ud, None, None)
      | Seghw.Fault.Bound_range _ -> (`Br, None, None)
    in
    Trace.emit s
      (Trace.Fault
         { cls; detail = Seghw.Fault.to_string f; address; selector })

(* Run until halt, fault, or fuel exhaustion. Returns the final status.
   The fuel check is [>=]: at most [fuel] instructions execute. *)
let run ?(fuel = 4_000_000_000) t =
  let start_insns = t.insns_executed in
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Atomic.fetch_and_add retired_total (t.insns_executed - start_insns)
          : int);
      match t.sink with None -> () | Some s -> credit_tally t s)
    (fun () ->
      try
        match t.engine, t.sink with
        | Block, None ->
          (* The superblock loop: one dispatch, one EIP store, and one
             instruction/cycle commit per straight-line region. The
             body closures run with [t.eip] parked at the block start;
             any exception (#GP/#SS/#PF/#BR from a closure, or anything
             a terminator's kernel/external raises) unwinds through
             [commit_partial], which retires exactly the completed
             prefix and leaves EIP on the faulting instruction — after
             which the per-instruction fault semantics below apply
             unchanged. Entry at a non-block-start EIP (a RET to a
             computed address) and blocks straddling the fuel budget
             fall back to exact per-instruction stepping until the loop
             re-synchronises on a block start. *)
          if not t.ublocks_ready then build_ublocks t;
          let code = t.code in
          let cost_tab = t.cost_tab in
          let limit = Array.length code in
          let block_at = t.block_at in
          let lens = t.block_lens in
          let bcost = t.block_cost in
          let ublocks = t.ublocks in
          (* [j] counts completed closures of the block in flight, -1
             whenever execution is not inside a block (the
             per-instruction fallback keeps exact per-step commits on
             its own); [bstart] is that block's first instruction.
             Hoisted: the hot loop allocates nothing. *)
          let j = ref (-1) in
          let bstart = ref 0 in
          (try
             while (match t.status with Running -> true | _ -> false) do
               j := -1;
               let eip = t.eip in
               if eip < 0 || eip >= limit then
                 Seghw.Fault.gp (Printf.sprintf "EIP %d outside code" eip);
               let bid = Array.unsafe_get block_at eip in
               if
                 bid >= 0
                 && t.insns_executed + Array.unsafe_get lens bid <= fuel
               then begin
                 let blk = Array.unsafe_get ublocks bid in
                 let n1 = Array.length blk - 1 in
                 bstart := eip;
                 j := 0;
                 while !j < n1 do
                   ignore ((Array.unsafe_get blk !j) t : int);
                   incr j
                 done;
                 let next = (Array.unsafe_get blk n1) t in
                 t.eip <- next;
                 t.insns_executed <- t.insns_executed + n1 + 1;
                 t.cycles <- t.cycles + Array.unsafe_get bcost bid
               end
               else begin
                 if t.insns_executed >= fuel then raise Out_of_fuel;
                 let next = exec t eip (Array.unsafe_get code eip) in
                 t.eip <- next;
                 t.insns_executed <- t.insns_executed + 1;
                 t.cycles <- t.cycles + Array.unsafe_get cost_tab eip
               end
             done
           with e ->
             (* Unwinding out of a block: [!j] instructions of it
                completed; the one at [!bstart + !j] (body or
                terminator) faulted unretired, and EIP comes to rest on
                it. *)
             (if !j >= 0 then commit_partial t !bstart !j);
             raise e)
        | Block, Some _ ->
          (* The traced loop: steps [exec] per instruction with the
             same commits plus one per-site retire count, the
             profiler's raw input. [prof_hits] is sized to [code] by
             [set_sink]. A traced [Block] CPU neither builds nor enters
             superblocks, and its per-segment fast path emits the same
             events as the TLB probe it skips. *)
          let code = t.code in
          let cost_tab = t.cost_tab in
          let prof = t.prof_hits in
          let limit = Array.length code in
          while (match t.status with Running -> true | _ -> false) do
            if t.insns_executed >= fuel then raise Out_of_fuel;
            let eip = t.eip in
            if eip < 0 || eip >= limit then
              Seghw.Fault.gp (Printf.sprintf "EIP %d outside code" eip);
            let next = exec t eip (Array.unsafe_get code eip) in
            t.eip <- next;
            t.insns_executed <- t.insns_executed + 1;
            t.cycles <- t.cycles + Array.unsafe_get cost_tab eip;
            Array.unsafe_set prof eip (Array.unsafe_get prof eip + 1)
          done
        | Reference, _ ->
          while (match t.status with Running -> true | _ -> false) do
            if t.insns_executed >= fuel then raise Out_of_fuel;
            step_reference t
          done
      with Seghw.Fault.Fault f ->
        emit_fault_event t f;
        t.status <- Faulted f);
  t.status

(* --- the cycle profiler ------------------------------------------------- *)

(* Attribute per-site retire counts to function symbols: a symbol is any
   label that is neither a ["__stat_"] counter nor a [".L"]-prefixed
   local (codegen's loop/branch labels), i.e. function entries plus
   "_start". Sites before the first symbol fall into "<prelude>".
   Cycles per site are [hits * cost_tab] — the per-site cost is fixed,
   so this is exact, not sampled. Returns [(symbol, insns, cycles)]
   sorted by cycles descending; empty without a traced run. *)
let profile t =
  if Array.length t.prof_hits = 0 then []
  else begin
    let tbl = Hashtbl.create 31 in
    let order = ref [] in
    let current = ref "<prelude>" in
    Array.iteri
      (fun i insn ->
        (match insn with
         | Insn.Label l
           when String.length l > 0 && l.[0] <> '.'
                && not (Program.is_stat_label l) ->
           current := l
         | _ -> ());
        let hits = t.prof_hits.(i) in
        if hits > 0 then begin
          let cycles = hits * t.cost_tab.(i) in
          match Hashtbl.find_opt tbl !current with
          | Some (hi, cy) ->
            hi := !hi + hits;
            cy := !cy + cycles
          | None ->
            Hashtbl.add tbl !current (ref hits, ref cycles);
            order := !current :: !order
        end)
      t.code;
    List.rev_map
      (fun sym ->
        let hi, cy = Hashtbl.find tbl sym in
        (sym, !hi, !cy))
      !order
    |> List.sort (fun (na, _, ca) (nb, _, cb) ->
           match compare cb ca with 0 -> String.compare na nb | n -> n)
  end

(* Fold a finished traced run's attribution into its sink (called once
   per run by the facade; [prof_hits] is cumulative, so callers that
   re-run a CPU must merge only once). *)
let commit_profile t =
  match t.sink with
  | None -> ()
  | Some s ->
    List.iter
      (fun (sym, insns, cycles) ->
        Trace.add_attribution s sym ~insns ~cycles)
      (profile t)
