(* Deterministic whole-machine checkpoint/restore.

   The image is a flat sequence of tagged sections, each serialized
   with three primitives (8-byte little-endian signed integers, single
   bytes for booleans/tags, and length-prefixed strings). Everything
   iterated from a hashtable is listed in sorted key order, so saving
   the same machine state twice yields identical bytes and the MD5 of
   an image is a state-equality oracle.

   What is NOT in the image, and why:

   - The program. Programs are immutable and compiled deterministically
     from source; the image embeds a digest of the program identity so
     [restore] can reject a mismatch, and [restore] takes the program
     as an argument.
   - The engine. Both engines produce bit-identical machine state, so
     a snapshot taken under one restores under the other — the
     cross-engine resume oracle in the test suite pins this.
   - Derived caches: the superblock closure set, the per-segment memory
     fast path, and the CPU's cost tables are rebuilt/invalidated by
     construction or by [Machine.Cpu.import_state].
   - Host wiring: the kernel entry closure and the libc/cashrt external
     closures are re-created by [Osim.Process.load] and
     [Cashrt.Runtime.attach] on restore. *)

type error =
  | Truncated of string
  | Bad_magic
  | Bad_version of int
  | Program_mismatch
  | Corrupt of string

exception Error of error

let error_to_string = function
  | Truncated what -> Printf.sprintf "truncated snapshot (reading %s)" what
  | Bad_magic -> "not a snapshot (bad magic)"
  | Bad_version v -> Printf.sprintf "unsupported snapshot version %d" v
  | Program_mismatch -> "snapshot was taken of a different program"
  | Corrupt what -> Printf.sprintf "corrupt snapshot: %s" what

let magic = "CASHSNAP"

(* Version 2 added the protection-hardware section (MPX bounds
   registers + bound table, capability table). Version-1 images are
   still accepted: they predate the new backends, so restoring one
   zero-initializes the protection state — exactly the state such a
   machine was in when saved. *)
let version = 2

(* Section tags, in image order. *)
let tag_kernel = 1
let tag_process = 2
let tag_cpu = 3
let tag_regs = 4
let tag_segregs = 5
let tag_gdt = 6
let tag_ldt = 7
let tag_paging = 8
let tag_tlb = 9
let tag_phys = 10
let tag_mmu = 11
let tag_libc = 12
let tag_runtime = 13
let tag_protection = 14
let tag_end = 0

(* --- writer primitives -------------------------------------------------- *)

let w_int b v = Buffer.add_int64_le b (Int64.of_int v)
let w_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))
let w_bool b v = w_u8 b (if v then 1 else 0)

let w_str b s =
  w_int b (String.length s);
  Buffer.add_string b s

let w_list b xs f =
  w_int b (List.length xs);
  List.iter (f b) xs

(* --- reader primitives -------------------------------------------------- *)

type reader = { data : string; mutable pos : int }

let need r n what =
  if r.pos + n > String.length r.data then raise (Error (Truncated what))

let r_int r what =
  need r 8 what;
  let v = Int64.to_int (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

let r_u8 r what =
  need r 1 what;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let r_bool r what =
  match r_u8 r what with
  | 0 -> false
  | 1 -> true
  | n -> raise (Error (Corrupt (Printf.sprintf "bad boolean %d in %s" n what)))

let r_str r what =
  let len = r_int r what in
  if len < 0 then
    raise (Error (Corrupt (Printf.sprintf "negative length in %s" what)));
  need r len what;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let r_list r what f =
  let n = r_int r what in
  if n < 0 then
    raise (Error (Corrupt (Printf.sprintf "negative count in %s" what)));
  List.init n (fun _ -> f r)

let expect_tag r tag what =
  let got = r_u8 r what in
  if got <> tag then
    raise
      (Error
         (Corrupt
            (Printf.sprintf "expected section %d (%s), found %d" tag what got)))

(* --- program identity --------------------------------------------------- *)

(* Digest over the linked program's semantic content: instructions, data
   layout, and entry point. The derived arrays (targets, blocks, stat
   marks) are functions of these, so they need not be hashed. *)
let program_digest (p : Machine.Program.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (p.Machine.Program.code, p.Machine.Program.data,
           p.Machine.Program.entry)
          []))

(* --- faults and status -------------------------------------------------- *)

let w_fault b (f : Seghw.Fault.t) =
  match f with
  | Seghw.Fault.General_protection m -> w_u8 b 0; w_str b m
  | Seghw.Fault.Stack_fault m -> w_u8 b 1; w_str b m
  | Seghw.Fault.Page_fault { linear; write } ->
    w_u8 b 2;
    w_int b linear;
    w_bool b write
  | Seghw.Fault.Not_present sel -> w_u8 b 3; w_int b sel
  | Seghw.Fault.Invalid_opcode m -> w_u8 b 4; w_str b m
  | Seghw.Fault.Bound_range m -> w_u8 b 5; w_str b m

let r_fault r =
  match r_u8 r "fault" with
  | 0 -> Seghw.Fault.General_protection (r_str r "fault")
  | 1 -> Seghw.Fault.Stack_fault (r_str r "fault")
  | 2 ->
    let linear = r_int r "fault" in
    let write = r_bool r "fault" in
    Seghw.Fault.Page_fault { linear; write }
  | 3 -> Seghw.Fault.Not_present (r_int r "fault")
  | 4 -> Seghw.Fault.Invalid_opcode (r_str r "fault")
  | 5 -> Seghw.Fault.Bound_range (r_str r "fault")
  | n -> raise (Error (Corrupt (Printf.sprintf "bad fault tag %d" n)))

let w_status b (s : Machine.Cpu.status) =
  match s with
  | Machine.Cpu.Running -> w_u8 b 0
  | Machine.Cpu.Halted -> w_u8 b 1
  | Machine.Cpu.Faulted f -> w_u8 b 2; w_fault b f

let r_status r =
  match r_u8 r "status" with
  | 0 -> Machine.Cpu.Running
  | 1 -> Machine.Cpu.Halted
  | 2 -> Machine.Cpu.Faulted (r_fault r)
  | n -> raise (Error (Corrupt (Printf.sprintf "bad status tag %d" n)))

(* --- save ---------------------------------------------------------------- *)

let w_descriptor_table b tbl =
  let entries = ref [] in
  Seghw.Descriptor_table.iteri
    (fun i d -> entries := (i, Seghw.Descriptor.encode d) :: !entries)
    tbl;
  (* [iteri] walks index-ascending; the fold reversed it. *)
  w_list b (List.rev !entries) (fun b (i, enc) ->
      w_int b i;
      w_str b enc)

let w_segreg b (sr : Seghw.Segreg.t) =
  w_int b (Seghw.Selector.to_int sr.Seghw.Segreg.selector);
  match sr.Seghw.Segreg.cache with
  | None -> w_bool b false
  | Some d ->
    w_bool b true;
    w_str b (Seghw.Descriptor.encode d)

let page_size = Seghw.Paging.page_size

let w_phys b (ph : Machine.Phys_mem.t) =
  let hw = ph.Machine.Phys_mem.high_water in
  let data = ph.Machine.Phys_mem.data in
  w_int b hw;
  let pages = ref [] in
  let n_pages = (hw + page_size - 1) / page_size in
  for p = n_pages - 1 downto 0 do
    let start = p * page_size in
    let len = min page_size (Bytes.length data - start) in
    let nonzero = ref false in
    let i = ref 0 in
    while (not !nonzero) && !i < len do
      if Bytes.unsafe_get data (start + !i) <> '\000' then nonzero := true;
      incr i
    done;
    if !nonzero then pages := (p, Bytes.sub_string data start len) :: !pages
  done;
  w_list b !pages (fun b (p, chunk) ->
      w_int b p;
      w_str b chunk)

let save ?(format_version = version) ?runtime process =
  if format_version <> 1 && format_version <> version then
    invalid_arg
      (Printf.sprintf "Snapshot.save: unwritable format version %d"
         format_version);
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b magic;
  w_int b format_version;
  w_str b (program_digest (Osim.Process.program process));
  (* Kernel. *)
  w_u8 b tag_kernel;
  let k = Osim.Kernel.export_state (Osim.Process.kernel process) in
  w_int b k.Osim.Kernel.p_next_pid;
  w_int b k.Osim.Kernel.p_clock;
  w_int b k.Osim.Kernel.p_modify_ldt_calls;
  w_int b k.Osim.Kernel.p_cash_modify_ldt_calls;
  w_int b k.Osim.Kernel.p_descriptors_written;
  w_int b k.Osim.Kernel.p_descriptors_cleared;
  (* Process identity. *)
  w_u8 b tag_process;
  w_int b (Osim.Process.pid process);
  w_int b (Osim.Process.created_at process);
  w_int b (Osim.Process.terminated_at process);
  (* CPU execution state. *)
  w_u8 b tag_cpu;
  let cpu = Osim.Process.cpu process in
  let c = Machine.Cpu.export_state cpu in
  w_int b c.Machine.Cpu.p_eip;
  w_bool b c.Machine.Cpu.p_zf;
  w_bool b c.Machine.Cpu.p_sf;
  w_bool b c.Machine.Cpu.p_cf;
  w_bool b c.Machine.Cpu.p_ovf;
  w_int b c.Machine.Cpu.p_cycles;
  w_int b c.Machine.Cpu.p_insns_executed;
  w_status b c.Machine.Cpu.p_status;
  w_list b c.Machine.Cpu.p_stats (fun b (name, v) ->
      w_str b name;
      w_int b v);
  w_list b c.Machine.Cpu.p_prof_hits (fun b (site, hits) ->
      w_int b site;
      w_int b hits);
  (* Register files. *)
  w_u8 b tag_regs;
  let regs = Machine.Cpu.regs cpu in
  Array.iter (fun v -> w_int b v) regs.Machine.Registers.gp;
  Array.iter
    (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v))
    regs.Machine.Registers.fp;
  (* Segment registers, visible selector + hidden descriptor cache. *)
  w_u8 b tag_segregs;
  let mmu = Osim.Process.mmu process in
  List.iter
    (fun name -> w_segreg b (Seghw.Mmu.seg mmu name))
    Seghw.Segreg.all_names;
  (* Descriptor tables. *)
  w_u8 b tag_gdt;
  w_descriptor_table b (Seghw.Mmu.gdt mmu);
  w_u8 b tag_ldt;
  w_descriptor_table b (Seghw.Mmu.ldt mmu);
  (* Page tables and frame allocator. *)
  w_u8 b tag_paging;
  let paging = Seghw.Mmu.paging mmu in
  w_int b (Seghw.Paging.frames_allocated paging);
  w_list b (Seghw.Paging.entries paging)
    (fun b (page, frame, present, writable) ->
      w_int b page;
      w_int b frame;
      w_bool b present;
      w_bool b writable);
  (* TLB: entries plus the generation counter the per-segment fast path
     validates against. *)
  w_u8 b tag_tlb;
  let tlb = Seghw.Mmu.tlb mmu in
  let size = tlb.Seghw.Tlb.mask + 1 in
  w_int b size;
  for i = 0 to size - 1 do
    w_int b tlb.Seghw.Tlb.tags.(i);
    w_int b tlb.Seghw.Tlb.frames.(i);
    w_bool b tlb.Seghw.Tlb.writable.(i)
  done;
  w_int b tlb.Seghw.Tlb.hits;
  w_int b tlb.Seghw.Tlb.misses;
  w_int b tlb.Seghw.Tlb.gen;
  (* Physical memory, sparse and page-granular. *)
  w_u8 b tag_phys;
  w_phys b (Osim.Process.phys process);
  (* MMU counters. *)
  w_u8 b tag_mmu;
  w_int b mmu.Seghw.Mmu.limit_checks;
  (* Protection hardware: MPX bounds registers + bound table, and the
     capability table (new in version 2; the v1 legacy writer exists
     only for the back-compatibility oracle in the test suite). *)
  if format_version >= 2 then begin
    w_u8 b tag_protection;
    let br = Seghw.Mmu.bndregs mmu in
    List.iter
      (fun (valid, lower, upper) ->
        w_bool b valid;
        w_int b lower;
        w_int b upper)
      (Seghw.Bound_regs.export_regs br);
    w_int b br.Seghw.Bound_regs.entries;
    w_int b br.Seghw.Bound_regs.loads;
    w_int b br.Seghw.Bound_regs.load_misses;
    w_int b br.Seghw.Bound_regs.stores;
    w_int b br.Seghw.Bound_regs.dir_allocs;
    w_int b br.Seghw.Bound_regs.evictions;
    w_list b (Seghw.Bound_regs.export_table br) (fun b (key, lo, up) ->
        w_int b key;
        w_int b lo;
        w_int b up);
    let ct = Seghw.Mmu.captab mmu in
    w_list b (Seghw.Captab.export ct) (fun b (lo, up) ->
        w_int b lo;
        w_int b up);
    w_int b ct.Seghw.Captab.checks;
    w_int b ct.Seghw.Captab.tag_clears
  end;
  (* libc. *)
  w_u8 b tag_libc;
  let l = Osim.Libc.export_state (Osim.Process.libc process) in
  w_int b l.Osim.Libc.p_brk;
  w_int b l.Osim.Libc.p_rand_state;
  w_int b l.Osim.Libc.p_bytes_allocated;
  w_int b l.Osim.Libc.p_peak_heap;
  w_bool b l.Osim.Libc.p_guard_malloc;
  w_int b l.Osim.Libc.p_guard_vm_bytes;
  w_str b l.Osim.Libc.p_output;
  w_list b l.Osim.Libc.p_free_lists (fun b (size, addrs) ->
      w_int b size;
      w_list b addrs w_int);
  w_list b l.Osim.Libc.p_alloc_sizes (fun b (addr, size) ->
      w_int b addr;
      w_int b size);
  (* Cash runtime, when attached. *)
  (match runtime with
   | None -> ()
   | Some rt ->
     w_u8 b tag_runtime;
     let r = Cashrt.Runtime.export_state rt in
     w_int b r.Cashrt.Runtime.p_pool.Cashrt.Segment_pool.p_capacity;
     w_list b r.Cashrt.Runtime.p_pool.Cashrt.Segment_pool.p_free w_int;
     w_int b r.Cashrt.Runtime.p_pool.Cashrt.Segment_pool.p_live;
     w_int b r.Cashrt.Runtime.p_pool.Cashrt.Segment_pool.p_peak_live;
     w_int b r.Cashrt.Runtime.p_pool.Cashrt.Segment_pool.p_exhausted_allocs;
     w_list b r.Cashrt.Runtime.p_cache.Cashrt.Seg_cache.p_entries
       (fun b (index, base, size) ->
         w_int b index;
         w_int b base;
         w_int b size);
     w_int b r.Cashrt.Runtime.p_cache.Cashrt.Seg_cache.p_hits;
     w_int b r.Cashrt.Runtime.p_cache.Cashrt.Seg_cache.p_misses;
     w_int b r.Cashrt.Runtime.p_seg_allocs;
     w_int b r.Cashrt.Runtime.p_global_fallbacks;
     w_bool b r.Cashrt.Runtime.p_started);
  w_u8 b tag_end;
  b

let digest bytes = Digest.to_hex (Digest.bytes bytes)

let state_digest ?runtime process =
  digest (Buffer.to_bytes (save ?runtime process))

(* --- restore ------------------------------------------------------------- *)

let r_descriptor r what =
  let enc = r_str r what in
  if String.length enc <> 8 then
    raise (Error (Corrupt (Printf.sprintf "descriptor in %s is not 8 bytes" what)));
  Seghw.Descriptor.decode enc

let restore_table r tbl what =
  let entries =
    r_list r what (fun r ->
        let i = r_int r what in
        let d = r_descriptor r what in
        (i, d))
  in
  List.iter (fun (i, d) -> Seghw.Descriptor_table.set tbl i d) entries

(* Where the parsed image lands: a freshly loaded machine (the classic
   [restore]), or an existing machine reused in place (the pool path,
   [restore_into]). The two targets share every parsing and validation
   step; they differ only in how the machine comes to exist and in the
   scrub that makes a reused machine equivalent to a fresh one. *)
type target =
  | Fresh of Machine.Cpu.engine option
  | Reuse of Osim.Process.t * Cashrt.Runtime.t option

(* Scrub a descriptor table back to its load-time contents so replaying
   the image's entries reproduces the fresh table exactly. The LDT
   starts empty at [Osim.Process.load]; the GDT's only load-time entries
   are re-set from the image (every snapshot contains them — they are
   never cleared at runtime), and index 0 is never present. *)
let scrub_table ?(keep = -1) tbl =
  let live = ref [] in
  Seghw.Descriptor_table.iteri
    (fun i _ -> if i <> keep then live := i :: !live)
    tbl;
  List.iter (fun i -> Seghw.Descriptor_table.clear tbl i) !live

let restore_body ~target ~(program : Machine.Program.t) (r : reader) =
  need r (String.length magic) "magic";
  if String.sub r.data 0 (String.length magic) <> magic then
    raise (Error Bad_magic);
  r.pos <- String.length magic;
  let v = r_int r "version" in
  (* Version 1 is still readable: it lacks only the protection-hardware
     section, which restores zero-initialized below. *)
  if v <> 1 && v <> version then raise (Error (Bad_version v));
  let pd = r_str r "program digest" in
  if pd <> program_digest program then raise (Error Program_mismatch);
  (match target with
   | Fresh _ -> ()
   | Reuse (process, _) ->
     (* The pooled machine must be running the image's program: its
        compiled block closures and load-time layout are functions of
        the program, so reusing a machine across programs would not be
        a restore at all. Physical equality is the fast path (pools key
        machines by compiled program). *)
     let pp = Osim.Process.program process in
     if pp != program && program_digest pp <> pd then
       raise (Error Program_mismatch));
  (* Kernel section is parsed first but imported after [load], which
     consumes a pid from the fresh kernel. *)
  expect_tag r tag_kernel "kernel";
  let kstate =
    (* [let]-sequenced: record fields evaluate in unspecified order. *)
    let p_next_pid = r_int r "kernel" in
    let p_clock = r_int r "kernel" in
    let p_modify_ldt_calls = r_int r "kernel" in
    let p_cash_modify_ldt_calls = r_int r "kernel" in
    let p_descriptors_written = r_int r "kernel" in
    let p_descriptors_cleared = r_int r "kernel" in
    {
      Osim.Kernel.p_next_pid;
      p_clock;
      p_modify_ldt_calls;
      p_cash_modify_ldt_calls;
      p_descriptors_written;
      p_descriptors_cleared;
    }
  in
  expect_tag r tag_process "process";
  let pid = r_int r "process" in
  let created_at = r_int r "process" in
  let terminated_at = r_int r "process" in
  expect_tag r tag_cpu "cpu";
  let cstate =
    let p_eip = r_int r "cpu" in
    let p_zf = r_bool r "cpu" in
    let p_sf = r_bool r "cpu" in
    let p_cf = r_bool r "cpu" in
    let p_ovf = r_bool r "cpu" in
    let p_cycles = r_int r "cpu" in
    let p_insns_executed = r_int r "cpu" in
    let p_status = r_status r in
    let p_stats =
      r_list r "cpu stats" (fun r ->
          let name = r_str r "cpu stats" in
          let v = r_int r "cpu stats" in
          (name, v))
    in
    let p_prof_hits =
      r_list r "cpu profile" (fun r ->
          let site = r_int r "cpu profile" in
          let hits = r_int r "cpu profile" in
          if site < 0 || site >= Array.length program.Machine.Program.code then
            raise (Error (Corrupt "profile site outside program"));
          (site, hits))
    in
    {
      Machine.Cpu.p_eip;
      p_zf;
      p_sf;
      p_cf;
      p_ovf;
      p_cycles;
      p_insns_executed;
      p_status;
      p_stats;
      p_prof_hits;
    }
  in
  expect_tag r tag_regs "registers";
  let gp = Array.init 8 (fun _ -> r_int r "registers") in
  let fp =
    Array.init 8 (fun _ ->
        need r 8 "registers";
        let v = Int64.float_of_bits (String.get_int64_le r.data r.pos) in
        r.pos <- r.pos + 8;
        v)
  in
  expect_tag r tag_segregs "segment registers";
  let segregs =
    List.map
      (fun name ->
        let sel = r_int r "segment registers" in
        if sel < 0 || sel > 0xFFFF then
          raise (Error (Corrupt "selector out of range"));
        let cache =
          if r_bool r "segment registers" then
            Some (r_descriptor r "segment registers")
          else None
        in
        (name, Seghw.Selector.of_int sel, cache))
      Seghw.Segreg.all_names
  in
  expect_tag r tag_gdt "GDT";
  let gdt_entries =
    r_list r "GDT" (fun r ->
        let i = r_int r "GDT" in
        let d = r_descriptor r "GDT" in
        (i, d))
  in
  expect_tag r tag_ldt "LDT";
  (* LDT entries are replayed below through [Descriptor_table.set]. *)
  let restore_ldt tbl r = restore_table r tbl "LDT" in
  (* Build (or scrub) the machine now: everything parsed past this
     point is written directly into it. *)
  let process =
    match target with
    | Fresh engine ->
      let kernel = Osim.Kernel.create () in
      Osim.Process.load ?engine ~kernel program
    | Reuse (process, _) ->
      let mmu = Osim.Process.mmu process in
      scrub_table (Seghw.Mmu.ldt mmu);
      scrub_table ~keep:0 (Seghw.Mmu.gdt mmu);
      process
  in
  let kernel = Osim.Process.kernel process in
  let mmu = Osim.Process.mmu process in
  restore_ldt (Seghw.Mmu.ldt mmu) r;
  expect_tag r tag_paging "paging";
  (* Frames are allocated from 0 upwards, so every frame a page-table
     entry or a live TLB entry names lies below [next_frame]. The CPU
     reads physical memory through them unchecked: a frame outside that
     range would reach outside the physical buffer. *)
  let next_frame = r_int r "paging" in
  if next_frame < 0 || next_frame > 1 lsl 20 then
    raise (Error (Corrupt "frame count beyond the 32-bit physical space"));
  let check_frame what frame =
    if frame < 0 || frame >= next_frame then
      raise (Error (Corrupt (what ^ " frame not allocated")))
  in
  let paging = Seghw.Mmu.paging mmu in
  Seghw.Paging.reset paging;
  let n_ptes = r_int r "paging" in
  if n_ptes < 0 then raise (Error (Corrupt "negative PTE count"));
  for _ = 1 to n_ptes do
    let page = r_int r "paging" in
    if page < 0 || page > 0xFFFFF then
      raise (Error (Corrupt "PTE page number out of range"));
    let frame = r_int r "paging" in
    check_frame "PTE" frame;
    let present = r_bool r "paging" in
    let writable = r_bool r "paging" in
    Seghw.Paging.restore_entry paging ~page ~frame ~present ~writable
  done;
  Seghw.Paging.set_next_frame paging next_frame;
  expect_tag r tag_tlb "TLB";
  let tlb = Seghw.Mmu.tlb mmu in
  let size = r_int r "TLB" in
  if size <> tlb.Seghw.Tlb.mask + 1 then
    raise (Error (Corrupt (Printf.sprintf "TLB size %d" size)));
  for i = 0 to size - 1 do
    let tag = r_int r "TLB" in
    let frame = r_int r "TLB" in
    if tag <> -1 (* an empty slot *) then begin
      if tag < 0 || tag > 0xFFFFF then
        raise (Error (Corrupt "TLB tag out of range"));
      check_frame "TLB" frame
    end;
    tlb.Seghw.Tlb.tags.(i) <- tag;
    tlb.Seghw.Tlb.frames.(i) <- frame;
    tlb.Seghw.Tlb.writable.(i) <- r_bool r "TLB"
  done;
  tlb.Seghw.Tlb.hits <- r_int r "TLB";
  tlb.Seghw.Tlb.misses <- r_int r "TLB";
  tlb.Seghw.Tlb.gen <- r_int r "TLB";
  expect_tag r tag_phys "physical memory";
  let hw = r_int r "physical memory" in
  if hw < 0 then raise (Error (Corrupt "negative high water"));
  (* Every physical byte is reached through an allocated frame, so the
     high-water mark is at most [next_frame] pages. Checked before the
     buffer is sized from it: a larger mark would make the doubling
     below ask the host for a buffer the image cannot justify. *)
  if hw > next_frame * page_size then
    raise (Error (Corrupt "high water beyond the allocated frames"));
  let ph = Osim.Process.phys process in
  let len = ref (1 lsl 20) in
  while hw > !len do
    len := !len * 2
  done;
  (match target with
   | Fresh _ -> ph.Machine.Phys_mem.data <- Bytes.make !len '\000'
   | Reuse _ ->
     if Bytes.length ph.Machine.Phys_mem.data < !len then
       ph.Machine.Phys_mem.data <- Bytes.make !len '\000'
     else
       (* Everything the previous occupant wrote lies below its
          high-water mark (every write path raises it), so scrubbing
          [0, high_water) leaves the whole buffer zero without
          reallocating. *)
       Bytes.fill ph.Machine.Phys_mem.data 0 ph.Machine.Phys_mem.high_water
         '\000');
  ph.Machine.Phys_mem.high_water <- hw;
  let n_pages = r_int r "physical memory" in
  if n_pages < 0 then raise (Error (Corrupt "negative page count"));
  for _ = 1 to n_pages do
    let page = r_int r "physical memory" in
    let chunk = r_str r "physical memory" in
    let start = page * page_size in
    (* Bound pages by the length a fresh machine would allocate, not
       the (possibly larger) reused buffer, so both targets accept and
       reject exactly the same images. *)
    if page < 0 || String.length chunk > page_size
       || start + String.length chunk > !len
    then raise (Error (Corrupt "physical page outside image"));
    Bytes.blit_string chunk 0 ph.Machine.Phys_mem.data start
      (String.length chunk)
  done;
  expect_tag r tag_mmu "MMU";
  let limit_checks = r_int r "MMU" in
  (* Protection hardware (version ≥ 2). A reused machine is scrubbed
     either way; a v1 image leaves the state zero-initialized, which is
     exactly the state a pre-v2 machine was in when saved. *)
  let br = Seghw.Mmu.bndregs mmu in
  let ct = Seghw.Mmu.captab mmu in
  Seghw.Bound_regs.reset br;
  Seghw.Captab.reset ct;
  if v >= 2 then begin
    expect_tag r tag_protection "protection";
    let regs =
      List.init Seghw.Bound_regs.num_regs (fun _ ->
          let valid = r_bool r "bound registers" in
          let lower = r_int r "bound registers" in
          let upper = r_int r "bound registers" in
          (valid, lower, upper))
    in
    Seghw.Bound_regs.import_regs br regs;
    let entries = r_int r "bound table" in
    let loads = r_int r "bound table" in
    let load_misses = r_int r "bound table" in
    let stores = r_int r "bound table" in
    let dir_allocs = r_int r "bound table" in
    let evictions = r_int r "bound table" in
    let table =
      r_list r "bound table" (fun r ->
          let key = r_int r "bound table" in
          let lo = r_int r "bound table" in
          let up = r_int r "bound table" in
          (key, lo, up))
    in
    Seghw.Bound_regs.import_table br table;
    (* Counters overwrite whatever [import_table] accumulated, so the
       restored machine's next snapshot is byte-identical. *)
    br.Seghw.Bound_regs.entries <- entries;
    br.Seghw.Bound_regs.loads <- loads;
    br.Seghw.Bound_regs.load_misses <- load_misses;
    br.Seghw.Bound_regs.stores <- stores;
    br.Seghw.Bound_regs.dir_allocs <- dir_allocs;
    br.Seghw.Bound_regs.evictions <- evictions;
    let caps =
      r_list r "capability table" (fun r ->
          let lo = r_int r "capability table" in
          let up = r_int r "capability table" in
          (lo, up))
    in
    Seghw.Captab.import ct caps;
    ct.Seghw.Captab.checks <- r_int r "capability table";
    ct.Seghw.Captab.tag_clears <- r_int r "capability table"
  end;
  expect_tag r tag_libc "libc";
  let lstate =
    let p_brk = r_int r "libc" in
    let p_rand_state = r_int r "libc" in
    let p_bytes_allocated = r_int r "libc" in
    let p_peak_heap = r_int r "libc" in
    let p_guard_malloc = r_bool r "libc" in
    let p_guard_vm_bytes = r_int r "libc" in
    let p_output = r_str r "libc" in
    let p_free_lists =
      r_list r "libc free lists" (fun r ->
          let size = r_int r "libc free lists" in
          let addrs = r_list r "libc free lists" (fun r -> r_int r "libc") in
          (size, addrs))
    in
    let p_alloc_sizes =
      r_list r "libc allocations" (fun r ->
          let addr = r_int r "libc allocations" in
          let size = r_int r "libc allocations" in
          (addr, size))
    in
    {
      Osim.Libc.p_brk;
      p_rand_state;
      p_bytes_allocated;
      p_peak_heap;
      p_guard_malloc;
      p_guard_vm_bytes;
      p_output;
      p_free_lists;
      p_alloc_sizes;
    }
  in
  (* Optional runtime section, then the end marker. *)
  let runtime =
    match r_u8 r "section" with
    | t when t = tag_end -> None
    | t when t = tag_runtime ->
      let p_capacity = r_int r "runtime" in
      let p_free = r_list r "runtime" (fun r -> r_int r "runtime") in
      let p_live = r_int r "runtime" in
      let p_peak_live = r_int r "runtime" in
      let p_exhausted_allocs = r_int r "runtime" in
      let p_entries =
        r_list r "runtime cache" (fun r ->
            let index = r_int r "runtime cache" in
            let base = r_int r "runtime cache" in
            let size = r_int r "runtime cache" in
            (index, base, size))
      in
      let p_hits = r_int r "runtime cache" in
      let p_misses = r_int r "runtime cache" in
      let p_seg_allocs = r_int r "runtime" in
      let p_global_fallbacks = r_int r "runtime" in
      let p_started = r_bool r "runtime" in
      expect_tag r tag_end "end";
      (* Reuse the pooled machine's runtime when its segment pool has
         the image's capacity ([Segment_pool.import_state] requires it);
         otherwise attach a fresh runtime, which re-registers the cash
         externals on the reused CPU exactly as a fresh load would. *)
      let rt =
        match target with
        | Reuse (_, Some rt)
          when Cashrt.Segment_pool.capacity (Cashrt.Runtime.pool rt)
               = p_capacity ->
          rt
        | Fresh _ | Reuse _ ->
          Cashrt.Runtime.attach ~pool_capacity:p_capacity process
      in
      Cashrt.Runtime.import_state rt
        {
          Cashrt.Runtime.p_pool =
            {
              Cashrt.Segment_pool.p_capacity;
              p_free;
              p_live;
              p_peak_live;
              p_exhausted_allocs;
            };
          p_cache = { Cashrt.Seg_cache.p_entries; p_hits; p_misses };
          p_seg_allocs;
          p_global_fallbacks;
          p_started;
        };
      Some rt
    | t -> raise (Error (Corrupt (Printf.sprintf "unexpected section %d" t)))
  in
  (* Now overwrite the freshly-loaded machine with the parsed state, in
     dependency order: kernel last consumed a pid in [load]; segment
     registers go through [restore_raw] so hidden caches that disagree
     with the (already restored) LDT survive verbatim. *)
  Osim.Kernel.import_state kernel kstate;
  Osim.Process.restore_identity process ~pid ~created_at ~terminated_at;
  let cpu = Osim.Process.cpu process in
  Machine.Cpu.import_state cpu cstate;
  let regs = Machine.Cpu.regs cpu in
  Array.blit gp 0 regs.Machine.Registers.gp 0 8;
  Array.blit fp 0 regs.Machine.Registers.fp 0 8;
  List.iter
    (fun (name, selector, cache) ->
      Seghw.Segreg.restore_raw (Seghw.Mmu.seg mmu name) ~selector ~cache)
    segregs;
  List.iter
    (fun (i, d) ->
      if i <> 0 then Seghw.Descriptor_table.set (Seghw.Mmu.gdt mmu) i d)
    gdt_entries;
  mmu.Seghw.Mmu.limit_checks <- limit_checks;
  Osim.Libc.import_state (Osim.Process.libc process) lstate;
  (process, runtime)

let wrap_restore f =
  try f () with
  | Error _ as e -> raise e
  | Seghw.Fault.Fault f ->
    raise (Error (Corrupt ("fault during restore: " ^ Seghw.Fault.to_string f)))
  | Invalid_argument m -> raise (Error (Corrupt m))
  | Failure m -> raise (Error (Corrupt m))

let restore ?engine ~program bytes =
  let r = { data = Bytes.to_string bytes; pos = 0 } in
  wrap_restore (fun () -> restore_body ~target:(Fresh engine) ~program r)

let restore_into ?runtime ~program process bytes =
  (* [unsafe_to_string] spares the per-request copy of a multi-hundred-
     KB image; the reader never mutates it, and callers hold images as
     write-once blobs. *)
  let r = { data = Bytes.unsafe_to_string bytes; pos = 0 } in
  let _, rt =
    wrap_restore (fun () ->
        restore_body ~target:(Reuse (process, runtime)) ~program r)
  in
  rt

(* --- checkpoint placement ------------------------------------------------ *)

let running cpu =
  match Machine.Cpu.status cpu with
  | Machine.Cpu.Running -> true
  | _ -> false

let run_to_marker ?(marker = "server_ready") ?(max_insns = 200_000_000)
    process =
  let cpu = Osim.Process.cpu process in
  let fired = ref false in
  Machine.Cpu.register_external cpu marker (fun _ -> fired := true);
  let budget = Machine.Cpu.insns_executed cpu + max_insns in
  while
    (not !fired) && running cpu && Machine.Cpu.insns_executed cpu < budget
  do
    Machine.Cpu.step cpu
  done;
  (* Leave the marker registered as libc's default no-op, so continued
     execution is byte-identical to a process that was never warmed. *)
  Machine.Cpu.register_external cpu marker (fun _ -> ());
  !fired

let align_to_block process =
  let cpu = Osim.Process.cpu process in
  let prog = Machine.Cpu.program cpu in
  let block_at = prog.Machine.Program.block_at in
  let limit = Array.length prog.Machine.Program.code in
  let steps = ref 0 in
  let aligned () =
    let e = Machine.Cpu.eip cpu in
    e >= 0 && e < limit && block_at.(e) >= 0
  in
  while running cpu && not (aligned ()) do
    Machine.Cpu.step cpu;
    incr steps
  done;
  !steps
