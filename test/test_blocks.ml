(* Edge cases of the superblock execution engine.

   The broad three-way equivalence (whole compiled workloads, traced and
   untraced) lives in test_predecode.ml; the differential fleet covers
   random programs. This suite pins the corners where superblock
   dispatch could silently diverge from per-instruction execution:

   - the linker's partition invariants (blocks tile the code, every
     static branch target starts a block, terminators end one);
   - a fault on the last instruction of a block, and on the terminator
     itself — the partial commit must leave counts and state exactly
     where per-instruction execution leaves them;
   - fuel expiring mid-block at every alignment — the engine must fall
     back to stepping rather than overrun the budget;
   - control transfer into the middle of a region (a Ret to a computed
     address that is not a block start) — the per-instruction fallback
     until the engine re-synchronises on a block start;
   - the same three interruptions deep inside a hot loop;
   - segment-register reloads between accesses — the per-segment memory
     fast path must not serve a translation for the old base;
   - TLB conflict evictions under the fast path — the generation
     counter must force a re-probe, keeping hit/miss accounting and
     loaded values identical to the reference interpreter. *)

open Machine

let all_gp = Registers.[ EAX; EBX; ECX; EDX; ESI; EDI; EBP; ESP ]

(* A flat ring-3 address space like test_machine's, parameterised so the
   TLB-eviction case can map past the first 16 pages and the segreg
   case can install small non-zero-base data segments (GDT 3 and 4). *)
let env ?(map_size = 0x10000) () =
  let gdt = Seghw.Descriptor_table.create Seghw.Descriptor_table.Gdt_table in
  let ldt = Seghw.Descriptor_table.create Seghw.Descriptor_table.Ldt_table in
  let flat ty =
    Seghw.Descriptor.make ~base:0 ~limit:0xFFFFF ~granularity:true ~dpl:3
      ~present:true ~seg_type:ty
  in
  Seghw.Descriptor_table.set gdt 1
    (flat (Seghw.Descriptor.Code { readable = true }));
  Seghw.Descriptor_table.set gdt 2
    (flat (Seghw.Descriptor.Data { writable = true }));
  let small base =
    Seghw.Descriptor.make ~base ~limit:0xFF ~granularity:false ~dpl:3
      ~present:true ~seg_type:(Seghw.Descriptor.Data { writable = true })
  in
  Seghw.Descriptor_table.set gdt 3 (small 0x2000);
  Seghw.Descriptor_table.set gdt 4 (small 0x3000);
  let mmu = Seghw.Mmu.create ~gdt ~ldt in
  Seghw.Mmu.load_segreg mmu Seghw.Segreg.CS
    (Seghw.Selector.make ~index:1 ~table:Seghw.Selector.Gdt ~rpl:3);
  List.iter
    (fun r ->
      Seghw.Mmu.load_segreg mmu r
        (Seghw.Selector.make ~index:2 ~table:Seghw.Selector.Gdt ~rpl:3))
    [ Seghw.Segreg.SS; Seghw.Segreg.DS; Seghw.Segreg.ES ];
  Seghw.Mmu.map_range mmu ~linear:0 ~size:map_size ~writable:true;
  mmu

let sel_gdt index =
  Seghw.Selector.to_int
    (Seghw.Selector.make ~index ~table:Seghw.Selector.Gdt ~rpl:3)

type outcome = Status of Cpu.status | Fuel_exhausted

let outcome_str = function
  | Fuel_exhausted -> "out of fuel"
  | Status Cpu.Halted -> "halted"
  | Status Cpu.Running -> "running"
  | Status (Cpu.Faulted f) -> "faulted: " ^ Seghw.Fault.to_string f

let run_one ~engine ?map_size ?(fuel = 1_000_000)
    ?(setup = fun _ -> ()) insns =
  let mmu = env ?map_size () in
  let phys = Phys_mem.create () in
  let program = Program.link ~entry:"main" (Insn.Label "main" :: insns) in
  let cpu =
    Cpu.create ~engine ~mmu ~phys ~costs:Cost_model.pentium3 ~program ()
  in
  Registers.set (Cpu.regs cpu) Registers.ESP 0x8000;
  setup cpu;
  let outcome =
    try Status (Cpu.run ~fuel cpu) with Cpu.Out_of_fuel -> Fuel_exhausted
  in
  (cpu, outcome)

(* Run [insns] under the block engine and the reference oracle on fresh
   machines and assert every observable equal; returns the block-engine
   CPU for extra assertions. *)
let check ?map_size ?fuel ?setup name insns =
  let blk, ob = run_one ~engine:Cpu.Block ?map_size ?fuel ?setup insns in
  let orc, oo = run_one ~engine:Cpu.Reference ?map_size ?fuel ?setup insns in
  Alcotest.(check string) (name ^ ": outcome") (outcome_str oo)
    (outcome_str ob);
  Alcotest.(check int) (name ^ ": insns") (Cpu.insns_executed orc)
    (Cpu.insns_executed blk);
  Alcotest.(check int) (name ^ ": cycles") (Cpu.cycles orc) (Cpu.cycles blk);
  Alcotest.(check int) (name ^ ": limit checks")
    (Seghw.Mmu.limit_checks (Cpu.mmu orc))
    (Seghw.Mmu.limit_checks (Cpu.mmu blk));
  Alcotest.(check int) (name ^ ": tlb hits")
    (Seghw.Tlb.hits (Seghw.Mmu.tlb (Cpu.mmu orc)))
    (Seghw.Tlb.hits (Seghw.Mmu.tlb (Cpu.mmu blk)));
  Alcotest.(check int) (name ^ ": tlb misses")
    (Seghw.Tlb.misses (Seghw.Mmu.tlb (Cpu.mmu orc)))
    (Seghw.Tlb.misses (Seghw.Mmu.tlb (Cpu.mmu blk)));
  Alcotest.(check (list (pair string int)))
    (name ^ ": stat counters") (Cpu.stats orc) (Cpu.stats blk);
  List.iter
    (fun r ->
      Alcotest.(check int)
        (name ^ ": " ^ Registers.reg_name r)
        (Registers.get (Cpu.regs orc) r)
        (Registers.get (Cpu.regs blk) r))
    all_gp;
  let hb = Phys_mem.high_water (Cpu.phys blk) in
  let ho = Phys_mem.high_water (Cpu.phys orc) in
  Alcotest.(check int) (name ^ ": high water") ho hb;
  for a = 0 to ho - 1 do
    if Phys_mem.read8 (Cpu.phys blk) a <> Phys_mem.read8 (Cpu.phys orc) a
    then
      Alcotest.failf "%s: memory differs at physical 0x%x (%d vs %d)" name a
        (Phys_mem.read8 (Cpu.phys blk) a)
        (Phys_mem.read8 (Cpu.phys orc) a)
  done;
  blk

(* --- partition invariants ------------------------------------------------ *)

let test_partition_invariants () =
  let p =
    Program.link ~entry:"main"
      Insn.[
        Label "main";
        Mov (Long, Reg Registers.EAX, Imm 1);
        Cmp (Reg Registers.EAX, Imm 0);
        Jcc (Eq, "tgt");
        Alu (Add, Reg Registers.EAX, Imm 2);
        Call "fn";
        Label "tgt";
        Alu (Add, Reg Registers.EAX, Imm 3);
        Halt;
        Label "fn";
        Alu (Add, Reg Registers.EAX, Imm 4);
        Ret;
      ]
  in
  let n = Array.length p.Program.code in
  let nb = Array.length p.Program.block_starts in
  (* Blocks tile the code: consecutive, non-empty, and block_at marks
     exactly the starts. *)
  let covered = ref 0 in
  for b = 0 to nb - 1 do
    let s = p.Program.block_starts.(b) in
    let l = p.Program.block_lens.(b) in
    Alcotest.(check bool) (Printf.sprintf "block %d non-empty" b) true (l >= 1);
    Alcotest.(check int) (Printf.sprintf "block %d contiguous" b) !covered s;
    Alcotest.(check int) (Printf.sprintf "block_at start %d" b) b
      p.Program.block_at.(s);
    for i = s + 1 to s + l - 1 do
      Alcotest.(check int)
        (Printf.sprintf "interior %d not a start" i)
        Program.no_block p.Program.block_at.(i)
    done;
    covered := s + l
  done;
  Alcotest.(check int) "blocks cover the code exactly" n !covered;
  (* Every static branch target and the entry start a block. *)
  Array.iteri
    (fun i t ->
      if t >= 0 then
        Alcotest.(check bool)
          (Printf.sprintf "target of %d starts a block" i)
          true
          (p.Program.block_at.(t) >= 0))
    p.Program.targets;
  Alcotest.(check bool) "entry starts a block" true
    (p.Program.block_at.(p.Program.entry_index) >= 0);
  (* Nothing follows a terminator inside a block. *)
  Array.iteri
    (fun i insn ->
      if Program.block_terminator insn && i + 1 < n then
        Alcotest.(check bool)
          (Printf.sprintf "insn %d after terminator starts a block" (i + 1))
          true
          (p.Program.block_at.(i + 1) >= 0))
    p.Program.code

(* --- fault precision ----------------------------------------------------- *)

let test_fault_on_last_block_insn () =
  (* The last body instruction before the terminator faults (store to an
     unmapped page): the committed counts, registers, and memory must
     match per-instruction execution exactly — the partial commit covers
     the first two instructions only. *)
  let cpu =
    check "fault/last-body"
      Insn.[
        Mov (Long, Reg Registers.EAX, Imm 7);
        Mov (Long, Reg Registers.EBX, Imm 9);
        Mov (Long, Mem (Insn.mem ~disp:0x20000 ()), Imm 1);
        Halt;
      ]
  in
  Alcotest.(check int) "both movs retired" 3 (Cpu.insns_executed cpu);
  match Cpu.status cpu with
  | Cpu.Faulted _ -> ()
  | _ -> Alcotest.fail "expected a fault"

let test_fault_on_terminator () =
  (* The terminator itself faults (Call pushing onto an unmapped stack
     page): the whole block body must already be committed. *)
  let cpu =
    check "fault/terminator"
      Insn.[
        Mov (Long, Reg Registers.ESP, Imm 0x20004);
        Mov (Long, Reg Registers.EAX, Imm 3);
        Call "sub";
        Halt;
        Label "sub";
        Ret;
      ]
  in
  Alcotest.(check int) "body committed, call charged" 3
    (Cpu.insns_executed cpu);
  Alcotest.(check int) "EAX from committed body" 3
    (Registers.get (Cpu.regs cpu) Registers.EAX)

(* --- fuel ---------------------------------------------------------------- *)

let test_fuel_mid_block () =
  (* A loop whose body block is several instructions long, run at every
     fuel value that lands inside, on, or between block boundaries. At
     each budget the block engine must stop with the same instruction
     count, cycle count, and register state as the oracle — it may never
     execute a block it cannot afford. *)
  let insns =
    Insn.[
      Mov (Long, Reg Registers.EAX, Imm 0);
      Mov (Long, Reg Registers.ECX, Imm 6);
      Label "loop";
      Alu (Add, Reg Registers.EAX, Imm 3);
      Alu (Add, Reg Registers.EAX, Imm 5);
      Mov (Long, Mem (Insn.mem ~disp:0x1000 ()), Reg Registers.EAX);
      Alu (Sub, Reg Registers.ECX, Imm 1);
      Cmp (Reg Registers.ECX, Imm 0);
      Jcc (Gt, "loop");
      Halt;
    ]
  in
  for fuel = 1 to 45 do
    ignore (check ~fuel (Printf.sprintf "fuel=%d" fuel) insns : Cpu.t)
  done

(* --- mid-block entry ----------------------------------------------------- *)

let test_mid_block_entry () =
  (* A Ret to a computed address that is not a block start: the engine
     must step per-instruction from there and re-synchronise. Indices
     count from the prepended entry label (0); index 6 sits mid-way
     through the straight-line region that starts at 3. *)
  let insns =
    Insn.[
      (* 0: Label main *)
      Push (Imm 6) (* 1 *);
      Ret (* 2: jumps to 6, middle of the block below *);
      Label "unreached" (* 3 *);
      Alu (Add, Reg Registers.EAX, Imm 100) (* 4 *);
      Alu (Add, Reg Registers.EAX, Imm 200) (* 5 *);
      Alu (Add, Reg Registers.EAX, Imm 1) (* 6: entry point *);
      Alu (Add, Reg Registers.EAX, Imm 2) (* 7 *);
      Halt (* 8 *);
    ]
  in
  let p = Program.link ~entry:"main" (Insn.Label "main" :: insns) in
  Alcotest.(check int) "index 6 is mid-block (test premise)"
    Program.no_block p.Program.block_at.(6);
  let cpu = check "ret-to-middle" insns in
  Alcotest.(check int) "skipped the block prefix" 3
    (Registers.get (Cpu.regs cpu) Registers.EAX)

(* --- segment reloads and the memory fast path ---------------------------- *)

let test_segreg_reload_fast_path () =
  (* Back-to-back GS accesses warm the per-segment fast path; then GS is
     reloaded with a different base and the same offsets are written
     again. The second round must land at the new base — and the reads
     back through flat DS prove where each store went. *)
  let setup cpu =
    Registers.set (Cpu.regs cpu) Registers.EBX (sel_gdt 3);
    Registers.set (Cpu.regs cpu) Registers.ECX (sel_gdt 4)
  in
  let gs d = Insn.Mem (Insn.mem ~seg:Seghw.Segreg.GS ~disp:d ()) in
  let cpu =
    check ~setup "segreg-reload"
      Insn.[
        Mov_to_seg (Seghw.Segreg.GS, Reg Registers.EBX);
        Mov (Long, gs 0x10, Imm 111);
        Mov (Long, gs 0x14, Imm 112);
        Mov (Long, gs 0x18, Imm 113);
        Mov_to_seg (Seghw.Segreg.GS, Reg Registers.ECX);
        Mov (Long, gs 0x10, Imm 221);
        Mov (Long, gs 0x14, Imm 222);
        Mov (Long, Reg Registers.EAX, Mem (Insn.mem ~disp:0x2010 ()));
        Mov (Long, Reg Registers.EDX, Mem (Insn.mem ~disp:0x3010 ()));
        Halt;
      ]
  in
  Alcotest.(check int) "store before reload hit base 0x2000" 111
    (Registers.get (Cpu.regs cpu) Registers.EAX);
  Alcotest.(check int) "store after reload hit base 0x3000" 221
    (Registers.get (Cpu.regs cpu) Registers.EDX)

let test_tlb_conflict_eviction () =
  (* Linear pages 0 and 64 share a slot in the 64-entry direct-mapped
     TLB, so alternating accesses evict each other every iteration. The
     fast path caches a translation per segment register; the TLB
     generation counter must force it to re-probe, keeping both the
     loaded values and the hit/miss totals identical to the oracle. *)
  let cpu =
    check ~map_size:0x50000 "tlb-eviction"
      Insn.[
        Mov (Long, Mem (Insn.mem ~disp:0x100 ()), Imm 5);
        Mov (Long, Mem (Insn.mem ~disp:0x40100 ()), Imm 7);
        Mov (Long, Reg Registers.ECX, Imm 50);
        Label "loop";
        Mov (Long, Reg Registers.EAX, Mem (Insn.mem ~disp:0x100 ()));
        Mov (Long, Reg Registers.EBX, Mem (Insn.mem ~disp:0x40100 ()));
        Alu (Sub, Reg Registers.ECX, Imm 1);
        Cmp (Reg Registers.ECX, Imm 0);
        Jcc (Gt, "loop");
        Halt;
      ]
  in
  Alcotest.(check int) "low page value" 5
    (Registers.get (Cpu.regs cpu) Registers.EAX);
  Alcotest.(check int) "high page value" 7
    (Registers.get (Cpu.regs cpu) Registers.EBX);
  Alcotest.(check bool) "the conflict actually evicts" true
    (Seghw.Tlb.misses (Seghw.Mmu.tlb (Cpu.mmu cpu)) >= 100)

let test_tlb_gen_counter () =
  (* The invariant the fast path is built on: every insert, every
     invalidation that hits, and every flush move the generation. *)
  let t = Seghw.Tlb.create () in
  let g0 = t.Seghw.Tlb.gen in
  Seghw.Tlb.insert t ~page:1 ~frame:2 ~writable:true;
  let g1 = t.Seghw.Tlb.gen in
  Alcotest.(check bool) "insert bumps" true (g1 > g0);
  Seghw.Tlb.invalidate_page t ~page:1;
  let g2 = t.Seghw.Tlb.gen in
  Alcotest.(check bool) "invalidate hit bumps" true (g2 > g1);
  Seghw.Tlb.flush t;
  Alcotest.(check bool) "flush bumps" true (t.Seghw.Tlb.gen > g2)

(* --- hot loops ------------------------------------------------------------ *)

(* The tests below all use two-block loops run for hundreds of
   iterations, so the block engine dispatches the same two superblocks
   back to back with the back-edge Jcc taken every time but the last.
   Each test pins one way a hot loop can be interrupted — a fault deep
   in the loop, fuel running out at any iteration, a Ret into a loop
   block — and compares against the reference oracle
   instruction-for-instruction. *)

let hot_iters = 300

let test_hot_loop_is_exact () =
  let cpu =
    check "hot-loop/exact"
      Insn.[
        Mov (Long, Reg Registers.ECX, Imm hot_iters);
        Label "loop";
        Alu (Add, Reg Registers.EAX, Imm 2);
        Jmp "body";
        Label "body";
        Mov (Long, Mem (Insn.mem ~disp:0x1000 ()), Reg Registers.EAX);
        Alu (Sub, Reg Registers.ECX, Imm 1);
        Cmp (Reg Registers.ECX, Imm 0);
        Jcc (Gt, "loop");
        Halt;
      ]
  in
  Alcotest.(check int) "loop result" (2 * hot_iters)
    (Registers.get (Cpu.regs cpu) Registers.EAX)

(* A store through EBX walks 0x100 bytes per iteration from 0x1000: it
   crosses the 0x10000 mapping limit around iteration 240, deep inside
   the hot loop. The faulting store is the FIRST instruction of the
   loop's second block (the fall-through block after a never-taken
   Jcc), so the unwind must keep the first block's commit and retire
   zero instructions of the second. *)
let test_hot_loop_fault_first_insn () =
  let cpu =
    check "hot-loop/fault-first"
      Insn.[
        Mov (Long, Reg Registers.EBX, Imm 0x1000);
        Mov (Long, Reg Registers.ECX, Imm 400);
        Label "loop";
        Alu (Add, Reg Registers.EAX, Imm 1);
        Cmp (Reg Registers.EDX, Imm 5);
        Jcc (Eq, "out");
        Mov (Long, Mem (Insn.mem ~base:Registers.EBX ()), Imm 7);
        Alu (Add, Reg Registers.EBX, Imm 0x100);
        Alu (Sub, Reg Registers.ECX, Imm 1);
        Cmp (Reg Registers.ECX, Imm 0);
        Jcc (Gt, "loop");
        Label "out";
        Halt;
      ]
  in
  match Cpu.status cpu with
  | Cpu.Faulted _ -> ()
  | _ -> Alcotest.fail "expected a fault"

(* Same walk, but the faulting store is the LAST instruction of the
   loop's second block before its terminator: every instruction of the
   iteration up to the store must commit. *)
let test_hot_loop_fault_last_insn () =
  let cpu =
    check "hot-loop/fault-last"
      Insn.[
        Mov (Long, Reg Registers.EBX, Imm 0x1000);
        Mov (Long, Reg Registers.ECX, Imm 400);
        Label "loop";
        Alu (Add, Reg Registers.EAX, Imm 1);
        Cmp (Reg Registers.EDX, Imm 5);
        Jcc (Eq, "out");
        Alu (Add, Reg Registers.EBX, Imm 0x100);
        Alu (Sub, Reg Registers.ECX, Imm 1);
        Cmp (Reg Registers.ECX, Imm 0);
        Mov (Long, Mem (Insn.mem ~base:Registers.EBX ()), Imm 7);
        Jcc (Gt, "loop");
        Label "out";
        Halt;
      ]
  in
  match Cpu.status cpu with
  | Cpu.Faulted _ -> ()
  | _ -> Alcotest.fail "expected a fault"

(* Fuel expiring across the iterations of a hot loop, at every
   alignment: the engine must refuse a block it cannot afford and fall
   back to per-instruction stepping, never overrunning the budget and
   never diverging from the oracle. *)
let test_hot_loop_fuel_sweep () =
  let insns =
    Insn.[
      Mov (Long, Reg Registers.ECX, Imm 120);
      Label "loop";
      Alu (Add, Reg Registers.EAX, Imm 1);
      Jmp "body";
      Label "body";
      Alu (Add, Reg Registers.EBX, Imm 3);
      Alu (Sub, Reg Registers.ECX, Imm 1);
      Cmp (Reg Registers.ECX, Imm 0);
      Jcc (Gt, "loop");
      Halt;
    ]
  in
  (* 8 insns/iteration after a 2-insn prologue: the sweep runs fuel out
     at every offset of fifteen consecutive iterations, about sixty
     iterations into the loop. *)
  ignore (check "hot-loop-fuel/full" insns : Cpu.t);
  for fuel = 480 to 600 do
    ignore
      (check ~fuel (Printf.sprintf "hot-loop-fuel=%d" fuel) insns : Cpu.t)
  done

(* A computed Ret lands in the middle of a block of a loop that has
   just run 200 iterations: the engine must step per-instruction from
   the landing point and re-synchronise on the next block start. *)
let test_ret_into_hot_loop () =
  let insns =
    Insn.[
      (* 0: Label main *)
      Mov (Long, Reg Registers.ECX, Imm 200) (* 1 *);
      Mov (Long, Reg Registers.EDX, Imm 0) (* 2 *);
      Label "loop" (* 3 *);
      Alu (Add, Reg Registers.EAX, Imm 1) (* 4 *);
      Jmp "body" (* 5 *);
      Label "body" (* 6 *);
      Alu (Add, Reg Registers.EBX, Imm 2) (* 7 *);
      Alu (Add, Reg Registers.EBX, Imm 3) (* 8: Ret target, mid-block *);
      Alu (Sub, Reg Registers.ECX, Imm 1) (* 9 *);
      Cmp (Reg Registers.ECX, Imm 0) (* 10 *);
      Jcc (Gt, "loop") (* 11 *);
      Cmp (Reg Registers.EDX, Imm 0) (* 12 *);
      Jcc (Ne, "fin") (* 13 *);
      Mov (Long, Reg Registers.EDX, Imm 1) (* 14 *);
      Push (Imm 8) (* 15 *);
      Ret (* 16 *);
      Label "fin" (* 17 *);
      Halt (* 18 *);
    ]
  in
  let p = Program.link ~entry:"main" (Insn.Label "main" :: insns) in
  Alcotest.(check int) "index 8 is mid-block (test premise)"
    Program.no_block p.Program.block_at.(8);
  let cpu = check "ret-into-hot-loop" insns in
  Alcotest.(check int) "loop iterations" 200
    (Registers.get (Cpu.regs cpu) Registers.EAX);
  Alcotest.(check int) "mid-entry ran the block suffix once" 1003
    (Registers.get (Cpu.regs cpu) Registers.EBX)

(* --- compile counters ---------------------------------------------------- *)

let test_block_counters () =
  let built0 = Cpu.blocks_built () in
  let insns0 = Cpu.block_insns_compiled () in
  let _ =
    run_one ~engine:Cpu.Reference
      Insn.[ Mov (Long, Reg Registers.EAX, Imm 1); Halt ]
  in
  Alcotest.(check int) "reference compiles no blocks" built0
    (Cpu.blocks_built ());
  let _ =
    run_one ~engine:Cpu.Block
      Insn.[ Mov (Long, Reg Registers.EAX, Imm 1); Halt ]
  in
  Alcotest.(check bool) "block engine compiles blocks" true
    (Cpu.blocks_built () > built0);
  Alcotest.(check bool) "covered insns counted" true
    (Cpu.block_insns_compiled () > insns0)

let suite =
  [
    Alcotest.test_case "partition invariants" `Quick test_partition_invariants;
    Alcotest.test_case "fault on last insn of a block" `Quick
      test_fault_on_last_block_insn;
    Alcotest.test_case "fault on the terminator" `Quick
      test_fault_on_terminator;
    Alcotest.test_case "fuel expiring mid-block (sweep)" `Quick
      test_fuel_mid_block;
    Alcotest.test_case "ret into the middle of a block" `Quick
      test_mid_block_entry;
    Alcotest.test_case "hot loop stays exact" `Quick test_hot_loop_is_exact;
    Alcotest.test_case "hot loop: fault on first insn" `Quick
      test_hot_loop_fault_first_insn;
    Alcotest.test_case "hot loop: fault on last insn" `Quick
      test_hot_loop_fault_last_insn;
    Alcotest.test_case "hot loop: fuel sweep (iterations)" `Quick
      test_hot_loop_fuel_sweep;
    Alcotest.test_case "ret into the middle of a hot loop" `Quick
      test_ret_into_hot_loop;
    Alcotest.test_case "segreg reload vs memory fast path" `Quick
      test_segreg_reload_fast_path;
    Alcotest.test_case "tlb conflict eviction under fast path" `Quick
      test_tlb_conflict_eviction;
    Alcotest.test_case "tlb generation counter" `Quick test_tlb_gen_counter;
    Alcotest.test_case "block compile counters" `Quick test_block_counters;
  ]
