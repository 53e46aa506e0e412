(* The block engine against its oracle.

   Both of the block engine's closure sets — untraced and traced, each
   running the superblocks (closure-compiled straight-line regions,
   per-segment TLB fast path) with the per-instruction [exec] step over
   the pre-decoded program (pre-resolved branch targets, tabulated
   cycle costs, pre-interned stat counters, exception-free control
   flow) as their fallback — must be observationally indistinguishable
   from the reference interpreter they replaced on the hot path:
   identical simulated cycles, instruction counts, limit-check counts,
   program output, stat counters, and final register/memory state — the
   bit-identical-reproduction invariant the benchmark tables depend on.
   Traced, the event stream, the per-function attribution and the
   shipped plugins' verdicts must match the oracle's as well.

   Plus unit tests for the link-time lowering itself (branch-target
   pre-resolution, stat-label marking, link errors) and for the flattened
   segment-descriptor cache (invalidation on reload, null loads, LDTR
   switch semantics). *)

open Seghw

let check_fault name f =
  match f () with
  | exception Fault.Fault _ -> ()
  | _ -> Alcotest.failf "%s: expected a fault" name

(* --- engine equivalence ------------------------------------------------- *)

let status_str = function
  | Core.Finished -> "finished"
  | Core.Bound_violation m -> "bound_violation: " ^ m
  | Core.Crashed m -> "crashed: " ^ m

let regs_of (r : Core.run) = Machine.Cpu.regs (Osim.Process.cpu r.Core.process)
let mmu_of (r : Core.run) = Osim.Process.mmu r.Core.process
let phys_of (r : Core.run) = Osim.Process.phys r.Core.process

let all_gp =
  Machine.Registers.[ EAX; EBX; ECX; EDX; ESI; EDI; EBP; ESP ]

(* Run [compiled] under the block engine, untraced and with a fresh
   sink (the traced closure set), and assert each observable equal to
   the reference oracle's. [Core.run] loads a fresh
   process each time, so the runs share nothing but the linked
   program. *)
let fast_legs = [ ("block", false); ("block-traced", true) ]

let check_equivalent name compiled =
  let slow = Core.run ~engine:Machine.Cpu.Reference compiled in
  List.iter (fun (ename, traced) ->
  let name = name ^ "[" ^ ename ^ "]" in
  let trace = if traced then Some (Trace.create ()) else None in
  let fast = Core.run ~engine:Machine.Cpu.Block ?trace compiled in
  Alcotest.(check string)
    (name ^ ": status")
    (status_str slow.Core.status)
    (status_str fast.Core.status);
  Alcotest.(check int) (name ^ ": cycles") slow.Core.cycles fast.Core.cycles;
  Alcotest.(check int) (name ^ ": insns") slow.Core.insns fast.Core.insns;
  Alcotest.(check string) (name ^ ": output") slow.Core.output fast.Core.output;
  Alcotest.(check int)
    (name ^ ": limit checks")
    (Mmu.limit_checks (mmu_of slow))
    (Mmu.limit_checks (mmu_of fast));
  Alcotest.(check int)
    (name ^ ": tlb hits")
    (Tlb.hits (Mmu.tlb (mmu_of slow)))
    (Tlb.hits (Mmu.tlb (mmu_of fast)));
  Alcotest.(check int)
    (name ^ ": tlb misses")
    (Tlb.misses (Mmu.tlb (mmu_of slow)))
    (Tlb.misses (Mmu.tlb (mmu_of fast)));
  Alcotest.(check (list (pair string int)))
    (name ^ ": stat counters")
    (Machine.Cpu.stats (Osim.Process.cpu slow.Core.process))
    (Machine.Cpu.stats (Osim.Process.cpu fast.Core.process));
  List.iter
    (fun r ->
      Alcotest.(check int)
        (name ^ ": " ^ Machine.Registers.reg_name r)
        (Machine.Registers.get (regs_of slow) r)
        (Machine.Registers.get (regs_of fast) r))
    all_gp;
  for i = 0 to 7 do
    let xmm = Machine.Registers.freg_of_int i in
    Alcotest.(check (float 0.0))
      (Printf.sprintf "%s: xmm%d" name i)
      (Machine.Registers.getf (regs_of slow) xmm)
      (Machine.Registers.getf (regs_of fast) xmm)
  done;
  let pf = phys_of fast and ps = phys_of slow in
  let hw_f = Machine.Phys_mem.high_water pf in
  let hw_s = Machine.Phys_mem.high_water ps in
  Alcotest.(check int) (name ^ ": high water") hw_s hw_f;
  for addr = 0 to hw_f - 1 do
    if Machine.Phys_mem.read8 pf addr <> Machine.Phys_mem.read8 ps addr then
      Alcotest.failf "%s: memory differs at physical 0x%x (%d vs %d)" name
        addr
        (Machine.Phys_mem.read8 pf addr)
        (Machine.Phys_mem.read8 ps addr)
  done)
    fast_legs

let check_equivalent_src name backend source =
  check_equivalent name (Core.compile backend source)

(* One representative per workload tier, each under the baseline compiler
   and under Cash (whose segment loads, LDT gates, and stat counters
   exercise every corner of the engine). Sizes are scaled down; coverage
   comes from shape, not volume. *)

let test_equiv_micro () =
  let src = Workloads.Micro.matmul ~n:8 () in
  check_equivalent_src "matmul/gcc" Core.gcc src;
  check_equivalent_src "matmul/cash" Core.cash src

let test_equiv_micro_float () =
  let src = Workloads.Micro.fft2d ~n:8 () in
  check_equivalent_src "fft2d/gcc" Core.gcc src;
  check_equivalent_src "fft2d/cash" Core.cash src

let test_equiv_macro () =
  let src = Workloads.Macro.cjpeg ~width:16 ~height:16 () in
  check_equivalent_src "cjpeg/cash" Core.cash src

let test_equiv_netapp () =
  let src = Workloads.Netapps.qpopper ~messages:2 ~msg_len:64 () in
  check_equivalent_src "qpopper/cash" Core.cash src

let test_equiv_bcc_and_fault () =
  (* The software-checked backend, and a program that faults: the faulting
     EIP and partial counts must agree too. *)
  check_equivalent_src "matmul/bcc" Core.bcc
    (Workloads.Micro.matmul ~n:6 ());
  let overrun = "int main() { int a[4]; int i; for (i = 0; i <= 4; i = i + 1) a[i] = i; return a[0]; }" in
  check_equivalent_src "overrun/cash" Core.cash overrun

(* --- tracing does not perturb execution ----------------------------------- *)

(* The tentpole invariant of the tracing subsystem, from both sides:

   - attaching a sink must not change ANY observable of a run (status,
     cycles, insns, output, limit-check/TLB totals, stat counters) —
     the traced run is bit-identical to the untraced one;
   - the event stream itself is engine-independent: the block engine
     and the reference oracle, each run with its own sink carrying the
     shipped plugins, must produce identical event counters, ring
     contents, per-function cycle attribution and plugin verdicts. *)

let check_run_identical name (a : Core.run) (b : Core.run) =
  Alcotest.(check string)
    (name ^ ": status") (status_str a.Core.status) (status_str b.Core.status);
  Alcotest.(check int) (name ^ ": cycles") a.Core.cycles b.Core.cycles;
  Alcotest.(check int) (name ^ ": insns") a.Core.insns b.Core.insns;
  Alcotest.(check string) (name ^ ": output") a.Core.output b.Core.output;
  Alcotest.(check int)
    (name ^ ": limit checks")
    (Mmu.limit_checks (mmu_of a))
    (Mmu.limit_checks (mmu_of b));
  Alcotest.(check int)
    (name ^ ": tlb hits")
    (Tlb.hits (Mmu.tlb (mmu_of a)))
    (Tlb.hits (Mmu.tlb (mmu_of b)));
  Alcotest.(check int)
    (name ^ ": tlb misses")
    (Tlb.misses (Mmu.tlb (mmu_of a)))
    (Tlb.misses (Mmu.tlb (mmu_of b)));
  Alcotest.(check (list (pair string int)))
    (name ^ ": stat counters")
    (Machine.Cpu.stats (Osim.Process.cpu a.Core.process))
    (Machine.Cpu.stats (Osim.Process.cpu b.Core.process))

let check_traced_equivalent name compiled =
  let untraced = Core.run ~engine:Machine.Cpu.Block compiled in
  let checked_sink () =
    let s = Trace.create () in
    Checkers.attach_shipped s;
    s
  in
  let sink_blk = checked_sink () in
  let blk = Core.run ~engine:Machine.Cpu.Block ~trace:sink_blk compiled in
  check_run_identical (name ^ "/traced-vs-untraced") untraced blk;
  let sink_ref = checked_sink () in
  let slow = Core.run ~engine:Machine.Cpu.Reference ~trace:sink_ref compiled in
  check_run_identical (name ^ "/traced-engines") blk slow;
  List.iter Trace.finish_plugins [ sink_blk; sink_ref ];
  let ring s = List.map (Format.asprintf "%a" Trace.pp_event) (Trace.events s) in
  Alcotest.(check (list string))
    (name ^ ": ring, block vs reference")
    (ring sink_ref) (ring sink_blk);
  Alcotest.(check (list (pair string string)))
    (name ^ ": plugin violations, block vs reference")
    (Trace.violations sink_ref) (Trace.violations sink_blk);
  Alcotest.(check (list (pair string string)))
    (name ^ ": plugin reports, block vs reference")
    (List.map (fun (n, j) -> (n, Trace.Json.to_string j))
       (Trace.plugin_json sink_ref))
    (List.map (fun (n, j) -> (n, Trace.Json.to_string j))
       (Trace.plugin_json sink_blk));
  let attr (sym, insns, cycles) =
    Printf.sprintf "%s insns=%d cycles=%d" sym insns cycles
  in
  Alcotest.(check (list (pair string int)))
    (name ^ ": event counters, block vs reference")
    (Trace.counters sink_ref) (Trace.counters sink_blk);
  Alcotest.(check int)
    (name ^ ": total events, block vs reference")
    (Trace.total_events sink_ref)
    (Trace.total_events sink_blk);
  Alcotest.(check int)
    (name ^ ": reload-interval samples, block vs reference")
    (Trace.Histogram.total (Trace.reload_interval sink_ref))
    (Trace.Histogram.total (Trace.reload_interval sink_blk));
  Alcotest.(check (list string))
    (name ^ ": cycle attribution, block vs reference")
    (List.map attr (Trace.attributions sink_ref))
    (List.map attr (Trace.attributions sink_blk))

let test_traced_equiv () =
  check_traced_equivalent "matmul/cash"
    (Core.compile Core.cash (Workloads.Micro.matmul ~n:8 ()));
  check_traced_equivalent "matmul/gcc"
    (Core.compile Core.gcc (Workloads.Micro.matmul ~n:8 ()));
  check_traced_equivalent "matmul/bcc"
    (Core.compile Core.bcc (Workloads.Micro.matmul ~n:6 ()))

let test_traced_equiv_faulting () =
  (* The faulting path too: partial event streams must agree, and the
     single fault event must appear under both engines. *)
  let overrun =
    "int main() { int a[4]; int i; for (i = 0; i <= 4; i = i + 1) a[i] = i; \
     return a[0]; }"
  in
  check_traced_equivalent "overrun/cash" (Core.compile Core.cash overrun);
  let sink = Trace.create () in
  ignore (Core.run ~trace:sink (Core.compile Core.cash overrun));
  Alcotest.(check int) "overrun: one #GP event" 1
    (Trace.count sink Trace.K_fault_gp)

(* --- link-time lowering -------------------------------------------------- *)

let test_targets_resolved () =
  let open Machine in
  let p =
    Program.link ~entry:"entry"
      [
        Insn.Label "entry";
        Insn.Jmp "end";
        Insn.Label "loop";
        Insn.Jcc (Insn.Eq, "loop");
        Insn.Call "fn";
        Insn.Label "end";
        Insn.Halt;
        Insn.Label "fn";
        Insn.Ret;
      ]
  in
  (* Every branch site carries the index [resolve] would compute; every
     other site carries the sentinel. *)
  Array.iteri
    (fun i insn ->
      match insn with
      | Insn.Jmp l | Insn.Jcc (_, l) | Insn.Call l ->
        Alcotest.(check int)
          (Printf.sprintf "target of %d -> %s" i l)
          (Program.resolve p l)
          p.Program.targets.(i)
      | _ ->
        Alcotest.(check int)
          (Printf.sprintf "no target at %d" i)
          Program.no_target p.Program.targets.(i))
    p.Program.code;
  Alcotest.(check int) "entry index" (Program.resolve p "entry")
    p.Program.entry_index;
  Alcotest.(check bool) "entry in range" true
    (p.Program.entry_index >= 0
     && p.Program.entry_index < Array.length p.Program.code)

let test_stat_labels_marked () =
  let open Machine in
  let p =
    Program.link ~entry:"main"
      [ Insn.Label "main"; Insn.Label "__stat_swc_0"; Insn.Halt ]
  in
  Alcotest.(check bool) "plain label" false p.Program.stat_labels.(0);
  Alcotest.(check bool) "stat label" true p.Program.stat_labels.(1);
  Alcotest.(check bool) "non-label" false p.Program.stat_labels.(2);
  Alcotest.(check bool) "is_stat_label" true
    (Program.is_stat_label "__stat_iter_a_3");
  Alcotest.(check bool) "not stat" false (Program.is_stat_label "loop_head")

let test_link_undefined_target () =
  let open Machine in
  match Program.link ~entry:"main" [ Insn.Label "main"; Insn.Jmp "nowhere" ] with
  | exception Program.Link_error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "mentions the label: %s" msg)
      true
      (try ignore (Str.search_forward (Str.regexp_string "nowhere") msg 0); true
       with Not_found -> false)
  | _ -> Alcotest.fail "linking an undefined jump target must fail"

let test_link_undefined_entry () =
  let open Machine in
  match Program.link ~entry:"absent" [ Insn.Label "main"; Insn.Halt ] with
  | exception Program.Link_error _ -> ()
  | _ -> Alcotest.fail "linking an undefined entry must fail"

(* --- flattened segment-descriptor cache ---------------------------------- *)

let data_seg ~limit =
  Descriptor.make ~base:0x5000 ~limit ~granularity:false ~dpl:3 ~present:true
    ~seg_type:(Descriptor.Data { writable = true })

let make_mmu () =
  let gdt = Descriptor_table.create Descriptor_table.Gdt_table in
  let ldt = Descriptor_table.create Descriptor_table.Ldt_table in
  Descriptor_table.set ldt 1 (data_seg ~limit:0xFF);
  let mmu = Mmu.create ~gdt ~ldt in
  Mmu.map_range mmu ~linear:0x5000 ~size:0x2000 ~writable:true;
  (ldt, mmu)

let gs_sel = Selector.make ~index:1 ~table:Selector.Ldt ~rpl:3

let test_flat_cache_reload () =
  let ldt, mmu = make_mmu () in
  Mmu.load_segreg mmu Segreg.GS gs_sel;
  ignore (Mmu.translate mmu ~seg_name:Segreg.GS ~offset:0x80 ~size:4 ~write:true);
  (* Shrink the descriptor and reload: the flattened mirror must pick up
     the new limit, not serve the stale fast-path copy. *)
  Descriptor_table.set ldt 1 (data_seg ~limit:0x0F);
  Mmu.load_segreg mmu Segreg.GS gs_sel;
  ignore (Mmu.translate mmu ~seg_name:Segreg.GS ~offset:0x0C ~size:4 ~write:true);
  check_fault "old limit rejected" (fun () ->
      ignore
        (Mmu.translate mmu ~seg_name:Segreg.GS ~offset:0x80 ~size:4
           ~write:false))

let test_flat_cache_null_load () =
  let _, mmu = make_mmu () in
  Mmu.load_segreg mmu Segreg.GS gs_sel;
  ignore (Mmu.translate mmu ~seg_name:Segreg.GS ~offset:0 ~size:1 ~write:false);
  Mmu.load_segreg mmu Segreg.GS Selector.null;
  check_fault "null GS faults on use" (fun () ->
      ignore
        (Mmu.translate mmu ~seg_name:Segreg.GS ~offset:0 ~size:1 ~write:false))

let test_flat_cache_ldt_switch () =
  (* set_ldt must NOT invalidate an already-loaded register (descriptor
     caches survive table switches, the property Cash's segment-reuse
     cache depends on) — but the next load resolves from the new table. *)
  let _, mmu = make_mmu () in
  Mmu.load_segreg mmu Segreg.GS gs_sel;
  let fresh = Descriptor_table.create Descriptor_table.Ldt_table in
  Descriptor_table.set fresh 1 (data_seg ~limit:0x07);
  Mmu.set_ldt mmu fresh;
  (* stale cache still in force: old limit, no fault *)
  ignore (Mmu.translate mmu ~seg_name:Segreg.GS ~offset:0x80 ~size:4 ~write:true);
  (* reload: now the new table's tighter limit applies *)
  Mmu.load_segreg mmu Segreg.GS gs_sel;
  ignore (Mmu.translate mmu ~seg_name:Segreg.GS ~offset:0x04 ~size:4 ~write:true);
  check_fault "new table's limit" (fun () ->
      ignore
        (Mmu.translate mmu ~seg_name:Segreg.GS ~offset:0x80 ~size:4
           ~write:false))

let suite =
  [
    Alcotest.test_case "equivalence: micro (matmul)" `Slow test_equiv_micro;
    Alcotest.test_case "equivalence: micro float (fft2d)" `Slow
      test_equiv_micro_float;
    Alcotest.test_case "equivalence: macro (cjpeg)" `Slow test_equiv_macro;
    Alcotest.test_case "equivalence: netapp (qpopper)" `Slow test_equiv_netapp;
    Alcotest.test_case "equivalence: bcc + faulting run" `Slow
      test_equiv_bcc_and_fault;
    Alcotest.test_case "tracing: bit-identical + engine-independent" `Slow
      test_traced_equiv;
    Alcotest.test_case "tracing: faulting run" `Slow
      test_traced_equiv_faulting;
    Alcotest.test_case "link: branch targets pre-resolved" `Quick
      test_targets_resolved;
    Alcotest.test_case "link: stat labels marked" `Quick test_stat_labels_marked;
    Alcotest.test_case "link: undefined target fails" `Quick
      test_link_undefined_target;
    Alcotest.test_case "link: undefined entry fails" `Quick
      test_link_undefined_entry;
    Alcotest.test_case "segreg: flat cache reload" `Quick test_flat_cache_reload;
    Alcotest.test_case "segreg: null load invalidates" `Quick
      test_flat_cache_null_load;
    Alcotest.test_case "segreg: LDT switch semantics" `Quick
      test_flat_cache_ldt_switch;
  ]
