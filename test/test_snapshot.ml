(* lib/snapshot: deterministic machine checkpoint/restore.

   The contract under test: a snapshot is byte-stable (same machine
   state → same bytes, so the digest is an equality oracle), restoring
   one rebuilds the complete machine — including the hidden segment
   register caches and the TLB generation counter — and a restored
   machine continued to completion is indistinguishable from one that
   was never interrupted, on any engine, including across engines. *)

let engines =
  [ ("predecoded", Machine.Cpu.Predecoded);
    ("block", Machine.Cpu.Block);
    ("reference", Machine.Cpu.Reference) ]

let matmul () = Core.compile Core.gcc (Workloads.Micro.matmul ~n:6 ())
let cash_matmul () = Core.compile Core.cash (Workloads.Micro.matmul ~n:6 ())

(* Step a freshly started machine [n] instructions, then to the next
   superblock boundary. *)
let warm_state ?engine compiled n =
  let state = Core.start ?engine compiled in
  let process = Core.state_process state in
  let cpu = Osim.Process.cpu process in
  let target = Machine.Cpu.insns_executed cpu + n in
  while
    (match Machine.Cpu.status cpu with
     | Machine.Cpu.Running -> true
     | _ -> false)
    && Machine.Cpu.insns_executed cpu < target
  do
    Machine.Cpu.step cpu
  done;
  ignore (Snapshot.align_to_block process);
  state

let test_save_is_byte_stable () =
  let state = warm_state (matmul ()) 2000 in
  let b1 = Buffer.contents (Core.save state) in
  let b2 = Buffer.contents (Core.save state) in
  Alcotest.(check bool) "same bytes" true (String.equal b1 b2)

let test_round_trip_every_engine () =
  List.iter
    (fun (name, engine) ->
      List.iter
        (fun compiled ->
          let state = warm_state ~engine compiled 2000 in
          let d1 = Core.state_digest state in
          let bytes = Buffer.to_bytes (Core.save state) in
          let restored = Core.restore ~engine compiled bytes in
          let d2 = Core.state_digest restored in
          Alcotest.(check string)
            (Printf.sprintf "round-trip digest (%s)" name)
            d1 d2)
        [ matmul (); cash_matmul () ])
    engines

let test_resume_equals_uninterrupted () =
  List.iter
    (fun (name, engine) ->
      List.iter
        (fun compiled ->
          let baseline = Core.run ~engine compiled in
          let state = warm_state ~engine compiled 2000 in
          let bytes = Buffer.to_bytes (Core.save state) in
          let resumed = Core.finish (Core.restore ~engine compiled bytes) in
          Alcotest.(check bool)
            (Printf.sprintf "status (%s)" name)
            true
            (baseline.Core.status = resumed.Core.status);
          Alcotest.(check int)
            (Printf.sprintf "cycles (%s)" name)
            baseline.Core.cycles resumed.Core.cycles;
          Alcotest.(check int)
            (Printf.sprintf "insns (%s)" name)
            baseline.Core.insns resumed.Core.insns;
          Alcotest.(check string)
            (Printf.sprintf "output (%s)" name)
            baseline.Core.output resumed.Core.output;
          Alcotest.(check string)
            (Printf.sprintf "final digest (%s)" name)
            (Core.state_digest (Core.state_of_run compiled baseline))
            (Core.state_digest (Core.state_of_run compiled resumed)))
        [ matmul (); cash_matmul () ])
    engines

(* The cross-engine resume oracle: snapshot under one engine, restore
   under another, continue — the result must equal an uninterrupted run
   on either engine. *)
let test_cross_engine_resume () =
  let compiled = cash_matmul () in
  let baseline = Core.run ~engine:Machine.Cpu.Reference compiled in
  List.iter
    (fun ((from_name, from_engine), (to_name, to_engine)) ->
      let state = warm_state ~engine:from_engine compiled 2000 in
      let bytes = Buffer.to_bytes (Core.save state) in
      let resumed =
        Core.finish (Core.restore ~engine:to_engine compiled bytes)
      in
      let label what =
        Printf.sprintf "%s (%s -> %s)" what from_name to_name
      in
      Alcotest.(check bool)
        (label "status") true
        (baseline.Core.status = resumed.Core.status);
      Alcotest.(check int) (label "cycles") baseline.Core.cycles
        resumed.Core.cycles;
      Alcotest.(check string) (label "output") baseline.Core.output
        resumed.Core.output)
    [
      (("block", Machine.Cpu.Block), ("reference", Machine.Cpu.Reference));
      (("reference", Machine.Cpu.Reference), ("block", Machine.Cpu.Block));
      (("predecoded", Machine.Cpu.Predecoded), ("block", Machine.Cpu.Block));
    ]

(* A mid-block checkpoint request steps forward to the next superblock
   boundary, by the same number of instructions on every attempt. *)
let test_mid_block_alignment_deterministic () =
  let compiled = matmul () in
  let mid_state () =
    let state = Core.start ~engine:Machine.Cpu.Block compiled in
    let cpu = Osim.Process.cpu (Core.state_process state) in
    (* An odd step count strands EIP mid-block more often than not. *)
    for _ = 1 to 1237 do
      if Machine.Cpu.status cpu = Machine.Cpu.Running then
        Machine.Cpu.step cpu
    done;
    state
  in
  let s1 = mid_state () and s2 = mid_state () in
  let steps1 = Snapshot.align_to_block (Core.state_process s1) in
  let steps2 = Snapshot.align_to_block (Core.state_process s2) in
  Alcotest.(check int) "same alignment distance" steps1 steps2;
  Alcotest.(check string) "same aligned state" (Core.state_digest s1)
    (Core.state_digest s2);
  (* And the post-alignment EIP really is a block boundary. *)
  let cpu = Osim.Process.cpu (Core.state_process s1) in
  let prog = Machine.Cpu.program cpu in
  Alcotest.(check bool) "EIP on block start" true
    (prog.Machine.Program.block_at.(Machine.Cpu.eip cpu) >= 0);
  Alcotest.(check int) "already aligned = 0 steps" 0
    (Snapshot.align_to_block (Core.state_process s1))

(* A snapshot taken while the block engine is running a hot loop under
   real block dispatch: finishing from the same bytes under the block
   engine and under the per-instruction engine lands on the same digest
   as an uninterrupted reference run. *)
let test_snapshot_mid_hot_loop () =
  let compiled = cash_matmul () in
  let baseline = Core.run ~engine:Machine.Cpu.Reference compiled in
  let state = Core.start ~engine:Machine.Cpu.Block compiled in
  let process = Core.state_process state in
  let cpu = Osim.Process.cpu process in
  (* Run half the program with real block dispatch, not
     single-stepping: the interrupted run must be inside the hot loop
     when the snapshot is requested. *)
  (try ignore (Osim.Process.run ~fuel:(baseline.Core.insns / 2) process
                : Machine.Cpu.status)
   with Machine.Cpu.Out_of_fuel -> ());
  Alcotest.(check bool) "interrupted mid-run" true
    (Machine.Cpu.status cpu = Machine.Cpu.Running);
  ignore (Snapshot.align_to_block process);
  let bytes = Buffer.to_bytes (Core.save state) in
  let under_block =
    Core.finish (Core.restore ~engine:Machine.Cpu.Block compiled bytes)
  in
  let under_predecode =
    Core.finish (Core.restore ~engine:Machine.Cpu.Predecoded compiled bytes)
  in
  Alcotest.(check string) "digest: block finish = predecode finish"
    (Core.state_digest (Core.state_of_run compiled under_block))
    (Core.state_digest (Core.state_of_run compiled under_predecode));
  Alcotest.(check string) "digest: = uninterrupted reference run"
    (Core.state_digest (Core.state_of_run compiled baseline))
    (Core.state_digest (Core.state_of_run compiled under_block));
  Alcotest.(check int) "cycles" baseline.Core.cycles under_block.Core.cycles;
  Alcotest.(check string) "output" baseline.Core.output
    under_block.Core.output

(* The TLB generation counter and the hidden segment-register caches —
   including a cache that disagrees with the current LDT, the stale-
   selector property Cash's segment reuse relies on — must survive a
   round trip bit-exactly. *)
let test_tlb_gen_and_hidden_caches_survive () =
  let compiled = cash_matmul () in
  let state = warm_state compiled 4000 in
  let process = Core.state_process state in
  let mmu = Osim.Process.mmu process in
  (* Desync GS from the LDT: point it at a live descriptor, then
     rewrite that LDT slot. The hidden cache must keep the old view. *)
  let stale = Seghw.Descriptor.for_array ~base:0x5000 ~size_bytes:256
                ~writable:true in
  let fresh = Seghw.Descriptor.for_array ~base:0x9000 ~size_bytes:64
                ~writable:false in
  let index = 40 in
  Seghw.Descriptor_table.set (Seghw.Mmu.ldt mmu) index stale;
  let sel =
    Seghw.Selector.make ~index ~table:Seghw.Selector.Ldt ~rpl:3
  in
  Seghw.Mmu.load_segreg mmu Seghw.Segreg.GS sel;
  Seghw.Descriptor_table.set (Seghw.Mmu.ldt mmu) index fresh;
  let tlb = Seghw.Mmu.tlb mmu in
  Alcotest.(check bool) "warm TLB has a generation" true
    (tlb.Seghw.Tlb.gen > 0);
  let bytes = Buffer.to_bytes (Core.save state) in
  let restored = Core.restore compiled bytes in
  let rmmu = Osim.Process.mmu (Core.state_process restored) in
  let rtlb = Seghw.Mmu.tlb rmmu in
  Alcotest.(check int) "TLB gen" tlb.Seghw.Tlb.gen rtlb.Seghw.Tlb.gen;
  Alcotest.(check int) "TLB hits" tlb.Seghw.Tlb.hits rtlb.Seghw.Tlb.hits;
  Alcotest.(check int) "TLB misses" tlb.Seghw.Tlb.misses
    rtlb.Seghw.Tlb.misses;
  let gs = Seghw.Mmu.seg rmmu Seghw.Segreg.GS in
  Alcotest.(check bool) "GS selector" true
    (Seghw.Selector.equal (Seghw.Segreg.selector gs) sel);
  (match Seghw.Segreg.cached_descriptor gs with
   | Some d ->
     Alcotest.(check bool) "GS hidden cache kept the stale descriptor"
       true
       (Seghw.Descriptor.equal d stale)
   | None -> Alcotest.fail "GS hidden cache lost");
  (* ... while the restored LDT carries the rewritten slot. *)
  (match Seghw.Descriptor_table.get (Seghw.Mmu.ldt rmmu) index with
   | Some d ->
     Alcotest.(check bool) "LDT slot is the fresh descriptor" true
       (Seghw.Descriptor.equal d fresh)
   | None -> Alcotest.fail "LDT slot lost")

(* Damaged images must fail with [Snapshot.Error], never any other
   exception, and never yield a machine silently. *)
let expect_snapshot_error what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": restore succeeded on damaged image")
  | exception Snapshot.Error _ -> ()
  | exception e ->
    Alcotest.fail
      (Printf.sprintf "%s: escaped with %s" what (Printexc.to_string e))

let test_truncated_fails_typed () =
  let compiled = matmul () in
  let state = warm_state compiled 2000 in
  let bytes = Buffer.to_bytes (Core.save state) in
  let len = Bytes.length bytes in
  (* Every prefix length down to the empty image, sampled densely. *)
  let cuts =
    [ 0; 1; 4; 7; 8; 15; 16; 31 ]
    @ List.init 16 (fun i -> (i + 1) * len / 17)
  in
  List.iter
    (fun cut ->
      if cut < len then
        expect_snapshot_error
          (Printf.sprintf "truncated at %d" cut)
          (fun () ->
            Core.restore compiled (Bytes.sub bytes 0 cut)))
    cuts

let test_corrupted_fails_typed () =
  let compiled = matmul () in
  let state = warm_state compiled 2000 in
  let bytes = Buffer.to_bytes (Core.save state) in
  let len = Bytes.length bytes in
  (* Flipping a byte either still parses to a machine (a flipped
     counter value is indistinguishable from a legitimate one) or
     raises [Snapshot.Error] — anything else is an escape. *)
  for i = 0 to 99 do
    let at = i * len / 100 in
    let copy = Bytes.copy bytes in
    Bytes.set copy at
      (Char.chr (Char.code (Bytes.get copy at) lxor 0xFF));
    match Core.restore compiled copy with
    | _ -> ()
    | exception Snapshot.Error _ -> ()
    | exception e ->
      Alcotest.fail
        (Printf.sprintf "flip at %d escaped with %s" at
           (Printexc.to_string e))
  done;
  (* Specific signatures. *)
  let flip at =
    let copy = Bytes.copy bytes in
    Bytes.set copy at
      (Char.chr (Char.code (Bytes.get copy at) lxor 0xFF));
    copy
  in
  (match Core.restore compiled (flip 0) with
   | _ -> Alcotest.fail "bad magic accepted"
   | exception Snapshot.Error Snapshot.Bad_magic -> ()
   | exception e ->
     Alcotest.fail ("bad magic: " ^ Printexc.to_string e));
  (match Core.restore compiled (flip 8) with
   | _ -> Alcotest.fail "bad version accepted"
   | exception Snapshot.Error (Snapshot.Bad_version _) -> ()
   | exception e ->
     Alcotest.fail ("bad version: " ^ Printexc.to_string e));
  (* A physical-memory high-water mark beyond the simulated 32-bit
     physical address space, through both restore paths: 2^40 asks for
     a buffer the host cannot allocate, and max_int overflows the
     buffer sizing. The field is the 8 bytes after the section's tag
     byte (10), found as the only tag byte followed by the saved
     machine's own high-water mark. *)
  let hw =
    Machine.Phys_mem.high_water (Osim.Process.phys (Core.state_process state))
  in
  let field = Bytes.create 8 in
  Bytes.set_int64_le field 0 (Int64.of_int hw);
  let hw_at =
    List.filter
      (fun i ->
        Bytes.get bytes i = '\010'
        && Bytes.equal (Bytes.sub bytes (i + 1) 8) field)
      (List.init (len - 8) Fun.id)
  in
  Alcotest.(check int) "one physical-memory high-water field" 1
    (List.length hw_at);
  List.iter
    (fun bad ->
      let copy = Bytes.copy bytes in
      Bytes.set_int64_le copy (List.hd hw_at + 1) (Int64.of_int bad);
      expect_snapshot_error
        (Printf.sprintf "restore, high water %d" bad)
        (fun () -> Core.restore compiled copy);
      expect_snapshot_error
        (Printf.sprintf "restore_into, high water %d" bad)
        (fun () -> Core.restore_into (warm_state compiled 100) copy))
    [ 1 lsl 40; max_int ];
  (* Frames the CPU would read through unchecked: byte 6 of the last
     page-table entry's frame and of a live TLB slot's frame (a flip
     there puts the frame far past the physical buffer), and a
     high-water mark one byte past the allocated frames. The paging
     section is found as the only tag byte (8) followed by the saved
     frame count and page-table entry count. *)
  let mmu = Osim.Process.mmu (Core.state_process state) in
  let paging = Seghw.Mmu.paging mmu in
  let next_frame = Seghw.Paging.frames_allocated paging in
  let n_ptes = List.length (Seghw.Paging.entries paging) in
  let header = Bytes.create 16 in
  Bytes.set_int64_le header 0 (Int64.of_int next_frame);
  Bytes.set_int64_le header 8 (Int64.of_int n_ptes);
  let paging_at =
    List.filter
      (fun i ->
        Bytes.get bytes i = '\008'
        && Bytes.equal (Bytes.sub bytes (i + 1) 16) header)
      (List.init (len - 16) Fun.id)
  in
  Alcotest.(check int) "one paging section" 1 (List.length paging_at);
  let paging_at = List.hd paging_at in
  (* entries are (page, frame, present, writable): 8 + 8 + 1 + 1 bytes;
     the TLB section follows with its tag, its size, then per slot
     (tag, frame, writable): 8 + 8 + 1 bytes *)
  let last_pte_frame = paging_at + 17 + ((n_ptes - 1) * 18) + 8 in
  let tlb_at = paging_at + 17 + (n_ptes * 18) in
  let tlb = Seghw.Mmu.tlb mmu in
  let live_slot =
    match
      List.find_opt
        (fun i -> tlb.Seghw.Tlb.tags.(i) >= 0)
        (List.init (Array.length tlb.Seghw.Tlb.tags) Fun.id)
    with
    | Some i -> i
    | None -> Alcotest.fail "no live TLB slot"
  in
  let live_tlb_frame = tlb_at + 9 + (live_slot * 17) + 8 in
  Alcotest.(check int) "TLB section found" 9
    (Char.code (Bytes.get bytes tlb_at));
  let high_water =
    let copy = Bytes.copy bytes in
    Bytes.set_int64_le copy (List.hd hw_at + 1)
      (Int64.of_int ((next_frame * 4096) + 1));
    copy
  in
  List.iter
    (fun (what, copy) ->
      expect_snapshot_error ("restore, " ^ what) (fun () ->
          Core.restore compiled copy);
      expect_snapshot_error ("restore_into, " ^ what) (fun () ->
          Core.restore_into (warm_state compiled 100) copy))
    [ ("last PTE frame", flip (last_pte_frame + 6));
      ("live TLB frame", flip (live_tlb_frame + 6));
      ("high water past the frames", high_water) ]

let test_wrong_program_rejected () =
  let compiled = matmul () in
  let other = Core.compile Core.gcc (Workloads.Micro.fft2d ~n:8 ()) in
  let state = warm_state compiled 2000 in
  let bytes = Buffer.to_bytes (Core.save state) in
  match Core.restore other bytes with
  | _ -> Alcotest.fail "mismatched program accepted"
  | exception Snapshot.Error Snapshot.Program_mismatch -> ()
  | exception e ->
    Alcotest.fail ("wrong program: " ^ Printexc.to_string e)

(* server_ready: the warm-start marker the Table 8 split snapshots at.
   It must fire exactly once per request-server init, leave the machine
   block-aligned, and cost the same under every backend (so warm-start
   reassembly stays byte-identical). *)
let test_run_to_marker () =
  List.iter
    (fun backend ->
      let compiled =
        Core.compile backend (Workloads.Netapps.qpopper ~messages:2 ())
      in
      let state = Core.start compiled in
      let process = Core.state_process state in
      Alcotest.(check bool) "marker fires" true
        (Snapshot.run_to_marker process);
      (* Post-marker EIP is a block start: Callext ends a superblock. *)
      let cpu = Osim.Process.cpu process in
      let prog = Machine.Cpu.program cpu in
      Alcotest.(check bool) "block-aligned at marker" true
        (prog.Machine.Program.block_at.(Machine.Cpu.eip cpu) >= 0);
      (* Resuming from the marker ends exactly like the unbroken run. *)
      let baseline = Core.run compiled in
      let bytes = Buffer.to_bytes (Core.save state) in
      let resumed = Core.finish (Core.restore compiled bytes) in
      Alcotest.(check int) "cycles" baseline.Core.cycles
        resumed.Core.cycles;
      Alcotest.(check string) "output" baseline.Core.output
        resumed.Core.output)
    [ Core.gcc; Core.bcc; Core.cash ]

(* Version-2 images carry the protection hardware of the MPX and
   capability backends: the warmed machine has live bounds registers,
   bound-table entries, and interned capabilities, and all of it must
   round-trip — digest-identical restore, and a resumed run
   indistinguishable from an uninterrupted one. *)
let test_protection_state_round_trips () =
  List.iter
    (fun backend ->
      let compiled = Core.compile backend (Workloads.Micro.matmul ~n:6 ()) in
      let name = Core.backend_name backend in
      let baseline = Core.run compiled in
      let state = warm_state compiled 2000 in
      let d1 = Core.state_digest state in
      let bytes = Buffer.to_bytes (Core.save state) in
      let restored = Core.restore compiled bytes in
      Alcotest.(check string)
        (name ^ ": restore digest-identical")
        d1 (Core.state_digest restored);
      let resumed = Core.finish restored in
      Alcotest.(check bool)
        (name ^ ": resumed status") true
        (baseline.Core.status = resumed.Core.status);
      Alcotest.(check int)
        (name ^ ": resumed cycles")
        baseline.Core.cycles resumed.Core.cycles;
      Alcotest.(check int)
        (name ^ ": resumed insns")
        baseline.Core.insns resumed.Core.insns;
      Alcotest.(check string)
        (name ^ ": resumed output")
        baseline.Core.output resumed.Core.output)
    [ Core.mpx; Core.cap ]

(* Back-compatibility: a version-1 image (no protection section) still
   restores under the version-2 reader, with the protection hardware
   zero-initialized. For a machine whose backend never touches that
   hardware, zero-initialized IS its true state — so re-saving the
   v1-restored machine must reproduce the fresh v2 image exactly. *)
let test_v1_image_restores_under_v2 () =
  let compiled = matmul () in
  let state = warm_state compiled 2000 in
  let process = Core.state_process state in
  let v1 = Buffer.to_bytes (Snapshot.save ~format_version:1 process) in
  let v2 = Buffer.to_bytes (Snapshot.save process) in
  Alcotest.(check bool) "v1 and v2 encodings differ" false
    (Bytes.equal v1 v2);
  let restored = Core.restore compiled v1 in
  Alcotest.(check string) "v1 restore re-saves as the fresh v2 image"
    (Snapshot.digest v2)
    (Core.state_digest restored);
  (* And the restored machine is live: it finishes like the original. *)
  let baseline = Core.run compiled in
  let resumed = Core.finish restored in
  Alcotest.(check int) "v1-restored run cycles" baseline.Core.cycles
    resumed.Core.cycles;
  Alcotest.(check string) "v1-restored run output" baseline.Core.output
    resumed.Core.output

(* A v1 image of an MPX machine loses the bound-table state by
   construction; restoring must still succeed (registers come back
   unbounded, so checks stay permissive) and run to completion. *)
let test_v1_image_of_mpx_machine_restores () =
  let compiled = Core.compile Core.mpx (Workloads.Micro.matmul ~n:6 ()) in
  let state = warm_state compiled 2000 in
  let v1 =
    Buffer.to_bytes
      (Snapshot.save ~format_version:1 (Core.state_process state))
  in
  let resumed = Core.finish (Core.restore compiled v1) in
  Alcotest.(check bool) "mpx machine restored from v1 finishes" true
    (resumed.Core.status = Core.Finished)

let suite =
  [
    Alcotest.test_case "save is byte-stable" `Quick test_save_is_byte_stable;
    Alcotest.test_case "round-trip digest-identical on every engine" `Quick
      test_round_trip_every_engine;
    Alcotest.test_case "resume equals uninterrupted run" `Quick
      test_resume_equals_uninterrupted;
    Alcotest.test_case "cross-engine resume oracle" `Quick
      test_cross_engine_resume;
    Alcotest.test_case "mid-block snapshot aligns deterministically" `Quick
      test_mid_block_alignment_deterministic;
    Alcotest.test_case "mid-run snapshot of a hot loop" `Quick
      test_snapshot_mid_hot_loop;
    Alcotest.test_case "TLB gen and hidden segreg caches survive" `Quick
      test_tlb_gen_and_hidden_caches_survive;
    Alcotest.test_case "truncated image fails with typed error" `Quick
      test_truncated_fails_typed;
    Alcotest.test_case "corrupted image fails with typed error" `Quick
      test_corrupted_fails_typed;
    Alcotest.test_case "mismatched program rejected" `Quick
      test_wrong_program_rejected;
    Alcotest.test_case "run_to_marker warm start" `Quick test_run_to_marker;
    Alcotest.test_case "protection hardware state round-trips (v2)" `Quick
      test_protection_state_round_trips;
    Alcotest.test_case "v1 image restores under the v2 reader" `Quick
      test_v1_image_restores_under_v2;
    Alcotest.test_case "v1 image of an MPX machine restores permissive"
      `Quick test_v1_image_of_mpx_machine_restores;
  ]
