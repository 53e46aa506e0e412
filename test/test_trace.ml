(* The tracing subsystem.

   Three layers of coverage:

   - sink mechanics: per-kind counters, the bounded ring (overwrite +
     drop accounting, also across a merge), the reload-interval
     histogram, plugins and the violation log, JSON export
     well-formedness, and the traced path's allocation budget;
   - fault paths: hand-assembled programs that trigger each fault class
     (#GP limit violation, #SS stack fault, #PF page fault, #BR bound
     range, #NP not-present descriptor) and must emit EXACTLY ONE fault
     event, carrying the right payload (faulting linear address for #PF,
     faulting selector for #NP);
   - the Checkbochs-style use case: a plugin attached to a full
     compiled run, asserting a whole-execution invariant ("under Cash,
     a failed limit check is always the last check of the run"). *)

open Machine

(* --- sink mechanics ------------------------------------------------------ *)

let test_counters () =
  let s = Trace.create () in
  Trace.emit s Trace.Tlb_hit;
  Trace.emit s Trace.Tlb_hit;
  Trace.emit s (Trace.Tlb_miss { page = 3; evicted = false });
  Trace.emit s (Trace.Tlb_miss { page = 7; evicted = true });
  Trace.emit s
    (Trace.Limit_check
       { seg = "GS"; base = 0; offset = 0; size = 4; write = false; ok = true });
  Alcotest.(check int) "hits" 2 (Trace.count s Trace.K_tlb_hit);
  Alcotest.(check int) "misses" 2 (Trace.count s Trace.K_tlb_miss);
  (* an evicting miss bumps both the miss and the evict counter *)
  Alcotest.(check int) "evicts" 1 (Trace.count s Trace.K_tlb_evict);
  Alcotest.(check int) "checks" 1 (Trace.count s Trace.K_limit_check_pass);
  Alcotest.(check int) "total" 5 (Trace.total_events s);
  Alcotest.(check (list (pair string int)))
    "counters list"
    [ ("limit_check.pass", 1); ("tlb.evict", 1); ("tlb.hit", 2);
      ("tlb.miss", 2) ]
    (Trace.counters s)

let test_ring () =
  let s = Trace.create ~capacity:4 () in
  for page = 1 to 6 do
    Trace.emit s (Trace.Tlb_miss { page; evicted = false })
  done;
  Alcotest.(check int) "total" 6 (Trace.total_events s);
  Alcotest.(check int) "dropped" 2 (Trace.dropped s);
  let pages =
    List.map
      (function Trace.Tlb_miss { page; _ } -> page | _ -> -1)
      (Trace.events s)
  in
  (* oldest two overwritten; survivors oldest-first *)
  Alcotest.(check (list int)) "ring keeps newest, ordered" [ 3; 4; 5; 6 ] pages;
  (* Merging a 4-slot sink that saw 10 events into a 16-slot one brings
     10 events into the total but only the 4 the source still held into
     the ring: the other 6 count as dropped. *)
  let src = Trace.create ~capacity:4 () in
  for page = 1 to 10 do
    Trace.emit src (Trace.Tlb_miss { page; evicted = false })
  done;
  let into = Trace.create ~capacity:16 () in
  Trace.merge_into ~into src;
  Alcotest.(check int) "merged total" 10 (Trace.total_events into);
  Alcotest.(check int) "merged dropped" 6 (Trace.dropped into);
  Alcotest.(check (list int))
    "merged ring holds the source's survivors" [ 7; 8; 9; 10 ]
    (List.map
       (function Trace.Tlb_miss { page; _ } -> page | _ -> -1)
       (Trace.events into));
  Alcotest.(check (option int))
    "JSON events_dropped" (Some 6)
    (Option.bind
       (Trace.Json.member "events_dropped" (Trace.to_json into))
       Trace.Json.to_int_opt);
  (* The hot kinds' int slots: a mixed stream fed through
     [limit_check]/[tlb_hit] and [emit] into a small ring, past
     wrap-around and through a merge, reads back exactly as the same
     stream fed through [emit] alone. *)
  let stream =
    List.init 23 (fun i ->
        match i mod 5 with
        | 0 | 3 ->
          let seg = i mod 6 in
          ( `Check seg,
            Trace.Limit_check
              { seg = Seghw.Segreg.name_to_string
                        (List.nth Seghw.Segreg.all_names seg);
                base = 0x1000 * i; offset = 0xFFFFFFF0 + i;
                size = [| 1; 2; 4; 8 |].(i mod 4); write = i mod 2 = 0;
                ok = i mod 7 <> 0 } )
        | 1 -> (`Hit, Trace.Tlb_hit)
        | 2 -> (`Emit, Trace.Tlb_miss { page = i; evicted = i mod 4 = 2 })
        | _ ->
          (`Emit, Trace.Segreg_load { reg = "GS"; selector = i }))
  in
  let feed ~direct =
    let s = Trace.create ~capacity:7 () in
    List.iter
      (fun (how, ev) ->
        match how, ev with
        | `Check seg, Trace.Limit_check { base; offset; size; write; ok; _ }
          when direct ->
          Trace.limit_check s ~seg ~base ~offset ~size ~write ~ok
        | `Hit, _ when direct -> Trace.tlb_hit s
        | _ -> Trace.emit s ev)
      stream;
    let into = Trace.create ~capacity:12 () in
    Trace.emit into (Trace.Tlb_miss { page = 99; evicted = false });
    Trace.merge_into ~into s;
    (s, into)
  in
  let (d, d_into), (e, e_into) = (feed ~direct:true, feed ~direct:false) in
  List.iter
    (fun (what, d, e) ->
      let ring s = List.map (Format.asprintf "%a" Trace.pp_event) (Trace.events s) in
      Alcotest.(check (list string)) (what ^ ": events") (ring e) (ring d);
      Alcotest.(check int) (what ^ ": dropped") (Trace.dropped e)
        (Trace.dropped d);
      Alcotest.(check string) (what ^ ": JSON")
        (Trace.Json.to_string (Trace.to_json e))
        (Trace.Json.to_string (Trace.to_json d)))
    [ ("int slots", d, e); ("int slots merged", d_into, e_into) ];
  Alcotest.(check int) "int slots: wrapped" 16 (Trace.dropped d);
  List.iteri
    (fun i n ->
      Alcotest.(check int) ("segment index of " ^ Seghw.Segreg.name_to_string n)
        i (Seghw.Segreg.index n))
    Seghw.Segreg.all_names

let test_histogram () =
  let h = Trace.Histogram.create () in
  List.iter (Trace.Histogram.add h) [ 0; 1; 2; 3; 4; 1000 ];
  Alcotest.(check int) "total" 6 (Trace.Histogram.total h);
  Alcotest.(check (list (pair int int)))
    "power-of-two buckets"
    [ (0, 1); (1, 1); (2, 2); (4, 1); (512, 1) ]
    (Trace.Histogram.buckets h)

let test_reload_interval () =
  let s = Trace.create () in
  let check () =
    Trace.emit s
      (Trace.Limit_check
         { seg = "GS"; base = 0; offset = 0; size = 4; write = false;
           ok = true })
  in
  let reload () =
    Trace.emit s (Trace.Segreg_load { reg = "GS"; selector = 0xC })
  in
  reload ();
  check (); check (); check ();
  reload ();
  (* histogram: one interval of 0 checks (first load), one of 3 *)
  Alcotest.(check int) "samples" 2
    (Trace.Histogram.total (Trace.reload_interval s));
  Alcotest.(check (list (pair int int)))
    "intervals" [ (0, 1); (2, 1) ]
    (Trace.Histogram.buckets (Trace.reload_interval s))

(* A plugin with no report and no end-of-run pass: [on_event] over a
   state built by [init]. *)
type Trace.plugin_state += No_state

let plugin_of ~name ?(init = fun () -> No_state) on_event :
    Trace.Plugin.spec =
  {
    p_name = name;
    p_kinds = Trace.all_kinds;
    p_init = init;
    p_on_event = on_event;
    p_at_finish = (fun _ _ -> ());
    p_merge = (fun ~into:_ _ -> ());
    p_to_json = (fun _ _ -> Trace.Json.Null);
  }

let test_checkers () =
  let s = Trace.create () in
  Trace.attach s
    (plugin_of ~name:"no-null-selector" (fun sink _ ev ->
         match ev with
         | Trace.Segreg_load { reg; selector = 0 } ->
           Trace.violation sink ~checker:"no-null-selector"
             (Printf.sprintf "null selector loaded into %s" reg)
         | _ -> ()));
  Trace.emit s (Trace.Segreg_load { reg = "GS"; selector = 0xC });
  Alcotest.(check (list (pair string string))) "clean" [] (Trace.violations s);
  Trace.emit s (Trace.Segreg_load { reg = "FS"; selector = 0 });
  Trace.emit s (Trace.Segreg_load { reg = "GS"; selector = 0 });
  Alcotest.(check (list (pair string string)))
    "two violations, emission order"
    [ ("no-null-selector", "null selector loaded into FS");
      ("no-null-selector", "null selector loaded into GS") ]
    (Trace.violations s)

let test_json_export () =
  let s = Trace.create ~capacity:8 () in
  Trace.emit s (Trace.Segreg_load { reg = "GS"; selector = 0xC });
  Trace.emit s
    (Trace.Fault
       { cls = `Pf; detail = "#PF(linear=0x20000, read)";
         address = Some 0x20000; selector = None });
  Trace.add_attribution s "main" ~insns:10 ~cycles:25;
  Trace.violation s ~checker:"demo" "quote \" and backslash \\";
  let js = Trace.Json.to_string (Trace.to_json s) in
  (* structural smoke checks on the serialised form *)
  let has sub =
    try ignore (Str.search_forward (Str.regexp_string sub) js 0); true
    with Not_found -> false
  in
  Alcotest.(check bool) "counters present" true (has "\"segreg.load\":1");
  Alcotest.(check bool) "fault address" true (has "\"address\":131072");
  Alcotest.(check bool) "attribution" true
    (has "{\"symbol\":\"main\",\"insns\":10,\"cycles\":25}");
  Alcotest.(check bool) "escaping" true
    (has "\"quote \\\" and backslash \\\\\"");
  Alcotest.(check bool) "totals" true (has "\"events_total\":2")

(* --- fault paths: one event per architectural fault ---------------------- *)

(* A minimal machine: flat code/data at base 0 (limit chosen per test),
   64 KiB mapped. Returns (cpu, sink, status) after running [insns]. *)
let run_traced ?(data_limit = 0xFFFFF) ?(data_granular = true)
    ?(ss_limit = 0xFFFFF) ?(ss_granular = true) ?(gdt_extra = []) ?setup insns
    =
  let open Seghw in
  let gdt = Descriptor_table.create Descriptor_table.Gdt_table in
  let ldt = Descriptor_table.create Descriptor_table.Ldt_table in
  let seg ~limit ~granularity ty =
    Descriptor.make ~base:0 ~limit ~granularity ~dpl:3 ~present:true
      ~seg_type:ty
  in
  Descriptor_table.set gdt 1
    (seg ~limit:0xFFFFF ~granularity:true (Descriptor.Code { readable = true }));
  Descriptor_table.set gdt 2
    (seg ~limit:data_limit ~granularity:data_granular
       (Descriptor.Data { writable = true }));
  Descriptor_table.set gdt 3
    (seg ~limit:ss_limit ~granularity:ss_granular
       (Descriptor.Data { writable = true }));
  List.iter (fun (i, d) -> Descriptor_table.set gdt i d) gdt_extra;
  let mmu = Mmu.create ~gdt ~ldt in
  Mmu.load_segreg mmu Segreg.CS (Selector.make ~index:1 ~table:Selector.Gdt ~rpl:3);
  List.iter
    (fun r ->
      Mmu.load_segreg mmu r (Selector.make ~index:2 ~table:Selector.Gdt ~rpl:3))
    [ Segreg.DS; Segreg.ES ];
  Mmu.load_segreg mmu Segreg.SS
    (Selector.make ~index:3 ~table:Selector.Gdt ~rpl:3);
  Mmu.map_range mmu ~linear:0 ~size:0x10000 ~writable:true;
  let phys = Phys_mem.create () in
  let program = Program.link ~entry:"main" (Insn.Label "main" :: insns) in
  let cpu = Cpu.create ~mmu ~phys ~costs:Cost_model.pentium3 ~program () in
  Registers.set (Cpu.regs cpu) Registers.ESP 0x8000;
  (match setup with Some f -> f cpu | None -> ());
  let sink = Trace.create () in
  Cpu.set_sink cpu (Some sink);
  let status = Cpu.run ~fuel:100_000 cpu in
  (cpu, sink, status)

let fault_kinds =
  Trace.
    [ K_fault_gp; K_fault_ss; K_fault_pf; K_fault_np; K_fault_ud; K_fault_br ]

let total_fault_events sink =
  List.fold_left (fun acc k -> acc + Trace.count sink k) 0 fault_kinds

(* Assert: faulted with [expect_kind] as the one and only fault event,
   and return that event for payload inspection. *)
let sole_fault_event name sink status expect_kind =
  (match status with
   | Cpu.Faulted _ -> ()
   | Cpu.Halted -> Alcotest.failf "%s: halted instead of faulting" name
   | Cpu.Running -> Alcotest.failf "%s: still running" name);
  Alcotest.(check int) (name ^ ": exactly one fault event") 1
    (total_fault_events sink);
  Alcotest.(check int)
    (name ^ ": of the right class")
    1
    (Trace.count sink expect_kind);
  match
    List.find_opt
      (function Trace.Fault _ -> true | _ -> false)
      (Trace.events sink)
  with
  | Some ev -> ev
  | None -> Alcotest.failf "%s: fault event missing from the ring" name

let test_fault_gp () =
  (* Byte-granular 16-byte data segment; a dword read at 0x100 violates
     the limit through DS -> #GP. *)
  let open Insn in
  let _, sink, status =
    run_traced ~data_limit:0xF ~data_granular:false
      [ Mov (Long, Reg Registers.EAX, Mem (mem ~disp:0x100 ())); Halt ]
  in
  let ev = sole_fault_event "#GP" sink status Trace.K_fault_gp in
  (match ev with
   | Trace.Fault { cls = `Gp; address = None; selector = None; _ } -> ()
   | _ -> Alcotest.fail "#GP: wrong payload");
  (* the check that failed is also on the record *)
  Alcotest.(check int) "#GP: one failed limit check" 1
    (Trace.count sink Trace.K_limit_check_fail)

let test_fault_ss () =
  (* 4 KiB stack segment, ESP forced to 4: the second push wraps the
     offset below the base -> #SS (not #GP: stack-relative access). *)
  let open Insn in
  let _, sink, status =
    run_traced ~ss_limit:0xFFF ~ss_granular:false
      ~setup:(fun cpu -> Registers.set (Cpu.regs cpu) Registers.ESP 4)
      [ Push (Imm 1); Push (Imm 2); Halt ]
  in
  let ev = sole_fault_event "#SS" sink status Trace.K_fault_ss in
  (match ev with
   | Trace.Fault { cls = `Ss; detail; _ } ->
     Alcotest.(check bool)
       (Printf.sprintf "#SS detail (%s)" detail)
       true
       (String.length detail >= 3 && String.sub detail 0 3 = "#SS")
   | _ -> Alcotest.fail "#SS: wrong payload")

let test_fault_pf () =
  (* Linear 0x20000 is inside the flat segment but unmapped -> #PF with
     the faulting linear address in the event. *)
  let open Insn in
  let _, sink, status =
    run_traced [ Mov (Long, Reg Registers.EAX, Mem (mem ~disp:0x20000 ())); Halt ]
  in
  let ev = sole_fault_event "#PF" sink status Trace.K_fault_pf in
  (match ev with
   | Trace.Fault { cls = `Pf; address = Some a; _ } ->
     Alcotest.(check int) "#PF: faulting linear address" 0x20000 a
   | _ -> Alcotest.fail "#PF: event must carry the linear address");
  (* the access got past segmentation: its limit check passed *)
  Alcotest.(check int) "#PF: no failed limit check" 0
    (Trace.count sink Trace.K_limit_check_fail)

let test_fault_br () =
  (* BOUND with EAX outside the [0, 10] pair at 0x100 -> #BR. *)
  let open Insn in
  let _, sink, status =
    run_traced
      [
        Mov (Long, Mem (mem ~disp:0x100 ()), Imm 0);
        Mov (Long, Mem (mem ~disp:0x104 ()), Imm 10);
        Mov (Long, Reg Registers.EAX, Imm 50);
        Bound (Registers.EAX, mem ~disp:0x100 ());
        Halt;
      ]
  in
  let ev = sole_fault_event "#BR" sink status Trace.K_fault_br in
  match ev with
  | Trace.Fault { cls = `Br; address = None; selector = None; _ } -> ()
  | _ -> Alcotest.fail "#BR: wrong payload"

let test_fault_np () =
  (* Loading a selector whose descriptor has P=0 -> #NP carrying the
     selector. *)
  let open Seghw in
  let open Insn in
  let absent =
    Descriptor.make ~base:0 ~limit:0xFF ~granularity:false ~dpl:3
      ~present:false ~seg_type:(Descriptor.Data { writable = true })
  in
  let sel = Selector.make ~index:5 ~table:Selector.Gdt ~rpl:3 in
  let _, sink, status =
    run_traced
      ~gdt_extra:[ (5, absent) ]
      [ Mov_to_seg (Segreg.GS, Imm (Selector.to_int sel)); Halt ]
  in
  let ev = sole_fault_event "#NP" sink status Trace.K_fault_np in
  match ev with
  | Trace.Fault { cls = `Np; selector = Some s; _ } ->
    (* the table lookup reconstructs the selector with RPL 0: compare
       the index/table bits, which identify the faulting descriptor *)
    Alcotest.(check int) "#NP: faulting selector (index bits)"
      (Selector.to_int sel lsr 2)
      (s lsr 2)
  | _ -> Alcotest.fail "#NP: event must carry the selector"

(* The same invariant end-to-end: a compiled Cash program that overruns
   emits exactly one fault event (#GP from the segment limit), and a
   clean run emits none. *)
let overrun_src =
  "int main() { int a[8]; int i; for (i = 0; i <= 8; i = i + 1) a[i] = i; \
   return a[0]; }"

let clean_src =
  "int main() { int a[8]; int i; for (i = 0; i < 8; i = i + 1) a[i] = i; \
   return a[0]; }"

let test_fault_event_compiled () =
  let sink = Trace.create () in
  let r = Core.exec ~trace:sink Core.cash overrun_src in
  (match r.Core.status with
   | Core.Bound_violation _ -> ()
   | s ->
     Alcotest.failf "overrun not flagged: %s"
       (match s with
        | Core.Finished -> "finished"
        | Core.Crashed m -> "crashed: " ^ m
        | _ -> assert false));
  Alcotest.(check int) "one fault event" 1 (total_fault_events sink);
  Alcotest.(check int) "it is #GP" 1 (Trace.count sink Trace.K_fault_gp);
  Alcotest.(check int) "one failed check" 1
    (Trace.count sink Trace.K_limit_check_fail);
  let sink2 = Trace.create () in
  let r2 = Core.exec ~trace:sink2 Core.cash clean_src in
  Alcotest.(check bool) "clean run finishes" true
    (r2.Core.status = Core.Finished);
  Alcotest.(check int) "clean run: no fault events" 0
    (total_fault_events sink2);
  Alcotest.(check int) "clean run: no failed checks" 0
    (Trace.count sink2 Trace.K_limit_check_fail)

(* The scheduler emits one Context_switch per dispatched request, with
   the served process's pid. *)
let test_context_switch_events () =
  let kernel = Osim.Kernel.create () in
  let sink = Trace.create () in
  let compiled =
    Core.compile Core.gcc "int main() { print_int(7); return 0; }"
  in
  let records =
    Osim.Scheduler.serve ~kernel ~requests:3 ~trace:sink (fun _ ->
        (Core.run ~kernel compiled).Core.process)
  in
  Alcotest.(check int) "three requests served" 3 (List.length records);
  Alcotest.(check int) "three context switches" 3
    (Trace.count sink Trace.K_context_switch);
  let pids =
    List.filter_map
      (function Trace.Context_switch { pid } -> Some pid | _ -> None)
      (Trace.events sink)
  in
  Alcotest.(check (list int))
    "pids in dispatch order"
    (List.map (fun r -> r.Osim.Scheduler.pid) records)
    pids

(* --- the Checkbochs-style use case --------------------------------------- *)

(* Attach an invariant plugin to a whole compiled run: once a limit
   check fails, the machine must fault — no further limit checks may
   execute. Runs traced over both a clean and an overrunning program. *)
type Trace.plugin_state += Failed of bool ref

let test_checker_on_run () =
  let fail_is_final =
    plugin_of ~name:"fail-is-final"
      ~init:(fun () -> Failed (ref false))
      (fun sink st ev ->
        match (st, ev) with
        | Failed failed, Trace.Limit_check { ok = false; _ } -> failed := true
        | Failed failed, Trace.Limit_check { ok = true; seg; _ } when !failed
          ->
          Trace.violation sink ~checker:"fail-is-final"
            (Printf.sprintf "limit check through %s after a failed check" seg)
        | _ -> ())
  in
  let make_sink () =
    let s = Trace.create () in
    Trace.attach s fail_is_final;
    s
  in
  let s1 = make_sink () in
  ignore (Core.exec ~trace:s1 Core.cash clean_src);
  Alcotest.(check (list (pair string string)))
    "clean run: no violations" [] (Trace.violations s1);
  let s2 = make_sink () in
  ignore (Core.exec ~trace:s2 Core.cash overrun_src);
  Alcotest.(check (list (pair string string)))
    "overrun: the failed check is the last" [] (Trace.violations s2);
  Alcotest.(check bool) "overrun: sink saw the failure" true
    (Trace.count s2 Trace.K_limit_check_fail = 1)

(* --- plugins ------------------------------------------------------------- *)

(* A counting plugin: the state records how many events its on_event
   saw and how many finish passes ran; merge sums both. The counts are
   read back through the plugin's own JSON report, so the tests observe
   exactly what an export consumer would. *)
type Trace.plugin_state += Counting of { events : int ref; finishes : int ref }

let counting_spec name =
  {
    Trace.Plugin.p_name = name;
    p_kinds = Trace.all_kinds;
    p_init = (fun () -> Counting { events = ref 0; finishes = ref 0 });
    p_on_event =
      (fun _sink st _ev ->
        match st with Counting c -> incr c.events | _ -> assert false);
    p_at_finish =
      (fun _sink st ->
        match st with Counting c -> incr c.finishes | _ -> assert false);
    p_merge =
      (fun ~into src ->
        match (into, src) with
        | Counting i, Counting s ->
          i.events := !(i.events) + !(s.events);
          i.finishes := !(i.finishes) + !(s.finishes)
        | _ -> assert false);
    p_to_json =
      (fun _sink st ->
        match st with
        | Counting c ->
          Trace.Json.Obj
            [ ("events", Trace.Json.Int !(c.events));
              ("finishes", Trace.Json.Int !(c.finishes)) ]
        | _ -> Trace.Json.Null);
  }

let plugin_field sink plugin field =
  match List.assoc_opt plugin (Trace.plugin_json sink) with
  | Some js ->
    (match Option.bind (Trace.Json.member field js) Trace.Json.to_int_opt with
     | Some n -> n
     | None -> Alcotest.failf "plugin %s: no int field %s" plugin field)
  | None -> Alcotest.failf "plugin %s not attached" plugin

let some_event = Trace.Tlb_hit

let test_plugin_feed_and_finish () =
  let s = Trace.create () in
  Trace.attach s (counting_spec "c");
  (match Trace.attach s (counting_spec "c") with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "duplicate attach must be rejected");
  Trace.emit s some_event;
  Trace.emit s some_event;
  Trace.emit s some_event;
  Alcotest.(check (list string)) "names" [ "c" ] (Trace.plugin_names s);
  Alcotest.(check int) "every emit delivered" 3 (plugin_field s "c" "events");
  Trace.finish_plugins s;
  Trace.finish_plugins s;
  (* idempotent per instance: the second call is a no-op *)
  Alcotest.(check int) "finish ran exactly once" 1
    (plugin_field s "c" "finishes")

(* [emit] feeds a plugin the kinds it declares and, after a
   [want_next], the one next event whatever its kind; a request still
   pending moves with the plugin through [merge_into]. *)
let test_plugin_subscription () =
  let fed = ref [] in
  let watcher =
    { (plugin_of ~name:"miss-watcher" (fun sink _ ev ->
           fed := Trace.kind_name (Trace.kind_of_event ev) :: !fed;
           match ev with
           | Trace.Tlb_miss _ -> Trace.want_next sink ~checker:"miss-watcher"
           | _ -> ()))
      with
      Trace.Plugin.p_kinds = [ Trace.K_tlb_miss ] }
  in
  let pass =
    Trace.Limit_check
      { seg = "DS"; base = 0; offset = 0; size = 4; write = false; ok = true }
  in
  let s = Trace.create () in
  Trace.attach s watcher;
  List.iter (Trace.emit s)
    [ Trace.Tlb_hit; Trace.Tlb_miss { page = 1; evicted = false }; pass; pass;
      Trace.Tlb_hit; Trace.Tlb_miss { page = 2; evicted = false } ];
  Alcotest.(check (list string))
    "declared kind, plus the event after each request"
    [ "tlb.miss"; "limit_check.pass"; "tlb.miss" ]
    (List.rev !fed);
  let into = Trace.create () in
  Trace.merge_into ~into s;
  Trace.emit into Trace.Tlb_hit;
  Trace.emit into Trace.Tlb_hit;
  Alcotest.(check (list string))
    "the pending request survives the merge, once"
    [ "tlb.miss"; "limit_check.pass"; "tlb.miss"; "tlb.hit" ]
    (List.rev !fed)

(* The merge_into contract for plugins (trace.mli): aggregation, not
   emission. A plugin on both sinks has the states folded through
   p_merge — into's on_event is NOT re-run on the merged ring events —
   and a plugin only on src moves across with its state intact. *)
let test_plugin_merge_semantics () =
  let into = Trace.create () in
  let src = Trace.create () in
  Trace.attach into (counting_spec "both");
  Trace.attach src (counting_spec "both");
  Trace.attach src (counting_spec "src-only");
  Trace.emit into some_event;
  Trace.emit into some_event;
  for _ = 1 to 3 do Trace.emit src some_event done;
  Trace.merge_into ~into src;
  (* 2 + 3 via p_merge; were into's plugin re-fed src's 3 ring events
     as emissions, this would read 8 *)
  Alcotest.(check int) "states folded, events not re-emitted" 5
    (plugin_field into "both" "events");
  Alcotest.(check int) "src-only moved with its state" 3
    (plugin_field into "src-only" "events");
  Alcotest.(check (list string))
    "attach order, movers appended"
    [ "both"; "src-only" ]
    (Trace.plugin_names into)

(* Violations recorded by plugins on parallel workers' sinks must
   survive the merge, in deterministic job order — the property the
   fuzz fleet's plugin mode rests on under -j. *)
let test_plugin_violations_survive_merge () =
  let worker i =
    let s = Trace.create () in
    Trace.attach s
      { (counting_spec "flagger") with
        Trace.Plugin.p_on_event =
          (fun sink _st _ev ->
            Trace.violation sink ~checker:"flagger"
              (Printf.sprintf "job %d" i));
      };
    Trace.emit s some_event;
    s
  in
  (* the harness pattern: per-job sinks, merged after the barrier in
     job order *)
  let sinks = List.init 3 worker in
  let aggregate = Trace.create () in
  List.iter (fun s -> Trace.merge_into ~into:aggregate s) sinks;
  Alcotest.(check (list (pair string string)))
    "all workers' violations, job order"
    [ ("flagger", "job 0"); ("flagger", "job 1"); ("flagger", "job 2") ]
    (Trace.violations aggregate)

let test_auto_plugins () =
  Fun.protect
    ~finally:(fun () -> Trace.set_auto_plugins [])
    (fun () ->
      Trace.set_auto_plugins [ counting_spec "auto" ];
      let s = Trace.create () in
      Alcotest.(check (list string))
        "create attaches the ambient set" [ "auto" ] (Trace.plugin_names s);
      Trace.emit s some_event;
      Alcotest.(check int) "and it is live" 1
        (plugin_field s "auto" "events"));
  let s = Trace.create () in
  Alcotest.(check (list string)) "reset restores plain sinks" []
    (Trace.plugin_names s)

(* The shipped plugins on real compiled runs: a clean run and a caught
   overrun are both within spec — zero violations. *)
let test_shipped_plugins_clean_runs () =
  List.iter
    (fun src ->
      let sink = Trace.create () in
      Checkers.attach_shipped sink;
      ignore (Core.exec ~trace:sink Core.cash src);
      Trace.finish_plugins sink;
      Alcotest.(check (list (pair string string)))
        "no violations" [] (Checkers.shipped_violations sink))
    [ clean_src; overrun_src ]

(* And each shipped plugin fires on a hand-built out-of-spec stream —
   the positive control for the zero-violation assertions above. *)
let failed_check =
  Trace.Limit_check
    { seg = "DS"; base = 0x1000; offset = 64; size = 4; write = true;
      ok = false }

(* failed check resolved by a TLB hit instead of a fault *)
let unanswered_check = [ failed_check; Trace.Tlb_hit ]

(* a failing write into the learned stack window, never answered *)
let unanswered_smash =
  [ Trace.Limit_check
      { seg = "SS"; base = 0x8000; offset = 0; size = 64; write = true;
        ok = true };
    Trace.Limit_check
      { seg = "DS"; base = 0x8010; offset = 60; size = 4; write = true;
        ok = false };
    Trace.Tlb_hit ]

(* GS loaded from an LDT slot after the slot was cleared *)
let dangling_load =
  [ Trace.Ldt_update { path = Trace.Slow_syscall; index = 5; cleared = true };
    Trace.Segreg_load { reg = "GS"; selector = (5 lsl 3) lor 4 lor 3 } ]

let out_of_spec_streams =
  [ unanswered_check; [ failed_check ]; unanswered_smash; dangling_load ]

let test_shipped_plugins_fire () =
  let expect_violation name spec events ~finish =
    let sink = Trace.create () in
    Trace.attach sink spec;
    List.iter (Trace.emit sink) events;
    if finish then Trace.finish_plugins sink;
    match Trace.violations sink with
    | (checker, _) :: _ ->
      Alcotest.(check string) (name ^ ": right checker") name checker
    | [] -> Alcotest.failf "%s: out-of-spec stream raised no violation" name
  in
  expect_violation "bounds_precision" Checkers.Bounds_precision.spec
    unanswered_check ~finish:false;
  (* stream ends with the failure still pending *)
  expect_violation "bounds_precision" Checkers.Bounds_precision.spec
    [ failed_check ] ~finish:true;
  expect_violation "stack_smash" Checkers.Stack_smash.spec unanswered_smash
    ~finish:false;
  expect_violation "ldt_reuse" Checkers.Ldt_reuse.spec dangling_load
    ~finish:false;
  (* a failed check with no protection fault anywhere in the stream *)
  expect_violation "fault_consistency" Checkers.Fault_consistency.spec
    [ failed_check ] ~finish:true

(* fault_consistency keeps its own per-kind book for the kinds it
   reads and takes the two hot rows from the hardware tally; its report
   lists exactly the kinds seen, sorted by name, with exact counts — the
   same view as the sink's counters, including the evict an evicting
   miss adds — on one sink and again after merging two. The stream has
   no machine behind it, so each sink is credited what a machine would
   have counted: 2 limit checks, 2 TLB hits, 2 TLB misses. *)
let test_fault_consistency_report () =
  let stream =
    [ Trace.Segreg_load { reg = "GS"; selector = 0xC };
      Trace.Limit_check
        { seg = "GS"; base = 0x1000; offset = 0; size = 4; write = false;
          ok = true };
      Trace.Tlb_hit;
      Trace.Tlb_miss { page = 3; evicted = false };
      Trace.Tlb_miss { page = 7; evicted = true };
      Trace.Tlb_hit;
      Trace.Limit_check
        { seg = "GS"; base = 0x1000; offset = 64; size = 4; write = true;
          ok = false };
      Trace.Fault
        { cls = `Gp; detail = "#GP"; address = None; selector = None } ]
  in
  let fed () =
    let s = Trace.create () in
    Trace.attach s Checkers.Fault_consistency.spec;
    List.iter (Trace.emit s) stream;
    Trace.credit s ~limit_checks:2 ~tlb_hits:2 ~tlb_misses:2;
    s
  in
  let report sink =
    match
      Option.bind
        (List.assoc_opt "fault_consistency" (Trace.plugin_json sink))
        (Trace.Json.member "events_seen")
    with
    | Some (Trace.Json.Obj kvs) ->
      List.map
        (fun (k, v) -> (k, Option.value ~default:(-1) (Trace.Json.to_int_opt v)))
        kvs
    | _ -> Alcotest.fail "no events_seen report"
  in
  let expected n =
    List.map
      (fun (k, c) -> (k, n * c))
      [ ("fault.gp", 1); ("limit_check.fail", 1); ("limit_check.pass", 1);
        ("segreg.load", 1); ("tlb.evict", 1); ("tlb.hit", 2);
        ("tlb.miss", 2) ]
  in
  let one = fed () in
  Alcotest.(check (list (pair string int))) "one sink" (expected 1) (report one);
  Alcotest.(check (list (pair string int)))
    "matches the sink's counters" (Trace.counters one) (report one);
  let merged = fed () in
  Trace.merge_into ~into:merged (fed ());
  Alcotest.(check (list (pair string int)))
    "after merge_into" (expected 2) (report merged);
  Trace.finish_plugins one;
  Trace.finish_plugins merged;
  Alcotest.(check (list (pair string string)))
    "books agree with the counters" []
    (Trace.violations one @ Trace.violations merged);
  (* negative control: a TLB hit emitted with no hardware behind it *)
  let extra = fed () in
  Trace.emit extra Trace.Tlb_hit;
  Trace.finish_plugins extra;
  Alcotest.(check int) "an uncredited hit is one violation" 1
    (List.length (Checkers.shipped_violations extra))

(* Each shipped plugin declares the kinds it reads. A copy that reads
   every kind must give the same violations and the same report as the
   declared plugin, on traced compiled runs under every engine and on
   the hand-built out-of-spec streams of test_shipped_plugins_fire — so
   a [p_kinds] that leaves out a kind its plugin reads fails here. *)
let test_declared_kinds_suffice () =
  let every_kind =
    List.map
      (fun (sp : Trace.Plugin.spec) -> { sp with p_kinds = Trace.all_kinds })
      Checkers.all
  in
  let outcome specs feed =
    let sink = Trace.create () in
    List.iter (Trace.attach sink) specs;
    feed sink;
    Trace.finish_plugins sink;
    ( Trace.violations sink,
      List.map
        (fun (name, js) -> (name, Trace.Json.to_string js))
        (Trace.plugin_json sink) )
  in
  let agree label feed =
    let v_declared, j_declared = outcome Checkers.all feed in
    let v_every, j_every = outcome every_kind feed in
    Alcotest.(check (list (pair string string)))
      (label ^ ": violations") v_every v_declared;
    Alcotest.(check (list (pair string string)))
      (label ^ ": reports") j_every j_declared
  in
  let matrix_program scheme =
    let w = List.hd (Harness.Matrix.workloads ~quick:true) in
    ( scheme ^ " " ^ w.Harness.Matrix.w_name,
      List.assoc scheme Harness.Matrix.schemes,
      w.Harness.Matrix.w_source )
  in
  let programs =
    [ ("cash clean", Core.cash, clean_src);
      ("cash overrun", Core.cash, overrun_src);
      matrix_program "mpx";
      matrix_program "cap" ]
  in
  List.iter
    (fun (ename, engine) ->
      List.iter
        (fun (pname, backend, src) ->
          let compiled = Core.compile backend src in
          agree (pname ^ " / " ^ ename) (fun sink ->
              ignore (Core.run ~engine ~trace:sink compiled)))
        programs)
    [ ("block", Machine.Cpu.Block); ("reference", Machine.Cpu.Reference) ];
  List.iteri
    (fun i events ->
      agree (Printf.sprintf "out-of-spec stream %d" i) (fun sink ->
          List.iter (Trace.emit sink) events))
    out_of_spec_streams

(* Traced [restore_into] under the same sink. A restore rewinds the
   hardware counters, so the sink must be credited the work each run and
   each single step did, and never the rewind: re-attaching the sink
   after a run that already finished under it, and a restore right after
   some steps, would otherwise leave the tally off from the counters. *)
let test_restore_into_tally () =
  List.iter
    (fun src ->
      let sink = Trace.create () in
      Checkers.attach_shipped sink;
      let steps state =
        let cpu = Osim.Process.cpu (Core.state_process state) in
        for _ = 1 to 50 do Cpu.step cpu done
      in
      let state = Core.start ~trace:sink (Core.compile Core.cash src) in
      steps state;
      let image = Buffer.to_bytes (Core.save state) in
      ignore (Core.finish state);
      let state = Core.restore_into ~trace:sink state image in
      steps state;
      ignore (Core.finish (Core.restore_into ~trace:sink state image));
      Trace.finish_plugins sink;
      Alcotest.(check (list (pair string string)))
        "no violations" [] (Checkers.shipped_violations sink))
    [ clean_src; overrun_src ]

(* The traced path's allocation budget with every shipped plugin
   attached: the ring, the dispatch and the plugins allocate nothing,
   so a [Tlb_hit] emit costs no minor words and a [Limit_check] emit
   only its 7-word record, built per emit as at a real emitting site.
   The runtime counts minor words exactly, so the budget holds on any
   host. *)
let test_emit_allocation () =
  let n = 100_000 in
  let words_per_event ?(plugins = true) emit_one =
    let s = Trace.create () in
    if plugins then Checkers.attach_shipped s;
    let w0 = Gc.minor_words () in
    for i = 1 to n do
      emit_one s i
    done;
    (Gc.minor_words () -. w0) /. float_of_int n
  in
  let hit = words_per_event (fun s _ -> Trace.emit s Trace.Tlb_hit) in
  let check =
    words_per_event (fun s i ->
        Trace.emit s
          (Trace.Limit_check
             { seg = "DS"; base = 0x1000; offset = i land 0xFF; size = 4;
               write = false; ok = true }))
  in
  if hit >= 1.0 then
    Alcotest.failf "Tlb_hit emit: %.2f minor words/event, budget < 1" hit;
  if check >= 8.0 then
    Alcotest.failf "Limit_check emit: %.2f minor words/event, budget < 8"
      check;
  (* The hot kinds' own entry points build no record for a kind no
     plugin reads: [tlb_hit] next to the shipped set (none reads
     [tlb.hit]), [limit_check] on a sink without plugins. *)
  let hit = words_per_event (fun s _ -> Trace.tlb_hit s) in
  let check =
    words_per_event ~plugins:false (fun s i ->
        Trace.limit_check s ~seg:2 ~base:0x1000 ~offset:(i land 0xFF) ~size:4
          ~write:false ~ok:(i land 1 = 0))
  in
  if hit >= 1.0 then
    Alcotest.failf "Trace.tlb_hit: %.2f minor words/event, budget < 1" hit;
  if check >= 1.0 then
    Alcotest.failf "Trace.limit_check: %.2f minor words/event, budget < 1"
      check

(* Plugin reports ride the sink's JSON export under "plugins". *)
let test_plugin_json_export () =
  let s = Trace.create () in
  Checkers.attach_shipped s;
  ignore (Core.exec ~trace:s Core.cash overrun_src);
  Trace.finish_plugins s;
  let js = Trace.to_json s in
  match Trace.Json.member "plugins" js with
  | Some (Trace.Json.Obj fields) ->
    Alcotest.(check (list string))
      "one report per shipped plugin"
      (List.map (fun (sp : Trace.Plugin.spec) -> sp.p_name) Checkers.all)
      (List.map fst fields);
    let bp =
      match List.assoc_opt "bounds_precision" fields with
      | Some v -> v
      | None -> Alcotest.fail "bounds_precision report missing"
    in
    Alcotest.(check (option int)) "the caught overrun is on the record"
      (Some 1)
      (Option.bind (Trace.Json.member "checks_failed" bp)
         Trace.Json.to_int_opt)
  | _ -> Alcotest.fail "export has no plugins object"

(* --- Json.parse: the writer's inverse ----------------------------------- *)

let test_json_parse_roundtrip () =
  (* A value exercising every constructor and the escapes the writer
     emits; parse (to_string v) must reproduce it exactly. *)
  let v =
    Trace.Json.(
      Obj
        [
          ("null", Null);
          ("bools", List [ Bool true; Bool false ]);
          ("ints", List [ Int 0; Int (-17); Int 1_000_000_007 ]);
          ("floats", List [ Float 1.5; Float (-0.25); Float 3.0 ]);
          ("strings",
           List
             [ Str ""; Str "plain"; Str "quote\" slash\\ nl\n tab\t cr\r";
               Str "ctrl\x01\x1f" ]);
          ("nested", Obj [ ("empty_obj", Obj []); ("empty_list", List []) ]);
        ])
  in
  let reparsed = Trace.Json.parse (Trace.Json.to_string v) in
  Alcotest.(check string) "roundtrip"
    (Trace.Json.to_string v)
    (Trace.Json.to_string reparsed)

let test_json_parse_record () =
  (* A BENCH_<n>.json perf record, read through the typed accessors the
     cashd protocol uses. *)
  let json =
    Trace.Json.parse
      {|{"schema":4,"bench":"full-reproduction","engine":"block",
         "traced":false,"jobs":4,"wall_seconds":95.31,
         "insns_executed":4060396260,"insns_per_host_second":4.26e7}|}
  in
  let fld k conv = Option.bind (Trace.Json.member k json) conv in
  Alcotest.(check (option int)) "schema" (Some 4)
    (fld "schema" Trace.Json.to_int_opt);
  Alcotest.(check (option string)) "engine" (Some "block")
    (fld "engine" Trace.Json.to_string_opt);
  Alcotest.(check bool) "floats parse to Float" true
    (Trace.Json.member "wall_seconds" json = Some (Trace.Json.Float 95.31))

let test_json_parse_rejects () =
  let rejects s =
    match Trace.Json.parse s with
    | exception Trace.Json.Parse_error _ -> ()
    | _ -> Alcotest.failf "parsed malformed input %S" s
  in
  List.iter rejects
    [ ""; "{"; "[1,"; "{\"a\":}"; "\"unterminated"; "tru"; "1.2.3";
      "{\"a\":1} trailing"; "\"bad \\q escape\"" ]

let test_json_parse_own_export () =
  (* The full sink export must parse back: to_json -> to_string ->
     parse is the path TRACE_<n>.json consumers rely on. *)
  let s = Trace.create () in
  ignore (Core.exec ~trace:s Core.cash clean_src);
  let text = Trace.Json.to_string (Trace.to_json s) in
  let reparsed = Trace.Json.parse text in
  Alcotest.(check string) "sink export reparses"
    text
    (Trace.Json.to_string reparsed)

let suite =
  [
    Alcotest.test_case "sink: counters" `Quick test_counters;
    Alcotest.test_case "sink: ring overwrite + drop count" `Quick test_ring;
    Alcotest.test_case "sink: histogram buckets" `Quick test_histogram;
    Alcotest.test_case "sink: reload-interval metric" `Quick
      test_reload_interval;
    Alcotest.test_case "sink: checkers + violations" `Quick test_checkers;
    Alcotest.test_case "sink: JSON export" `Quick test_json_export;
    Alcotest.test_case "fault: #GP limit violation" `Quick test_fault_gp;
    Alcotest.test_case "fault: #SS stack fault" `Quick test_fault_ss;
    Alcotest.test_case "fault: #PF page fault" `Quick test_fault_pf;
    Alcotest.test_case "fault: #BR bound range" `Quick test_fault_br;
    Alcotest.test_case "fault: #NP not present" `Quick test_fault_np;
    Alcotest.test_case "fault: compiled overrun emits one event" `Quick
      test_fault_event_compiled;
    Alcotest.test_case "scheduler: context-switch events" `Quick
      test_context_switch_events;
    Alcotest.test_case "checker: fail-is-final invariant" `Quick
      test_checker_on_run;
    Alcotest.test_case "plugin: feed + idempotent finish" `Quick
      test_plugin_feed_and_finish;
    Alcotest.test_case "plugin: fed its kinds and requested events" `Quick
      test_plugin_subscription;
    Alcotest.test_case "plugin: merge folds states, never re-emits" `Quick
      test_plugin_merge_semantics;
    Alcotest.test_case "plugin: violations survive merge in job order" `Quick
      test_plugin_violations_survive_merge;
    Alcotest.test_case "plugin: auto-attach on create" `Quick test_auto_plugins;
    Alcotest.test_case "plugin: shipped set clean on real runs" `Quick
      test_shipped_plugins_clean_runs;
    Alcotest.test_case "plugin: shipped set fires out of spec" `Quick
      test_shipped_plugins_fire;
    Alcotest.test_case "plugin: reports in JSON export" `Quick
      test_plugin_json_export;
    Alcotest.test_case "plugin: fault_consistency report" `Quick
      test_fault_consistency_report;
    Alcotest.test_case "plugin: declared kinds suffice" `Quick
      test_declared_kinds_suffice;
    Alcotest.test_case "plugin: traced restore_into credits no rewind" `Quick
      test_restore_into_tally;
    Alcotest.test_case "sink: emit allocation budget" `Quick
      test_emit_allocation;
    Alcotest.test_case "json: parse roundtrips writer" `Quick
      test_json_parse_roundtrip;
    Alcotest.test_case "json: parse BENCH record" `Quick test_json_parse_record;
    Alcotest.test_case "json: parse rejects malformed" `Quick
      test_json_parse_rejects;
    Alcotest.test_case "json: sink export reparses" `Quick
      test_json_parse_own_export;
  ]
