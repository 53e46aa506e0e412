(* The MPX and capability backends: the two new columns of the
   five-scheme protection matrix.

   What is pinned here:
   - backend names round-trip through the serve protocol's table (the
     cashc CLI uses the same names), and every distinct configuration
     prints a distinct name;
   - the bound-register file and two-level bound table: walk hits,
     walk misses (which load the unbounded range and never fault),
     in-place evictions, and directory allocation accounting;
   - #BR precision: a fault in the middle of a superblock reports
     identical cycles, retired instructions, and machine state under
     every engine, for both backends;
   - GANDALF-style capability semantics: pointer arithmetic that
     escapes the bounds clears the tag (and emits the typed trace
     event); one-past-the-end arithmetic keeps it;
   - two-engine equivalence on in-bounds programs, including the
     trace-event counts of the bound-table walks. *)

let engines =
  [ ("block", Machine.Cpu.Block); ("reference", Machine.Cpu.Reference) ]

let new_backends = [ ("mpx", Core.mpx); ("cap", Core.cap) ]

(* --- backend names ------------------------------------------------------- *)

let test_backend_names_round_trip () =
  (* Every protocol name resolves, and the name the backend prints
     resolves back to the very same backend — "cash" and "cash3" are
     deliberate aliases, so the round trip goes through the printed
     name, not the spelling the request used. *)
  List.iter
    (fun (name, backend) ->
      match Serve.Protocol.backend_of_string (Core.backend_name backend) with
      | Some b ->
        Alcotest.(check bool)
          (Printf.sprintf "%s round-trips via %S" name
             (Core.backend_name backend))
          true (b = backend)
      | None ->
        Alcotest.failf "backend %s prints unknown name %S" name
          (Core.backend_name backend))
    Serve.Protocol.backends;
  (* Distinct configurations print distinct names. *)
  let names =
    List.map Core.backend_name
      [ Core.gcc; Core.bcc; Core.bcc_bound; Core.cash; Core.cash_n 2;
        Core.cash_n 4; Core.mpx; Core.cap ]
  in
  Alcotest.(check int)
    "no two configurations share a name"
    (List.length names)
    (List.length (List.sort_uniq compare names))

let test_unknown_backend_name_rejected () =
  Alcotest.(check bool)
    "unknown name stays rejected" true
    (Serve.Protocol.backend_of_string "mpx2" = None
    && Serve.Protocol.backend_of_string "capability" = None
    && Serve.Protocol.backend_of_string "" = None)

(* --- bound-register file and bound table --------------------------------- *)

let test_bound_table_hit_miss_evict () =
  let t = Seghw.Bound_regs.create () in
  Seghw.Bound_regs.set t 0 ~lower:0x1000 ~upper:0x2000;
  (* First spill allocates a second-level table. *)
  Alcotest.(check bool) "first store allocates" true
    (Seghw.Bound_regs.store t 0 ~key:0x8000);
  Alcotest.(check int) "one directory alloc" 1 t.Seghw.Bound_regs.dir_allocs;
  (* Same granule: no new allocation. *)
  Alcotest.(check bool) "same-granule store reuses" false
    (Seghw.Bound_regs.store t 0 ~key:0x8004);
  Alcotest.(check int) "two entries" 2 t.Seghw.Bound_regs.entries;
  (* A walk for a spilled key hits and reloads the exact bounds. *)
  Alcotest.(check bool) "walk hit" true (Seghw.Bound_regs.load t 1 ~key:0x8000);
  let b = Seghw.Bound_regs.reg t 1 in
  Alcotest.(check bool) "hit reloads bounds" true
    (b.Seghw.Bound_regs.valid
    && b.Seghw.Bound_regs.lower = 0x1000
    && b.Seghw.Bound_regs.upper = 0x2000);
  (* A walk for an unspilled key misses, loads the unbounded range, and
     never faults. *)
  Alcotest.(check bool) "walk miss" false
    (Seghw.Bound_regs.load t 2 ~key:0x9000);
  let m = Seghw.Bound_regs.reg t 2 in
  Alcotest.(check bool) "miss loads unbounded" true
    (m.Seghw.Bound_regs.valid
    && m.Seghw.Bound_regs.lower = 0
    && m.Seghw.Bound_regs.upper = 0xFFFFFFFF);
  Alcotest.(check int) "one miss counted" 1 t.Seghw.Bound_regs.load_misses;
  (* Overwriting a slot with different bounds is an in-place eviction;
     overwriting with the same bounds is not. *)
  Seghw.Bound_regs.set t 0 ~lower:0x3000 ~upper:0x4000;
  ignore (Seghw.Bound_regs.store t 0 ~key:0x8000);
  Alcotest.(check int) "eviction counted" 1 t.Seghw.Bound_regs.evictions;
  ignore (Seghw.Bound_regs.store t 0 ~key:0x8000);
  Alcotest.(check int) "same-bounds overwrite is no eviction" 1
    t.Seghw.Bound_regs.evictions;
  Alcotest.(check int) "entry count unchanged by overwrites" 2
    t.Seghw.Bound_regs.entries;
  (* An invalid register spills the unbounded range — the prologue
     save/restore of never-loaded registers must stay permissive. *)
  Seghw.Bound_regs.invalidate t 3;
  ignore (Seghw.Bound_regs.store t 3 ~key:0xA000);
  ignore (Seghw.Bound_regs.load t 3 ~key:0xA000);
  let i = Seghw.Bound_regs.reg t 3 in
  Alcotest.(check bool) "invalid register spills unbounded" true
    (i.Seghw.Bound_regs.lower = 0 && i.Seghw.Bound_regs.upper = 0xFFFFFFFF)

(* --- #BR precision ------------------------------------------------------- *)

(* The overrun sits mid-function, with live statements before and after
   it, so under the block engine the faulting access is in the middle
   of a superblock. Every engine must stop at the same instruction with
   the same cycle count and the same machine state. *)
let oob_mid_block = {|
int main() {
  int a[4];
  int x;
  int i;
  x = 0;
  for (i = 0; i < 4; i++) a[i] = i;
  x = a[0] + a[1];
  a[9] = x;
  x = x + a[2];
  print_int(x);
  return 0;
}
|}

let test_br_precise_mid_block () =
  List.iter
    (fun (bname, backend) ->
      let compiled = Core.compile backend oob_mid_block in
      let runs =
        List.map
          (fun (ename, engine) -> (ename, Core.run ~engine compiled))
          engines
      in
      let _, first = List.hd runs in
      (match first.Core.status with
       | Core.Bound_violation _ -> ()
       | s ->
         Alcotest.failf "%s: expected #BR, got %s" bname
           (match s with
            | Core.Finished -> "finished"
            | Core.Crashed m -> "crash: " ^ m
            | Core.Bound_violation _ -> assert false));
      let digest (r : Core.run) =
        Core.state_digest (Core.state_of_run compiled r)
      in
      let d0 = digest first in
      List.iter
        (fun (ename, r) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: same status" bname ename)
            true
            (r.Core.status = first.Core.status);
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: same insns at fault" bname ename)
            first.Core.insns r.Core.insns;
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: same cycles at fault" bname ename)
            first.Core.cycles r.Core.cycles;
          Alcotest.(check string)
            (Printf.sprintf "%s/%s: same machine state at fault" bname ename)
            d0 (digest r))
        (List.tl runs))
    new_backends

(* --- capability tag semantics -------------------------------------------- *)

let test_cap_tag_clear_on_escape () =
  let src = {|
int main() {
  int a[4];
  int *p;
  p = a;
  p = p + 20;
  *p = 1;
  return 0;
}
|} in
  let sink = Trace.create () in
  let r = Core.run ~trace:sink (Core.compile Core.cap src) in
  (match r.Core.status with
   | Core.Bound_violation msg ->
     Alcotest.(check bool) "fault names the cleared tag" true
       (String.length msg >= 4
       &&
       let has_sub s sub =
         let n = String.length sub in
         let rec go i =
           i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
         in
         go 0
       in
       has_sub msg "capability tag")
   | s ->
     Alcotest.failf "expected a tag fault, got %s"
       (match s with
        | Core.Finished -> "finished"
        | Core.Crashed m -> "crash: " ^ m
        | Core.Bound_violation _ -> assert false));
  Alcotest.(check bool) "tag-clear event emitted" true
    (Trace.count sink Trace.K_cap_tag_clear >= 1)

let test_cap_one_past_end_keeps_tag () =
  (* Stepping to one past the end and back is defined C; the tag must
     survive the excursion, and the program must agree with gcc. *)
  let src = {|
int main() {
  int a[4];
  int *p;
  int i;
  int s;
  for (i = 0; i < 4; i++) a[i] = i + 1;
  p = a;
  s = 0;
  for (i = 0; i < 4; i++) { s = s + *p; p++; }
  p = p - 4;
  s = s + *p;
  print_int(s);
  return 0;
}
|} in
  let g = Core.exec Core.gcc src in
  let c = Core.exec Core.cap src in
  Alcotest.(check bool) "cap finishes" true (c.Core.status = Core.Finished);
  Alcotest.(check string) "same output as gcc" g.Core.output c.Core.output

(* --- engine equivalence -------------------------------------------------- *)

(* Enough pointer traffic to exercise the FCFS bound-register
   allocation, the bound-table spill protocol across calls, and the
   capability interning path. *)
let in_bounds_workout = {|
int sum(int *p, int n) {
  int i;
  int s;
  s = 0;
  for (i = 0; i < n; i++) s = s + p[i];
  return s;
}
int main() {
  int a[6];
  int b[6];
  int c[6];
  int d[6];
  int *p;
  int i;
  int j;
  int s;
  for (i = 0; i < 6; i++) { a[i] = i; b[i] = 2*i; c[i] = 3*i; d[i] = 4*i; }
  s = 0;
  for (i = 0; i < 6; i++)
    for (j = 0; j < 6; j++)
      s = s + a[i] + b[j] + c[i] + d[j];
  p = malloc(6 * 4);
  for (i = 0; i < 6; i++) p[i] = a[i] + 1;
  s = s + sum(a, 6) + sum(p, 6);
  free(p);
  print_int(s);
  return 0;
}
|}

let test_three_engine_equivalence () =
  List.iter
    (fun (bname, backend) ->
      let compiled = Core.compile backend in_bounds_workout in
      let runs =
        List.map
          (fun (ename, engine) ->
            let sink = Trace.create () in
            let r = Core.run ~engine ~trace:sink compiled in
            (ename, r, sink))
          engines
      in
      let _, first, fsink = List.hd runs in
      Alcotest.(check bool)
        (Printf.sprintf "%s finishes" bname)
        true
        (first.Core.status = Core.Finished);
      let gcc = Core.exec Core.gcc in_bounds_workout in
      Alcotest.(check string)
        (Printf.sprintf "%s output = gcc output" bname)
        gcc.Core.output first.Core.output;
      let counts sink =
        ( Trace.count sink Trace.K_btable_hit,
          Trace.count sink Trace.K_btable_miss,
          Trace.count sink Trace.K_cap_tag_clear )
      in
      List.iter
        (fun (ename, r, sink) ->
          Alcotest.(check string)
            (Printf.sprintf "%s/%s: same output" bname ename)
            first.Core.output r.Core.output;
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: same cycles" bname ename)
            first.Core.cycles r.Core.cycles;
          Alcotest.(check int)
            (Printf.sprintf "%s/%s: same insns" bname ename)
            first.Core.insns r.Core.insns;
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: same trace counts" bname ename)
            true
            (counts sink = counts fsink))
        (List.tl runs);
      (* MPX spills bounds through calls: the workout must actually
         exercise the walk. *)
      if bname = "mpx" then
        Alcotest.(check bool) "bound-table walks happened" true
          (Trace.count fsink Trace.K_btable_hit > 0))
    new_backends

(* --- both backends catch both overrun shapes ----------------------------- *)

let direct_oob = {|
int main() {
  int a[4];
  a[7] = 1;
  print_int(a[7]);
  return 0;
}
|}

let loop_oob = {|
int main() {
  int a[4];
  int i;
  for (i = 0; i <= 4; i++) a[i] = i;
  print_int(a[0]);
  return 0;
}
|}

let test_catches_both_shapes () =
  List.iter
    (fun (bname, backend) ->
      List.iter
        (fun (shape, src) ->
          let r = Core.exec backend src in
          match r.Core.status with
          | Core.Bound_violation _ -> ()
          | Core.Finished ->
            Alcotest.failf "%s missed the %s overrun" bname shape
          | Core.Crashed m ->
            Alcotest.failf "%s crashed on the %s overrun: %s" bname shape m)
        [ ("direct", direct_oob); ("loop", loop_oob) ])
    new_backends

let suite =
  [
    Alcotest.test_case "backend names round-trip" `Quick
      test_backend_names_round_trip;
    Alcotest.test_case "unknown backend names stay rejected" `Quick
      test_unknown_backend_name_rejected;
    Alcotest.test_case "bound table: hit, miss, evict, dir alloc" `Quick
      test_bound_table_hit_miss_evict;
    Alcotest.test_case "#BR precise mid-superblock" `Quick
      test_br_precise_mid_block;
    Alcotest.test_case "capability tag cleared on escaping arithmetic" `Quick
      test_cap_tag_clear_on_escape;
    Alcotest.test_case "one-past-end arithmetic keeps the tag" `Quick
      test_cap_one_past_end_keeps_tag;
    Alcotest.test_case "three-engine equivalence with trace parity" `Quick
      test_three_engine_equivalence;
    Alcotest.test_case "both backends catch both overrun shapes" `Quick
      test_catches_both_shapes;
  ]
