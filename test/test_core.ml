(* Tests of the public Core facade: the API a downstream user programs
   against. *)

let test_backend_names () =
  Alcotest.(check string) "gcc" "gcc" (Core.backend_name Core.gcc);
  Alcotest.(check string) "bcc" "bcc" (Core.backend_name Core.bcc);
  Alcotest.(check string) "cash" "cash3" (Core.backend_name Core.cash);
  Alcotest.(check string) "cash4" "cash4" (Core.backend_name (Core.cash_n 4));
  Alcotest.(check string) "bound" "bcc-bound" (Core.backend_name Core.bcc_bound)

let test_cash_n_validation () =
  Alcotest.check_raises "no cash5"
    (Invalid_argument "cash_n: no 5-register configuration") (fun () ->
      ignore (Core.cash_n 5))

let test_compile_errors_propagate () =
  (match Core.compile Core.cash "int main() { @ }" with
   | exception Minic.Lexer.Lex_error _ -> ()
   | _ -> Alcotest.fail "expected lex error");
  (match Core.compile Core.cash "int main() { return 0 }" with
   | exception Minic.Parser.Parse_error _ -> ()
   | _ -> Alcotest.fail "expected parse error");
  match Core.compile Core.cash "int main() { return x; }" with
  | exception Minic.Typecheck.Type_error _ -> ()
  | _ -> Alcotest.fail "expected type error"

(* Programs the typechecker used to accept and code generation then
   refused with a bare [Failure]: a typed error under every backend. *)
let test_codegen_refusals_are_type_errors () =
  List.iter
    (fun src ->
      List.iter
        (fun backend ->
          match Core.compile backend src with
          | exception Minic.Typecheck.Type_error _ -> ()
          | exception e ->
            Alcotest.failf "%s, %S: %s" (Core.backend_name backend) src
              (Printexc.to_string e)
          | _ ->
            Alcotest.failf "%s, %S: compiled" (Core.backend_name backend) src)
        [ Core.gcc; Core.bcc; Core.bcc_bound; Core.cash; Core.mpx; Core.cap ])
    [ "int main() { break; return 0; }";
      "int main() { continue; return 0; }";
      "int main() { int *p; double d; d = (double) p; return 0; }" ]

let test_exec_roundtrip () =
  let r = Core.exec Core.cash "int main() { print_int(6 * 7); return 0; }" in
  Alcotest.(check bool) "finished" true (r.Core.status = Core.Finished);
  Alcotest.(check string) "output" "42\n" r.Core.output;
  Alcotest.(check bool) "cycles counted" true (r.Core.cycles > 0);
  Alcotest.(check bool) "insns counted" true (r.Core.insns > 0);
  Alcotest.(check bool) "runtime attached for cash" true
    (r.Core.runtime <> None)

let test_gcc_has_no_runtime () =
  let r = Core.exec Core.gcc "int main() { return 0; }" in
  Alcotest.(check bool) "no cash runtime" true (r.Core.runtime = None)

let test_shared_kernel_clock () =
  let kernel = Osim.Kernel.create () in
  let c = Core.compile Core.gcc "int main() { return 0; }" in
  let r1 = Core.run ~kernel c in
  let r2 = Core.run ~kernel c in
  ignore r1;
  ignore r2;
  Alcotest.(check bool) "clock advanced across runs" true
    (Osim.Kernel.clock kernel > 0);
  Alcotest.(check bool) "second process later" true
    (Osim.Process.created_at r2.Core.process
     >= Osim.Process.terminated_at r1.Core.process)

let test_fuel_limit () =
  match
    Core.exec ~fuel:1000 Core.gcc "int main() { while (1) { } return 0; }"
  with
  | exception Machine.Cpu.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel exhaustion"

let test_static_info () =
  let src = {|
int a[4];
int main() { int i; for (i = 0; i < 4; i++) a[i] = i; return 0; }
|} in
  let i = Core.static_info (Core.compile Core.cash src) in
  Alcotest.(check int) "1 hw check" 1 i.Core.hw_checks;
  Alcotest.(check bool) "code measured" true (i.Core.code_bytes > 0);
  Alcotest.(check bool) "data includes array + info" true
    (i.Core.data_bytes >= 16 + 12);
  Alcotest.(check int) "image = code + data" i.Core.image_bytes
    (i.Core.code_bytes + i.Core.data_bytes);
  Alcotest.(check int) "one array loop" 1
    i.Core.loops.Minic.Loop_analysis.array_using_loops

let test_stat_sum () =
  let src = {|
int a[4];
int main() { int i; for (i = 0; i < 100; i++) a[i % 4] = i; return 0; }
|} in
  let r = Core.exec Core.cash src in
  Alcotest.(check int) "100 loop iterations" 100
    (Core.stat_sum r ~prefix:"__stat_iter_a_")

let test_bound_violation_surfaces () =
  let r = Core.exec Core.cash
      "int a[2]; int main() { int i; for (i=0;i<9;i++) a[i]=i; return 0; }"
  in
  match r.Core.status with
  | Core.Bound_violation msg ->
    Alcotest.(check bool) "message names the segment" true
      (String.length msg > 10)
  | _ -> Alcotest.fail "expected violation"

(* --- the process-wide program cache and shared superblocks --------------- *)

let test_compile_cached () =
  let src = "int main() { print_int(987654); return 0; }" in
  let _, m0 = Core.compile_cache_stats () in
  let c1 = Core.compile_cached Core.cash src in
  let h1, m1 = Core.compile_cache_stats () in
  Alcotest.(check int) "first compile is a miss" (m0 + 1) m1;
  let c2 = Core.compile_cached Core.cash src in
  let h2, m2 = Core.compile_cache_stats () in
  Alcotest.(check int) "second compile is a hit" (h1 + 1) h2;
  Alcotest.(check int) "…and not a miss" m1 m2;
  Alcotest.(check bool) "the very same compiled program comes back" true
    (c1 == c2);
  (* cash_default and cash_security_only both render "cash3", so the
     cache must key on the configuration itself, not its name *)
  let g = Core.compile_cached Core.gcc src in
  Alcotest.(check bool) "another backend gets its own program" true (g != c2);
  let r1 = Core.run c1 and r2 = Core.run c2 in
  Alcotest.(check string) "cached output identical" r1.Core.output
    r2.Core.output

(* The cache evicts its least recently used program, so a hot source
   requested between one-shot sources keeps its entry — and its program
   identity — for as long as the stream runs. *)
let test_compile_cache_lru () =
  let hot_src = "int main() { print_int(424242); return 0; }" in
  let hot = Core.compile_cached Core.cash hot_src in
  let _, m0 = Core.compile_cache_stats () in
  let rounds = 3 * Core.compile_cache_capacity in
  for k = 1 to rounds do
    let one_shot =
      Printf.sprintf "int main() { print_int(%d); return 0; }" (900000 + k)
    in
    ignore (Core.compile_cached Core.cash one_shot);
    Alcotest.(check bool)
      (Printf.sprintf "hot program kept after %d one-shot sources" k)
      true
      (Core.compile_cached Core.cash hot_src == hot)
  done;
  let _, m1 = Core.compile_cache_stats () in
  Alcotest.(check int) "only the one-shot sources missed" rounds (m1 - m0)

let test_shared_superblocks_bind () =
  let src =
    "int main() { int i; int s = 0; for (i = 0; i < 50; i++) s = s + i; \
     print_int(s); return 0; }"
  in
  let compiled = Core.compile_cached Core.cash src in
  let run ~engine = Core.run ~engine compiled in
  (* first block run compiles the program's superblocks once, into the
     process-wide cache… *)
  let r1 = run ~engine:Machine.Cpu.Block in
  let built0 = Machine.Cpu.blocks_built () in
  let bound0 = Machine.Cpu.blocks_bound () in
  (* …so a second machine over the same program binds them instead *)
  let r2 = run ~engine:Machine.Cpu.Block in
  Alcotest.(check int) "re-run builds no superblocks" built0
    (Machine.Cpu.blocks_built ());
  Alcotest.(check bool) "re-run binds the shared ones" true
    (Machine.Cpu.blocks_bound () > bound0);
  Alcotest.(check string) "identical output" r1.Core.output r2.Core.output;
  Alcotest.(check bool) "identical cycles" true (r1.Core.cycles = r2.Core.cycles);
  let rp = run ~engine:Machine.Cpu.Predecoded in
  let rr = run ~engine:Machine.Cpu.Reference in
  Alcotest.(check string) "predecode agrees" r1.Core.output rp.Core.output;
  Alcotest.(check string) "reference agrees" r1.Core.output rr.Core.output

(* With no [?engine], [Core.run] takes the ambient default, which
   starts out as the superblock engine. *)
let test_default_engine_is_block () =
  Alcotest.(check string) "ambient default" "block"
    (Core.engine_name (Core.default_engine ()));
  let compiled =
    Core.compile Core.gcc
      "int main() { int i; int s = 0; for (i = 0; i < 10; i++) s = s + i; \
       print_int(s); return 0; }"
  in
  let seen () = Machine.Cpu.blocks_built () + Machine.Cpu.blocks_bound () in
  let before = seen () in
  let r = Core.run compiled in
  Alcotest.(check string) "ran" "45\n" r.Core.output;
  Alcotest.(check bool) "superblocks built or bound" true (seen () > before)

let suite =
  [
    Alcotest.test_case "backend names" `Quick test_backend_names;
    Alcotest.test_case "cash_n validation" `Quick test_cash_n_validation;
    Alcotest.test_case "compile errors" `Quick test_compile_errors_propagate;
    Alcotest.test_case "codegen refusals are type errors" `Quick
      test_codegen_refusals_are_type_errors;
    Alcotest.test_case "exec roundtrip" `Quick test_exec_roundtrip;
    Alcotest.test_case "gcc has no runtime" `Quick test_gcc_has_no_runtime;
    Alcotest.test_case "shared kernel clock" `Quick test_shared_kernel_clock;
    Alcotest.test_case "fuel limit" `Quick test_fuel_limit;
    Alcotest.test_case "static info" `Quick test_static_info;
    Alcotest.test_case "stat sum" `Quick test_stat_sum;
    Alcotest.test_case "violation surfaces" `Quick test_bound_violation_surfaces;
    Alcotest.test_case "compile cache" `Quick test_compile_cached;
    Alcotest.test_case "compile cache keeps a hot source (LRU)" `Quick
      test_compile_cache_lru;
    Alcotest.test_case "shared superblocks bind" `Quick
      test_shared_superblocks_bind;
    Alcotest.test_case "default engine is block" `Quick
      test_default_engine_is_block;
  ]
