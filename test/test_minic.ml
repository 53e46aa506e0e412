(* Tests for the mini-C front end: lexer, parser, type checker, and loop
   analysis. *)

module Ast = Minic.Ast
module Token = Minic.Token
module Lexer = Minic.Lexer
module Parser = Minic.Parser
module Typecheck = Minic.Typecheck
module Ir = Minic.Ir
module La = Minic.Loop_analysis

let toks src = List.map (fun t -> t.Token.tok) (Lexer.tokenize src)

(* --- lexer ---------------------------------------------------------------- *)

let test_lex_basics () =
  Alcotest.(check bool) "kw + ident" true
    (toks "int foo;" = [ Token.KW_INT; Token.IDENT "foo"; Token.SEMI; Token.EOF ])

let test_lex_numbers () =
  Alcotest.(check bool) "dec hex float" true
    (toks "42 0x2A 3.5 1e3"
     = [ Token.INT_LIT 42; Token.INT_LIT 42; Token.FLOAT_LIT 3.5;
         Token.FLOAT_LIT 1000.0; Token.EOF ])

let test_lex_strings_chars () =
  Alcotest.(check bool) "escapes" true
    (toks {|"a\nb" '\t' '\''|}
     = [ Token.STR_LIT "a\nb"; Token.CHAR_LIT '\t'; Token.CHAR_LIT '\'';
         Token.EOF ])

let test_lex_comments () =
  Alcotest.(check bool) "comments skipped" true
    (toks "1 // line\n/* block\nmore */ 2" = [ Token.INT_LIT 1; Token.INT_LIT 2; Token.EOF ])

let test_lex_operators () =
  Alcotest.(check bool) "compound ops" true
    (toks "++ -- += <<= " <> []);
  Alcotest.(check bool) "shift vs lt" true
    (toks "a<<b < c" = [ Token.IDENT "a"; Token.SHL; Token.IDENT "b";
                         Token.LT; Token.IDENT "c"; Token.EOF ])

let test_lex_errors () =
  (match toks "@" with
   | exception Lexer.Lex_error _ -> ()
   | _ -> Alcotest.fail "expected lex error");
  match toks "\"unterminated" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected lex error"

(* --- parser ---------------------------------------------------------------- *)

let parse_expr_of src =
  (* wrap in a function, pull out the single statement *)
  match Parser.parse_program (Printf.sprintf "int main() { %s; }" src) with
  | [ Ast.Gfunc { Ast.body = [ Ast.Expr e ]; _ } ] -> e
  | _ -> Alcotest.fail "unexpected parse shape"

let expr = Alcotest.testable Ast.pp_expr Ast.equal_expr

let test_parse_precedence () =
  Alcotest.check expr "mul binds tighter"
    (Ast.Binop (Ast.Add, Ast.Var "a",
                Ast.Binop (Ast.Mul, Ast.Var "b", Ast.Var "c")))
    (parse_expr_of "a + b * c");
  Alcotest.check expr "comparison vs arith"
    (Ast.Binop (Ast.Lt, Ast.Binop (Ast.Add, Ast.Var "a", Ast.Var "b"),
                Ast.Var "c"))
    (parse_expr_of "a + b < c");
  Alcotest.check expr "assignment right assoc"
    (Ast.Assign (Ast.Var "a", Ast.Assign (Ast.Var "b", Ast.Int_lit 0)))
    (parse_expr_of "a = b = 0")

let test_parse_unary_postfix () =
  Alcotest.check expr "deref index"
    (Ast.Deref (Ast.Index (Ast.Var "p", Ast.Int_lit 0)))
    (parse_expr_of "*p[0]");
  Alcotest.check expr "postincr"
    (Ast.Incdec (Ast.Post, Ast.Incr, Ast.Var "i"))
    (parse_expr_of "i++");
  Alcotest.check expr "deref postincr (*p++)"
    (Ast.Deref (Ast.Incdec (Ast.Post, Ast.Incr, Ast.Var "p")))
    (parse_expr_of "*p++")

let test_parse_cast_vs_paren () =
  Alcotest.check expr "cast"
    (Ast.Cast (Ast.Tptr Ast.Tint, Ast.Call ("malloc", [ Ast.Int_lit 4 ])))
    (parse_expr_of "(int*)malloc(4)");
  Alcotest.check expr "parenthesised expr"
    (Ast.Binop (Ast.Mul, Ast.Binop (Ast.Add, Ast.Var "a", Ast.Var "b"),
                Ast.Var "c"))
    (parse_expr_of "(a + b) * c")

let test_parse_ternary_logic () =
  Alcotest.check expr "ternary"
    (Ast.Cond (Ast.Var "c", Ast.Int_lit 1, Ast.Int_lit 2))
    (parse_expr_of "c ? 1 : 2");
  Alcotest.check expr "and/or precedence"
    (Ast.Lor (Ast.Var "a", Ast.Land (Ast.Var "b", Ast.Var "c")))
    (parse_expr_of "a || b && c")

let test_parse_statements () =
  let p = Parser.parse_program {|
    int g[10];
    double f(int n, char *s) {
      for (int i = 0; i < n; i++) { if (s[i]) break; else continue; }
      while (n) n--;
      return 0.5;
    }
    int main() { return 0; }
  |} in
  Alcotest.(check int) "3 globals" 3 (List.length p)

let test_parse_errors () =
  (match Parser.parse_program "int main() { return 0 }" with
   | exception Parser.Parse_error (_, line) ->
     Alcotest.(check int) "line" 1 line
   | _ -> Alcotest.fail "expected parse error");
  match Parser.parse_program "int f(int) { }" with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "expected parse error"

(* --- type checker ------------------------------------------------------------ *)

let check_ok src = ignore (Typecheck.check_source src : Ir.tprog)

let check_fails src =
  match Typecheck.check_source src with
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.failf "expected type error for %S" src

let test_typecheck_accepts () =
  check_ok {|
    int g = 3;
    double scale(double x) { return x * 2.0; }
    int main() {
      int a[4];
      int *p = a;
      char *s = "hi";
      double d = scale(2);   /* int -> double promotion */
      int i = (int)d + s[0] + *p + g;
      print_int(i);
      return 0;
    }
  |}

let test_typecheck_rejects () =
  check_fails "int main() { return x; }"; (* undeclared *)
  check_fails "int main() { int a[3]; a = 0; return 0; }"; (* array assign *)
  check_fails "void v; int main() { return 0; }"; (* void var *)
  check_fails "int main() { int i; i[0] = 1; return 0; }"; (* index int *)
  check_fails "int f(int a) { return a; } int main() { return f(); }"; (* arity *)
  check_fails "int main() { double d; d % 2; return 0; }"; (* fp mod -> int conv? *)
  check_fails "int main() { *4 = 1; return 0; }"; (* deref int *)
  check_fails "int f() { return 1; } int f() { return 2; } int main() { return 0; }";
  check_fails "int main() { int a[0]; return 0; }" (* zero-size array *)

let test_typecheck_requires_main () =
  check_fails "int f() { return 0; }"

let test_typecheck_op_assign_desugar () =
  let p = Typecheck.check_source "int main() { int i = 0; i += 2; return i; }" in
  let f = List.hd p.Ir.funcs in
  let found = ref false in
  List.iter
    (fun s ->
      match s with
      | Ir.Sexpr { Ir.e = Ir.Tassign (_, { Ir.e = Ir.Tbinop (Ast.Add, _, _); _ }); _ } ->
        found := true
      | _ -> ())
    f.Ir.body;
  Alcotest.(check bool) "desugared" true !found

let test_typecheck_conversions () =
  let p = Typecheck.check_source
      "int main() { double d = 1; int i = 2.5; print_float(i); return 0; }" in
  ignore p (* implicit conversions type-check *)

(* --- loop analysis ------------------------------------------------------------ *)

let analyze src =
  let p = Typecheck.check_source src in
  (p, La.analyze p)

let test_loops_bases_order () =
  let _, a = analyze {|
    int x[4]; int y[4]; int z[4];
    int main() {
      int i;
      for (i = 0; i < 4; i++) { y[i] = x[i] + z[i]; }
      return 0;
    }
  |} in
  match La.all_loops a with
  | [ l ] ->
    let names =
      List.map
        (function La.Bsym s -> s.Ir.name | La.Bstr _ -> "<str>" | La.Bcomplex -> "?")
        l.La.bases
    in
    Alcotest.(check (list string)) "FCFS order" [ "y"; "x"; "z" ] names
  | _ -> Alcotest.fail "expected one loop"

let test_loops_nesting () =
  let _, a = analyze {|
    int m[16];
    int main() {
      int i; int j;
      for (i = 0; i < 4; i++)
        for (j = 0; j < 4; j++)
          m[i*4+j] = 0;
      return 0;
    }
  |} in
  let loops = La.all_loops a in
  Alcotest.(check int) "two loops" 2 (List.length loops);
  let outer = List.find (fun l -> l.La.parent = None) loops in
  let inner = List.find (fun l -> l.La.parent <> None) loops in
  Alcotest.(check int) "inner's outermost" outer.La.loop_id inner.La.outermost_id;
  Alcotest.(check int) "outer sees m" 1 (List.length outer.La.bases)

let test_loops_characteristics () =
  let _, a = analyze {|
    int a[4]; int b[4]; int c[4]; int d[4]; int e[4];
    int main() {
      int i;
      for (i = 0; i < 4; i++) a[i] = 0;                      /* 1 array  */
      for (i = 0; i < 4; i++) a[i] = b[i]+c[i]+d[i]+e[i];    /* 5 arrays */
      for (i = 0; i < 4; i++) { }                            /* none     */
      return 0;
    }
  |} in
  let c = La.characteristics ~budget:3 a in
  Alcotest.(check int) "total" 3 c.La.total_loops;
  Alcotest.(check int) "array-using" 2 c.La.array_using_loops;
  Alcotest.(check int) "spilled" 1 c.La.spilled_loops

let test_loops_mutation_and_escape () =
  let _, a = analyze {|
    int buf[8];
    int f(int *q) { return q[0]; }
    int main() {
      int *p = buf; int *r = buf; int i;
      for (i = 0; i < 8; i++) { p[i] = 1; r = r + 1; *r = 2; f(&i); }
      return 0;
    }
  |} in
  let l = List.hd (List.filter (fun l -> l.La.bases <> [])
                     (La.all_loops a)) in
  let key name =
    List.find_map
      (function
        | La.Bsym s when s.Ir.name = name -> Some (La.base_key (La.Bsym s))
        | _ -> None)
      l.La.bases
  in
  (match key "r" with
   | Some k -> Alcotest.(check bool) "r mutated" true (List.mem k l.La.mutated)
   | None -> Alcotest.fail "r not a base");
  (match key "p" with
   | Some k -> Alcotest.(check bool) "p not mutated" false (List.mem k l.La.mutated)
   | None -> Alcotest.fail "p not a base");
  Alcotest.(check bool) "has call" true l.La.has_call

let test_loops_declared_inside () =
  let _, a = analyze {|
    double m[16];
    int main() {
      int i; int j;
      for (i = 0; i < 4; i++) {
        double *row = m + i*4;
        for (j = 0; j < 4; j++) row[j] = 0.0;
      }
      return 0;
    }
  |} in
  let outer = List.find (fun l -> l.La.parent = None) (La.all_loops a) in
  let row_base =
    List.find_map
      (function La.Bsym s when s.Ir.name = "row" -> Some (La.Bsym s) | _ -> None)
      outer.La.bases
  in
  match row_base with
  | Some b ->
    Alcotest.(check bool) "declared inside" true (La.base_declared_inside outer b);
    Alcotest.(check bool) "assignable" true (La.base_assignable outer b)
  | None -> Alcotest.fail "row not a base of the nest"

let test_classify_base () =
  let p = Typecheck.check_source {|
    int a[4];
    int main() {
      int *p = a;
      int x = *(p + 1) + a[0] + *p++;
      print_int(x);
      return 0;
    }
  |} in
  (* find the refs in main's body and classify *)
  let f = List.hd p.Ir.funcs in
  let classified = ref [] in
  let rec walk (e : Ir.texpr) =
    (match e.Ir.e with
     | Ir.Tindex (b, _) | Ir.Tderef b ->
       (match La.classify_base b with
        | La.Bsym s -> classified := s.Ir.name :: !classified
        | La.Bstr _ -> classified := "<str>" :: !classified
        | La.Bcomplex -> classified := "?" :: !classified)
     | _ -> ());
    match e.Ir.e with
    | Ir.Tindex (a, b) | Ir.Tbinop (_, a, b) | Ir.Tassign (a, b) ->
      walk a; walk b
    | Ir.Tderef a | Ir.Tcast (_, a) | Ir.Tincdec (_, _, a) -> walk a
    | _ -> ()
  in
  List.iter (function Ir.Sdecl (_, Some e) | Ir.Sexpr e -> walk e | _ -> ())
    f.Ir.body;
  Alcotest.(check bool) "all resolve to p or a" true
    (List.for_all (fun n -> n = "p" || n = "a") !classified
     && List.length !classified = 3)

let suite =
  [
    Alcotest.test_case "lex basics" `Quick test_lex_basics;
    Alcotest.test_case "lex numbers" `Quick test_lex_numbers;
    Alcotest.test_case "lex strings/chars" `Quick test_lex_strings_chars;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex operators" `Quick test_lex_operators;
    Alcotest.test_case "lex errors" `Quick test_lex_errors;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse unary/postfix" `Quick test_parse_unary_postfix;
    Alcotest.test_case "parse cast vs paren" `Quick test_parse_cast_vs_paren;
    Alcotest.test_case "parse ternary/logic" `Quick test_parse_ternary_logic;
    Alcotest.test_case "parse statements" `Quick test_parse_statements;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "typecheck accepts" `Quick test_typecheck_accepts;
    Alcotest.test_case "typecheck rejects" `Quick test_typecheck_rejects;
    Alcotest.test_case "typecheck main" `Quick test_typecheck_requires_main;
    Alcotest.test_case "op= desugar" `Quick test_typecheck_op_assign_desugar;
    Alcotest.test_case "conversions" `Quick test_typecheck_conversions;
    Alcotest.test_case "loop bases FCFS" `Quick test_loops_bases_order;
    Alcotest.test_case "loop nesting" `Quick test_loops_nesting;
    Alcotest.test_case "loop characteristics" `Quick test_loops_characteristics;
    Alcotest.test_case "mutation/escape/call" `Quick test_loops_mutation_and_escape;
    Alcotest.test_case "declared inside" `Quick test_loops_declared_inside;
    Alcotest.test_case "classify base" `Quick test_classify_base;
  ]

(* --- additional edge cases ---------------------------------------------- *)

let test_lex_hex_escape () =
  Alcotest.(check bool) "\\x41 is A" true
    (toks {|"\x41\x42"|} = [ Token.STR_LIT "AB"; Token.EOF ])

let test_parse_empty_things () =
  let p = Parser.parse_program
      "int main() { ;; for (;;) break; while (1) break; return 0; }" in
  Alcotest.(check int) "parses" 1 (List.length p)

let test_parse_dangling_else () =
  (* else binds to the nearest if *)
  let e = Parser.parse_program
      "int main() { if (1) if (0) return 1; else return 2; return 3; }" in
  match e with
  | [ Ast.Gfunc { Ast.body = [ Ast.If (_, Ast.If (_, _, Some _), None); _ ]; _ } ]
    -> ()
  | _ -> Alcotest.fail "else must attach to the inner if"

let test_parse_void_params () =
  let p = Parser.parse_program "int f(void) { return 1; } int main() { return f(); }" in
  match p with
  | [ Ast.Gfunc { Ast.params = []; _ }; _ ] -> ()
  | _ -> Alcotest.fail "void parameter list must be empty"

let test_parse_array_param_decays () =
  let p = Parser.parse_program "int f(int a[8]) { return a[0]; } int main() { return 0; }" in
  match p with
  | [ Ast.Gfunc { Ast.params = [ (Ast.Tptr Ast.Tint, _) ]; _ }; _ ] -> ()
  | _ -> Alcotest.fail "array parameters decay to pointers"

let test_typecheck_void_ptr_compat () =
  check_ok {|
int main() {
  int *p = (int*)malloc(8);
  free(p);           /* int* -> void* implicitly */
  return 0; }
|}

let test_typecheck_string_is_char_ptr () =
  check_fails "int main() { int *p = \"abc\"; return 0; }"

let test_typecheck_break_anywhere_parses () =
  (* break/continue are syntactically valid anywhere; codegen rejects
     them outside loops *)
  check_ok "int main() { while (1) { if (1) break; } return 0; }"

let test_loop_ids_unique () =
  let p = Typecheck.check_source {|
int main() {
  int i; int j;
  for (i = 0; i < 2; i++) { }
  for (i = 0; i < 2; i++) for (j = 0; j < 2; j++) { }
  while (i) i--;
  return 0; }
|} in
  let a = La.analyze p in
  let ids = List.map (fun l -> l.La.loop_id) (La.all_loops a) in
  Alcotest.(check int) "four loops" 4 (List.length ids);
  Alcotest.(check int) "unique ids" 4
    (List.length (List.sort_uniq compare ids))

let test_stable_def_source () =
  let p = Typecheck.check_source {|
int zone[64];
int other[64];
int main() {
  int k; int s = 0;
  for (k = 0; k < 8; k++) {
    int *row = zone + k * 8;      /* single stable source */
    int *mix = (k % 2) ? zone : other;  /* two sources */
    s += row[0] + mix[0];
  }
  print_int(s);
  return 0; }
|} in
  let a = La.analyze p in
  let l = List.hd (La.all_loops a) in
  let find name =
    List.find_map
      (function
        | La.Bsym s when s.Ir.name = name -> Some (La.Bsym s)
        | _ -> None)
      l.La.bases
  in
  (match find "row" with
   | Some b ->
     (match La.stable_def_source l b with
      | Some (La.Bsym src) ->
        Alcotest.(check string) "row borrows zone" "zone" src.Ir.name
      | _ -> Alcotest.fail "row should have a stable source")
   | None -> Alcotest.fail "row not a base");
  match find "mix" with
  | Some b ->
    Alcotest.(check bool) "mix has no stable source" true
      (La.stable_def_source l b = None)
  | None -> Alcotest.fail "mix not a base"

let test_written_tracking () =
  let p = Typecheck.check_source {|
int src[8]; int dst[8];
int main() {
  int i;
  for (i = 0; i < 8; i++) dst[i] = src[i];
  return 0; }
|} in
  let a = La.analyze p in
  let l = List.hd (La.all_loops a) in
  let key name =
    List.find_map
      (function
        | La.Bsym s when s.Ir.name = name -> Some (La.base_key (La.Bsym s))
        | _ -> None)
      l.La.bases
  in
  (match key "dst" with
   | Some k -> Alcotest.(check bool) "dst written" true (List.mem k l.La.written)
   | None -> Alcotest.fail "dst missing");
  match key "src" with
  | Some k ->
    Alcotest.(check bool) "src not written" false (List.mem k l.La.written)
  | None -> Alcotest.fail "src missing"

(* --- table-driven lexer vs the reference oracle ------------------------- *)

(* The production lexer is the table-driven scanner; the original
   list-building lexer survives as [Lexer_reference], the oracle. The
   two must agree token for token — including line numbers — on every
   program the repo can produce, and must reject the same garbage with
   the same message on the same line. *)

module Lexref = Minic.Lexer_reference

(* Token stream or lex error, comparable across the two lexers. *)
let outcome f src =
  match f src with
  | toks -> Ok toks
  | exception Lexer.Lex_error (m, l) -> Error (m, l)
  | exception Lexref.Lex_error (m, l) -> Error (m, l)

let check_agree what src =
  let a = outcome Lexer.tokenize src in
  let b = outcome Lexref.tokenize src in
  if a <> b then Alcotest.failf "lexers disagree on %s: %S" what src

let test_oracle_workloads () =
  List.iter
    (fun (name, src) -> check_agree name src)
    [ ("matmul", Workloads.Micro.matmul ());
      ("gaussian", Workloads.Micro.gaussian ());
      ("fft2d", Workloads.Micro.fft2d ());
      ("edge_detect", Workloads.Micro.edge_detect ());
      ("svd", Workloads.Micro.svd ());
      ("volrender", Workloads.Micro.volrender ());
      ("toast", Workloads.Macro.toast ());
      ("cjpeg", Workloads.Macro.cjpeg ());
      ("quat", Workloads.Macro.quat ());
      ("raylab", Workloads.Macro.raylab ());
      ("speex", Workloads.Macro.speex ());
      ("gif2png", Workloads.Macro.gif2png ()) ]

let test_oracle_fuzz () =
  (* the differential suite's seed range, with and without overruns *)
  for seed = 0 to 209 do
    check_agree
      (Printf.sprintf "seed %d" seed)
      (Fuzz.Gen.render (Fuzz.Gen.generate ~seed ~oob:(seed mod 3 = 0)))
  done

let test_oracle_tricky () =
  List.iter
    (fun src -> check_agree "tricky" src)
    [ "";
      "   \t  \n ";
      "int main() { return 0; }\r\n";
      "a\r\nb\r\nc";
      "x // comment to eof";
      "x /* block */ y /**/z";
      "/**/x/**//**/y// tail";
      "0 00 0x0 0xff 0XFF 0x2A 123456789";
      "1.5 1e3 1E3 1e+3 1e-3 1.5e2";
      {|'a' '\n' '\t' '\\' '\'' '\0' '\x41'|};
      {|"" "a" "\x41\x42" "tab\there" "q\"q" "a\nb"|};
      "a+++b a---b a+ ++b";
      "<<= < <= << = == != ! & && | ||";
      "x=1;y+=2;z-=3;w*=4;v/=5;u%=6;";
      "int _ab1 a_b_c sizeof sizeofx intx do doubled";
      (* both lexers must reject these identically: same message, line *)
      "@"; "\n\n  @"; "a\r\n@"; "$"; "`";
      "\"unterminated"; "\"unterminated\n more";
      "'"; "'a"; {|'\q'|};
      "/* runs off the end";
      (* literals OCaml's conversions refuse *)
      "return 99999999999999999999;"; "return 0x1FFFFFFFFFFFFFFFFFFF;";
      "d = 1.5e;" ]

let test_lex_error_lines () =
  let line_of name f src =
    match f src with
    | exception Lexer.Lex_error (_, l) -> l
    | exception Lexref.Lex_error (_, l) -> l
    | _ -> Alcotest.failf "%s: expected a lex error for %S" name src
  in
  List.iter
    (fun (src, expect) ->
      Alcotest.(check int) ("new: " ^ String.escaped src) expect
        (line_of "new" Lexer.tokenize src);
      Alcotest.(check int) ("ref: " ^ String.escaped src) expect
        (line_of "ref" Lexref.tokenize src))
    [ ("@", 1); ("\n@", 2); ("a\nb\n  @", 3); ("//c\n/* x\n\n*/\n@", 5);
      ("x;\nreturn 99999999999999999999;", 2);
      ("\n\nreturn 0x1FFFFFFFFFFFFFFFFFFF;", 3); ("d = 1.5e;", 1) ]

(* The flat-array scan: counts, lines, and the pointer-length halves
   must recover the reference stream and the original spellings. *)
let test_scan_positions () =
  let src =
    "int g = 0x2A;\nint main() {\n  int a[4]; /* c */\n  return a[0] + g;\n}\n"
  in
  let b = Lexer.scan src in
  let locs = Lexref.tokenize src in
  Alcotest.(check int) "count" (List.length locs) (Lexer.count b);
  List.iteri
    (fun i (l : Token.located) ->
      if Lexer.token b i <> l.Token.tok then
        Alcotest.failf "token %d differs" i;
      Alcotest.(check int) (Printf.sprintf "line of token %d" i) l.Token.line
        (Lexer.line_at b i);
      match l.Token.tok with
      | Token.INT_LIT _ | Token.FLOAT_LIT _ | Token.STR_LIT _
      | Token.CHAR_LIT _ | Token.EOF ->
        ()
      | t ->
        (* keywords, identifiers, punctuation: spelling = rendering *)
        Alcotest.(check string)
          (Printf.sprintf "spelling of token %d" i)
          (Token.to_string t)
          (String.sub src (Lexer.offset b i) (Lexer.length_at b i)))
    locs;
  Alcotest.(check bool) "past the end is EOF" true
    (Lexer.token b 999 = Token.EOF);
  Alcotest.(check int) "past the end is line 0" 0 (Lexer.line_at b 999)

let test_parse_error_lines () =
  List.iter
    (fun (src, expect) ->
      match Parser.parse_program src with
      | exception Parser.Parse_error (_, l) ->
        Alcotest.(check int) ("line of " ^ String.escaped src) expect l
      | _ -> Alcotest.failf "expected a parse error in %S" src)
    [ ("int main() { return 0 }", 1);
      ("int main() {\n  int x = 1;\n  return 0\n}", 4);
      ("int main() {\r\n  return 0\r\n}", 3);
      ("int f(int\n) { }", 2) ]

let suite =
  suite
  @ [
      Alcotest.test_case "lexer oracle: workloads" `Quick test_oracle_workloads;
      Alcotest.test_case "lexer oracle: fuzz programs" `Quick test_oracle_fuzz;
      Alcotest.test_case "lexer oracle: tricky inputs" `Quick
        test_oracle_tricky;
      Alcotest.test_case "lex error lines" `Quick test_lex_error_lines;
      Alcotest.test_case "scan positions" `Quick test_scan_positions;
      Alcotest.test_case "parse error lines" `Quick test_parse_error_lines;
      Alcotest.test_case "lex hex escape" `Quick test_lex_hex_escape;
      Alcotest.test_case "parse empties" `Quick test_parse_empty_things;
      Alcotest.test_case "dangling else" `Quick test_parse_dangling_else;
      Alcotest.test_case "void params" `Quick test_parse_void_params;
      Alcotest.test_case "array param decay" `Quick test_parse_array_param_decays;
      Alcotest.test_case "void* compat" `Quick test_typecheck_void_ptr_compat;
      Alcotest.test_case "string typing" `Quick test_typecheck_string_is_char_ptr;
      Alcotest.test_case "break parses" `Quick test_typecheck_break_anywhere_parses;
      Alcotest.test_case "loop ids unique" `Quick test_loop_ids_unique;
      Alcotest.test_case "stable def source" `Quick test_stable_def_source;
      Alcotest.test_case "written tracking" `Quick test_written_tracking;
    ]
