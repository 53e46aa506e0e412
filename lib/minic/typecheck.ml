(* Semantic analysis: name resolution, type checking, implicit conversion
   insertion, op= and for-scope desugaring, loop numbering. Produces the
   typed IR consumed by all backends. *)

exception Type_error of string

let error fmt = Printf.ksprintf (fun msg -> raise (Type_error msg)) fmt

type env = {
  mutable next_sym : int;
  mutable next_loop : int;
  names : (string, Ir.sym * int) Hashtbl.t;
      (* every visible name, with the depth of the scope that declared
         it; an inner declaration shadows an outer one ([Hashtbl.add]) *)
  mutable scopes : string list list;
      (* the names each open scope declared, innermost first *)
  mutable depth : int;  (* open scopes *)
  funcs : (string, Ir.sym * Ast.ty list) Hashtbl.t; (* sig: param types *)
  mutable strings : string list; (* reversed *)
  mutable string_count : int;
  mutable locals_acc : Ir.sym list; (* collected per function, reversed *)
  mutable loop_depth : int; (* loops enclosing the statement being checked *)
}

let builtins : (string * (Ir.builtin * Ast.ty * Ast.ty list)) list =
  [
    ("malloc", (Ir.Bmalloc, Ast.Tptr Ast.Tvoid, [ Ast.Tint ]));
    ("free", (Ir.Bfree, Ast.Tvoid, [ Ast.Tptr Ast.Tvoid ]));
    ("print_int", (Ir.Bprint_int, Ast.Tvoid, [ Ast.Tint ]));
    ("print_char", (Ir.Bprint_char, Ast.Tvoid, [ Ast.Tint ]));
    ("print_float", (Ir.Bprint_float, Ast.Tvoid, [ Ast.Tdouble ]));
    ("rand", (Ir.Brand, Ast.Tint, []));
    ("srand", (Ir.Bsrand, Ast.Tvoid, [ Ast.Tint ]));
    ("server_ready", (Ir.Bserver_ready, Ast.Tvoid, []));
    ("sqrt", (Ir.Bsqrt, Ast.Tdouble, [ Ast.Tdouble ]));
    ("sin", (Ir.Bmath1 "sin", Ast.Tdouble, [ Ast.Tdouble ]));
    ("cos", (Ir.Bmath1 "cos", Ast.Tdouble, [ Ast.Tdouble ]));
    ("exp", (Ir.Bmath1 "exp", Ast.Tdouble, [ Ast.Tdouble ]));
    ("log", (Ir.Bmath1 "log", Ast.Tdouble, [ Ast.Tdouble ]));
    ("atan", (Ir.Bmath1 "atan", Ast.Tdouble, [ Ast.Tdouble ]));
    ("fabs", (Ir.Bmath1 "fabs", Ast.Tdouble, [ Ast.Tdouble ]));
    ("floor", (Ir.Bmath1 "floor", Ast.Tdouble, [ Ast.Tdouble ]));
    ("pow", (Ir.Bmath2 "pow", Ast.Tdouble, [ Ast.Tdouble; Ast.Tdouble ]));
  ]

let fresh_sym env ~name ~ty ~storage =
  let id = env.next_sym in
  env.next_sym <- env.next_sym + 1;
  { Ir.id; name; ty; storage }

let fresh_loop env =
  let id = env.next_loop in
  env.next_loop <- env.next_loop + 1;
  { Ir.loop_id = id }

(* One table of visible names instead of one per scope, so lookup and
   the redeclaration check cost O(1) however deeply blocks nest. *)
let push_scope env =
  env.scopes <- [] :: env.scopes;
  env.depth <- env.depth + 1

let pop_scope env =
  match env.scopes with
  | declared :: rest ->
    List.iter (Hashtbl.remove env.names) declared;
    env.scopes <- rest;
    env.depth <- env.depth - 1
  | [] -> assert false

let declare env sym =
  let name = sym.Ir.name in
  match env.scopes with
  | declared :: rest ->
    (match Hashtbl.find_opt env.names name with
     | Some (_, depth) when depth = env.depth ->
       error "redeclaration of '%s'" name
     | _ -> ());
    Hashtbl.add env.names name (sym, env.depth);
    env.scopes <- (name :: declared) :: rest
  | [] -> assert false

let lookup env name = Option.map fst (Hashtbl.find_opt env.names name)

let intern_string env s =
  let id = env.string_count in
  env.strings <- s :: env.strings;
  env.string_count <- id + 1;
  id

(* --- conversions ------------------------------------------------------ *)

let rec types_compatible a b =
  match a, b with
  | Ast.Tptr Ast.Tvoid, Ast.Tptr _ | Ast.Tptr _, Ast.Tptr Ast.Tvoid -> true
  | Ast.Tptr x, Ast.Tptr y -> types_compatible x y
  | x, y -> x = y

(* Convert [e] to type [want], inserting casts; promotes char to int and
   int to double implicitly. *)
let convert ~want (e : Ir.texpr) =
  let have = Ast.decay e.Ir.ty in
  let want = Ast.decay want in
  if have = want then e
  else
    match have, want with
    | Ast.Tchar, Ast.Tint | Ast.Tint, Ast.Tchar ->
      { Ir.ty = want; e = Ir.Tcast (want, e) }
    | (Ast.Tint | Ast.Tchar), Ast.Tdouble
    | Ast.Tdouble, (Ast.Tint | Ast.Tchar) ->
      { Ir.ty = want; e = Ir.Tcast (want, e) }
    | Ast.Tptr _, Ast.Tptr _ when types_compatible have want ->
      { Ir.ty = want; e = Ir.Tcast (want, e) }
    | _ ->
      error "cannot convert %s to %s" (Ast.show_ty have) (Ast.show_ty want)

(* The casts code generation lowers ([Codegen.gen_cast]), over decayed
   types, and no others. *)
let castable from_ty to_ty =
  from_ty = to_ty
  ||
  match from_ty, to_ty with
  | (Ast.Tint | Ast.Tchar), (Ast.Tint | Ast.Tchar | Ast.Tdouble | Ast.Tptr _)
  | Ast.Tdouble, (Ast.Tint | Ast.Tchar)
  | Ast.Tptr _, (Ast.Tptr _ | Ast.Tint | Ast.Tchar) -> true
  | _ -> false

(* Usual arithmetic conversions for a binary operation. *)
let arith_result a b =
  match Ast.decay a, Ast.decay b with
  | Ast.Tdouble, _ | _, Ast.Tdouble -> Ast.Tdouble
  | _ -> Ast.Tint

(* --- expressions ------------------------------------------------------ *)

let rec check_expr env (e : Ast.expr) : Ir.texpr =
  match e with
  | Ast.Int_lit n -> { Ir.ty = Ast.Tint; e = Ir.Tint_lit n }
  | Ast.Char_lit c -> { Ir.ty = Ast.Tint; e = Ir.Tint_lit (Char.code c) }
  | Ast.Float_lit f -> { Ir.ty = Ast.Tdouble; e = Ir.Tfloat_lit f }
  | Ast.Str_lit s ->
    { Ir.ty = Ast.Tptr Ast.Tchar; e = Ir.Tstr_lit (intern_string env s) }
  | Ast.Var name ->
    (match lookup env name with
     | Some sym -> { Ir.ty = sym.Ir.ty; e = Ir.Tvar sym }
     | None -> error "undeclared variable '%s'" name)
  | Ast.Index (base, idx) ->
    let base = check_expr env base in
    let idx = convert ~want:Ast.Tint (check_expr env idx) in
    (match Ast.decay base.Ir.ty with
     | Ast.Tptr elem when elem <> Ast.Tvoid ->
       { Ir.ty = elem; e = Ir.Tindex (base, idx) }
     | t -> error "cannot index a value of type %s" (Ast.show_ty t))
  | Ast.Deref p ->
    let p = check_expr env p in
    (match Ast.decay p.Ir.ty with
     | Ast.Tptr elem when elem <> Ast.Tvoid ->
       { Ir.ty = elem; e = Ir.Tderef p }
     | t -> error "cannot dereference a value of type %s" (Ast.show_ty t))
  | Ast.Addr_of inner ->
    let inner = check_expr env inner in
    if not (Ir.is_lvalue inner) then error "& requires an lvalue";
    (* &a where a is an array yields a pointer to the element type, as the
       decayed array already does; keep it simple and uniform. *)
    let pointee =
      match inner.Ir.ty with Ast.Tarray (t, _) -> t | t -> t
    in
    { Ir.ty = Ast.Tptr pointee; e = Ir.Taddr inner }
  | Ast.Unop (op, inner) ->
    let inner = check_expr env inner in
    (match op with
     | Ast.Neg ->
       let ty = Ast.decay inner.Ir.ty in
       if not (Ast.is_arith ty) then error "unary - requires arithmetic type";
       { Ir.ty; e = Ir.Tunop (op, inner) }
     | Ast.Lnot -> { Ir.ty = Ast.Tint; e = Ir.Tunop (op, inner) }
     | Ast.Bnot ->
       let inner = convert ~want:Ast.Tint inner in
       { Ir.ty = Ast.Tint; e = Ir.Tunop (op, inner) })
  | Ast.Binop (op, a, b) -> check_binop env op a b
  | Ast.Land (a, b) ->
    let a = check_expr env a and b = check_expr env b in
    { Ir.ty = Ast.Tint; e = Ir.Tland (a, b) }
  | Ast.Lor (a, b) ->
    let a = check_expr env a and b = check_expr env b in
    { Ir.ty = Ast.Tint; e = Ir.Tlor (a, b) }
  | Ast.Cond (c, a, b) ->
    let c = check_expr env c in
    let a = check_expr env a and b = check_expr env b in
    let ty =
      if Ast.decay a.Ir.ty = Ast.decay b.Ir.ty then Ast.decay a.Ir.ty
      else if Ast.is_arith (Ast.decay a.Ir.ty)
              && Ast.is_arith (Ast.decay b.Ir.ty)
      then arith_result a.Ir.ty b.Ir.ty
      else error "incompatible branches of ?:"
    in
    { Ir.ty; e = Ir.Tcond (c, convert ~want:ty a, convert ~want:ty b) }
  | Ast.Assign (lhs, rhs) ->
    let lhs = check_expr env lhs in
    if not (Ir.is_lvalue lhs) then error "assignment requires an lvalue";
    (match lhs.Ir.ty with
     | Ast.Tarray _ -> error "cannot assign to an array"
     | _ -> ());
    let rhs = convert ~want:lhs.Ir.ty (check_expr env rhs) in
    { Ir.ty = lhs.Ir.ty; e = Ir.Tassign (lhs, rhs) }
  | Ast.Op_assign (op, lhs, rhs) ->
    (* desugar: lhs op= rhs  ==>  lhs = lhs op rhs. The lvalue is evaluated
       twice; the workloads only use simple lvalues here. *)
    check_expr env (Ast.Assign (lhs, Ast.Binop (op, lhs, rhs)))
  | Ast.Incdec (pos, op, inner) ->
    let inner = check_expr env inner in
    if not (Ir.is_lvalue inner) then error "++/-- requires an lvalue";
    let ty = Ast.decay inner.Ir.ty in
    if not (Ast.is_integral ty || Ast.is_pointer ty) then
      error "++/-- requires integral or pointer type";
    { Ir.ty; e = Ir.Tincdec (pos, op, inner) }
  | Ast.Call (name, args) -> check_call env name args
  | Ast.Cast (ty, inner) ->
    let inner = check_expr env inner in
    let from_ty = Ast.decay inner.Ir.ty and to_ty = Ast.decay ty in
    if not (castable from_ty to_ty) then
      error "unsupported cast from %s to %s" (Ast.show_ty from_ty)
        (Ast.show_ty to_ty);
    { Ir.ty; e = Ir.Tcast (ty, inner) }
  | Ast.Sizeof_ty ty ->
    (* resolved at code generation: pointer sizes differ per backend *)
    { Ir.ty = Ast.Tint; e = Ir.Tsizeof ty }

and check_binop env op a b =
  let a = check_expr env a and b = check_expr env b in
  let ta = Ast.decay a.Ir.ty and tb = Ast.decay b.Ir.ty in
  match op with
  | Ast.Add | Ast.Sub ->
    (match ta, tb with
     | Ast.Tptr _, t when Ast.is_integral t ->
       { Ir.ty = ta; e = Ir.Tbinop (op, a, convert ~want:Ast.Tint b) }
     | t, Ast.Tptr _ when Ast.is_integral t && op = Ast.Add ->
       { Ir.ty = tb; e = Ir.Tbinop (op, convert ~want:Ast.Tint a, b) }
     | Ast.Tptr x, Ast.Tptr y when op = Ast.Sub && types_compatible x y ->
       { Ir.ty = Ast.Tint; e = Ir.Tbinop (op, a, b) }
     | _ when Ast.is_arith ta && Ast.is_arith tb ->
       let ty = arith_result ta tb in
       { Ir.ty; e = Ir.Tbinop (op, convert ~want:ty a, convert ~want:ty b) }
     | _ ->
       error "invalid operands to %s: %s, %s" (Ast.show_binop op)
         (Ast.show_ty ta) (Ast.show_ty tb))
  | Ast.Mul | Ast.Div ->
    if not (Ast.is_arith ta && Ast.is_arith tb) then
      error "invalid operands to %s" (Ast.show_binop op);
    let ty = arith_result ta tb in
    { Ir.ty; e = Ir.Tbinop (op, convert ~want:ty a, convert ~want:ty b) }
  | Ast.Mod | Ast.Band | Ast.Bor | Ast.Bxor | Ast.Shl | Ast.Shr ->
    (* integral operands only, as in C *)
    if not (Ast.is_integral ta && Ast.is_integral tb) then
      error "operator %s requires integral operands" (Ast.show_binop op);
    { Ir.ty = Ast.Tint;
      e = Ir.Tbinop (op, convert ~want:Ast.Tint a, convert ~want:Ast.Tint b) }
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge | Ast.Eq | Ast.Ne ->
    (match ta, tb with
     | Ast.Tptr _, Ast.Tptr _ ->
       { Ir.ty = Ast.Tint; e = Ir.Tbinop (op, a, b) }
     | Ast.Tptr _, Ast.Tint | Ast.Tint, Ast.Tptr _ ->
       (* pointer vs integer: the workloads only compare against 0 *)
       { Ir.ty = Ast.Tint; e = Ir.Tbinop (op, a, b) }
     | _ when Ast.is_arith ta && Ast.is_arith tb ->
       let ty = arith_result ta tb in
       { Ir.ty = Ast.Tint;
         e = Ir.Tbinop (op, convert ~want:ty a, convert ~want:ty b) }
     | _ -> error "invalid comparison")

and check_call env name args =
  let args = List.map (check_expr env) args in
  match List.assoc_opt name builtins with
  | Some (b, ret, param_tys) ->
    if List.length args <> List.length param_tys then
      error "%s expects %d arguments" name (List.length param_tys);
    let args = List.map2 (fun a want -> convert ~want a) args param_tys in
    { Ir.ty = ret; e = Ir.Tbuiltin (b, args) }
  | None ->
    (match Hashtbl.find_opt env.funcs name with
     | None -> error "call to undeclared function '%s'" name
     | Some (fsym, param_tys) ->
       if List.length args <> List.length param_tys then
         error "%s expects %d arguments" name (List.length param_tys);
       let args = List.map2 (fun a want -> convert ~want a) args param_tys in
       { Ir.ty = fsym.Ir.ty; e = Ir.Tcall (fsym, args) })

(* --- statements ------------------------------------------------------- *)

let rec check_stmt env ~ret_ty (s : Ast.stmt) : Ir.tstmt =
  match s with
  | Ast.Expr e -> Ir.Sexpr (check_expr env e)
  | Ast.Decl (ty, name, init) ->
    (match ty with
     | Ast.Tvoid -> error "cannot declare '%s' of type void" name
     | Ast.Tarray (_, n) when n <= 0 ->
       error "array '%s' must have positive size" name
     | _ -> ());
    let sym = fresh_sym env ~name ~ty ~storage:Ir.Local_var in
    declare env sym;
    env.locals_acc <- sym :: env.locals_acc;
    let init =
      match init with
      | None -> None
      | Some e ->
        (match ty with
         | Ast.Tarray _ -> error "array initialisers are not supported"
         | _ -> Some (convert ~want:ty (check_expr env e)))
    in
    Ir.Sdecl (sym, init)
  | Ast.If (c, then_, else_) ->
    let c = check_expr env c in
    Ir.Sif
      ( c,
        check_stmt env ~ret_ty then_,
        Option.map (check_stmt env ~ret_ty) else_ )
  | Ast.While (c, body) ->
    let li = fresh_loop env in
    let c = check_expr env c in
    Ir.Swhile (li, c, check_loop_body env ~ret_ty body)
  | Ast.For (init, cond, step, body) ->
    let li = fresh_loop env in
    push_scope env; (* the for-init declaration scopes over the loop *)
    let init = Option.map (check_stmt env ~ret_ty) init in
    let cond = Option.map (check_expr env) cond in
    let step = Option.map (check_expr env) step in
    let body = check_loop_body env ~ret_ty body in
    pop_scope env;
    Ir.Sfor (li, init, cond, step, body)
  | Ast.Return e ->
    (match e, ret_ty with
     | None, Ast.Tvoid -> Ir.Sreturn None
     | None, _ -> error "return without value in non-void function"
     | Some _, Ast.Tvoid -> error "return with value in void function"
     | Some e, _ -> Ir.Sreturn (Some (convert ~want:ret_ty (check_expr env e))))
  | Ast.Block stmts ->
    push_scope env;
    let stmts = List.map (check_stmt env ~ret_ty) stmts in
    pop_scope env;
    Ir.Sblock stmts
  | Ast.Break ->
    if env.loop_depth = 0 then error "break outside a loop";
    Ir.Sbreak
  | Ast.Continue ->
    if env.loop_depth = 0 then error "continue outside a loop";
    Ir.Scontinue
  | Ast.Empty -> Ir.Sempty

and check_loop_body env ~ret_ty body =
  env.loop_depth <- env.loop_depth + 1;
  let body = check_stmt env ~ret_ty body in
  env.loop_depth <- env.loop_depth - 1;
  body

(* --- program ------------------------------------------------------------ *)

let const_of_init name (e : Ir.texpr) =
  match e.Ir.e with
  | Ir.Tint_lit n -> Ir.Cint n
  | Ir.Tfloat_lit f -> Ir.Cfloat f
  | Ir.Tcast (Ast.Tdouble, { Ir.e = Ir.Tint_lit n; _ }) ->
    Ir.Cfloat (float_of_int n)
  | Ir.Tcast (Ast.Tint, { Ir.e = Ir.Tfloat_lit f; _ }) ->
    Ir.Cint (int_of_float f)
  | _ -> error "initialiser of global '%s' must be a constant" name

(* Type-check a whole translation unit. *)
let check (prog : Ast.program) : Ir.tprog =
  let env =
    {
      next_sym = 0;
      next_loop = 0;
      names = Hashtbl.create 64;
      scopes = [];
      depth = 0;
      funcs = Hashtbl.create 31;
      strings = [];
      string_count = 0;
      locals_acc = [];
      loop_depth = 0;
    }
  in
  push_scope env; (* global scope *)
  (* pass 1: declare all functions and globals so bodies can forward-call *)
  let prepared =
    List.map
      (fun g ->
        match g with
        | Ast.Gvar (ty, name, init) ->
          (match ty with
           | Ast.Tvoid -> error "global '%s' has type void" name
           | _ -> ());
          let sym = fresh_sym env ~name ~ty ~storage:Ir.Global_var in
          declare env sym;
          `Var (sym, init)
        | Ast.Gfunc f ->
          if Hashtbl.mem env.funcs f.Ast.name then
            error "redefinition of function '%s'" f.Ast.name;
          if List.mem_assoc f.Ast.name builtins then
            error "function '%s' shadows a builtin" f.Ast.name;
          let fsym =
            fresh_sym env ~name:f.Ast.name ~ty:f.Ast.ret ~storage:Ir.Global_var
          in
          Hashtbl.add env.funcs f.Ast.name
            (fsym, List.map fst f.Ast.params);
          `Func (fsym, f))
      prog
  in
  (* pass 2: check bodies *)
  let globals = ref [] in
  let funcs = ref [] in
  List.iter
    (fun item ->
      match item with
      | `Var (sym, init) ->
        let init =
          Option.map
            (fun e -> const_of_init sym.Ir.name (check_expr env e))
            init
        in
        globals := (sym, init) :: !globals
      | `Func (fsym, f) ->
        push_scope env;
        env.locals_acc <- [];
        let params =
          List.map
            (fun (ty, name) ->
              let sym = fresh_sym env ~name ~ty ~storage:Ir.Param in
              declare env sym;
              sym)
            f.Ast.params
        in
        let body = List.map (check_stmt env ~ret_ty:f.Ast.ret) f.Ast.body in
        let locals = List.rev env.locals_acc in
        pop_scope env;
        funcs := { Ir.fsym; params; locals; body } :: !funcs)
    prepared;
  let tprog =
    {
      Ir.globals = List.rev !globals;
      strings = Array.of_list (List.rev env.strings);
      funcs = List.rev !funcs;
    }
  in
  (match Ir.find_func tprog "main" with
   | Some _ -> ()
   | None -> error "program has no 'main' function");
  tprog

(* Convenience: source text straight to typed IR. *)
let check_source src = check (Parser.parse_program src)
