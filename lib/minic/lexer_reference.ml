(* The original list-building lexer, kept verbatim as the reference
   implementation for the table-driven scanner in [Lexer]. The token
   equivalence oracle (test/test_minic.ml) lexes through this module
   and compares against [Lexer.tokenize]; it is not on any production
   path. *)

exception Lex_error of string * int (* message, line *)

let error line fmt =
  Printf.ksprintf (fun msg -> raise (Lex_error (msg, line))) fmt

(* Number literals go through OCaml's conversions; their [Failure] on an
   out-of-range or malformed literal becomes a [Lex_error] on the
   literal's line. [text] is the literal as written, [repr] the string
   converted. *)
let int_literal line text repr =
  match int_of_string_opt repr with
  | Some n -> n
  | None -> error line "integer literal %s out of range" text

let float_literal line text =
  match float_of_string_opt text with
  | Some f -> f
  | None -> error line "malformed float literal %s" text

let keyword_table =
  [
    ("int", Token.KW_INT); ("char", Token.KW_CHAR);
    ("double", Token.KW_DOUBLE); ("float", Token.KW_DOUBLE);
    ("void", Token.KW_VOID); ("if", Token.KW_IF); ("else", Token.KW_ELSE);
    ("while", Token.KW_WHILE); ("for", Token.KW_FOR);
    ("return", Token.KW_RETURN); ("break", Token.KW_BREAK);
    ("continue", Token.KW_CONTINUE); ("sizeof", Token.KW_SIZEOF);
  ]

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

type state = { src : string; mutable pos : int; mutable line : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None
let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with Some '\n' -> st.line <- st.line + 1 | _ -> ());
  st.pos <- st.pos + 1

let rec skip_ws_and_comments st =
  match peek st, peek2 st with
  | Some (' ' | '\t' | '\r' | '\n'), _ ->
    advance st;
    skip_ws_and_comments st
  | Some '/', Some '/' ->
    while peek st <> None && peek st <> Some '\n' do advance st done;
    skip_ws_and_comments st
  | Some '/', Some '*' ->
    advance st; advance st;
    let rec close () =
      match peek st, peek2 st with
      | Some '*', Some '/' -> advance st; advance st
      | None, _ -> error st.line "unterminated comment"
      | _ -> advance st; close ()
    in
    close ();
    skip_ws_and_comments st
  | _ -> ()

let hex_digit st c =
  if is_digit c then Char.code c - Char.code '0'
  else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
  else if c >= 'A' && c <= 'F' then Char.code c - Char.code 'A' + 10
  else error st.line "bad hex digit '%c' in escape" c

(* [escape] is called with the character after the backslash already
   consumed; \xNN consumes two further hex digits. *)
let escape st = function
  | 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | '0' -> '\000'
  | '\\' -> '\\' | '\'' -> '\'' | '"' -> '"'
  | 'x' ->
    let h1 = match peek st with
      | Some c -> advance st; hex_digit st c
      | None -> error st.line "unterminated \\x escape"
    in
    let h2 = match peek st with
      | Some c -> advance st; hex_digit st c
      | None -> error st.line "unterminated \\x escape"
    in
    Char.chr ((h1 * 16) + h2)
  | c -> error st.line "unknown escape '\\%c'" c

let lex_number st =
  let start = st.pos in
  if peek st = Some '0' && (peek2 st = Some 'x' || peek2 st = Some 'X') then begin
    advance st; advance st;
    let hstart = st.pos in
    while (match peek st with Some c -> is_hex c | None -> false) do
      advance st
    done;
    if st.pos = hstart then error st.line "empty hex literal";
    Token.INT_LIT
      (int_literal st.line (String.sub st.src start (st.pos - start))
         ("0x" ^ String.sub st.src hstart (st.pos - hstart)))
  end
  else begin
    while (match peek st with Some c -> is_digit c | None -> false) do
      advance st
    done;
    let is_float =
      match peek st, peek2 st with
      | Some '.', Some c when is_digit c -> true
      | Some '.', _ -> true
      | Some ('e' | 'E'), _ -> true
      | _ -> false
    in
    if is_float then begin
      if peek st = Some '.' then begin
        advance st;
        while (match peek st with Some c -> is_digit c | None -> false) do
          advance st
        done
      end;
      (match peek st with
       | Some ('e' | 'E') ->
         advance st;
         (match peek st with
          | Some ('+' | '-') -> advance st
          | _ -> ());
         while (match peek st with Some c -> is_digit c | None -> false) do
           advance st
         done
       | _ -> ());
      Token.FLOAT_LIT
        (float_literal st.line (String.sub st.src start (st.pos - start)))
    end
    else begin
      let text = String.sub st.src start (st.pos - start) in
      Token.INT_LIT (int_literal st.line text text)
    end
  end

let lex_ident st =
  let start = st.pos in
  while (match peek st with Some c -> is_ident_char c | None -> false) do
    advance st
  done;
  let s = String.sub st.src start (st.pos - start) in
  match List.assoc_opt s keyword_table with
  | Some kw -> kw
  | None -> Token.IDENT s

let lex_char_lit st =
  advance st; (* opening quote *)
  let c =
    match peek st with
    | Some '\\' ->
      advance st;
      (match peek st with
       | Some e -> advance st; escape st e
       | None -> error st.line "unterminated char literal")
    | Some c -> advance st; c
    | None -> error st.line "unterminated char literal"
  in
  (match peek st with
   | Some '\'' -> advance st
   | _ -> error st.line "unterminated char literal");
  Token.CHAR_LIT c

let lex_str_lit st =
  advance st; (* opening quote *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | Some '"' -> advance st
    | Some '\\' ->
      advance st;
      (match peek st with
       | Some e -> advance st; Buffer.add_char buf (escape st e); go ()
       | None -> error st.line "unterminated string literal")
    | Some c -> advance st; Buffer.add_char buf c; go ()
    | None -> error st.line "unterminated string literal"
  in
  go ();
  Token.STR_LIT (Buffer.contents buf)

(* Operators and punctuation; longest match first. *)
let lex_symbol st =
  let two tok = advance st; advance st; tok in
  let one tok = advance st; tok in
  match peek st, peek2 st with
  | Some '+', Some '+' -> two Token.PLUSPLUS
  | Some '-', Some '-' -> two Token.MINUSMINUS
  | Some '+', Some '=' -> two Token.PLUS_ASSIGN
  | Some '-', Some '=' -> two Token.MINUS_ASSIGN
  | Some '*', Some '=' -> two Token.STAR_ASSIGN
  | Some '/', Some '=' -> two Token.SLASH_ASSIGN
  | Some '%', Some '=' -> two Token.PERCENT_ASSIGN
  | Some '<', Some '<' -> two Token.SHL
  | Some '>', Some '>' -> two Token.SHR
  | Some '<', Some '=' -> two Token.LE
  | Some '>', Some '=' -> two Token.GE
  | Some '=', Some '=' -> two Token.EQEQ
  | Some '!', Some '=' -> two Token.NEQ
  | Some '&', Some '&' -> two Token.ANDAND
  | Some '|', Some '|' -> two Token.OROR
  | Some '+', _ -> one Token.PLUS
  | Some '-', _ -> one Token.MINUS
  | Some '*', _ -> one Token.STAR
  | Some '/', _ -> one Token.SLASH
  | Some '%', _ -> one Token.PERCENT
  | Some '&', _ -> one Token.AMP
  | Some '|', _ -> one Token.PIPE
  | Some '^', _ -> one Token.CARET
  | Some '~', _ -> one Token.TILDE
  | Some '<', _ -> one Token.LT
  | Some '>', _ -> one Token.GT
  | Some '=', _ -> one Token.ASSIGN
  | Some '!', _ -> one Token.BANG
  | Some '(', _ -> one Token.LPAREN
  | Some ')', _ -> one Token.RPAREN
  | Some '{', _ -> one Token.LBRACE
  | Some '}', _ -> one Token.RBRACE
  | Some '[', _ -> one Token.LBRACKET
  | Some ']', _ -> one Token.RBRACKET
  | Some ';', _ -> one Token.SEMI
  | Some ',', _ -> one Token.COMMA
  | Some '?', _ -> one Token.QUESTION
  | Some ':', _ -> one Token.COLON
  | Some c, _ -> error st.line "unexpected character '%c'" c
  | None, _ -> Token.EOF

let next_token st =
  skip_ws_and_comments st;
  let line = st.line in
  let tok =
    match peek st with
    | None -> Token.EOF
    | Some c when is_digit c -> lex_number st
    | Some c when is_ident_start c -> lex_ident st
    | Some '\'' -> lex_char_lit st
    | Some '"' -> lex_str_lit st
    | Some _ -> lex_symbol st
  in
  { Token.tok; line }

(* Tokenise a full source string. *)
let tokenize src =
  let st = { src; pos = 0; line = 1 } in
  let rec go acc =
    let t = next_token st in
    if t.Token.tok = Token.EOF then List.rev (t :: acc) else go (t :: acc)
  in
  go []
