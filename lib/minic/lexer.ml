(* A table-driven scanner for mini-C: one pass over the contiguous
   source string, classifying bytes through a 256-entry character-class
   table and appending pointer-length (offset + length) tokens to flat
   growable arrays.

   The previous lexer (kept verbatim in [Lexer_reference]) boxed a
   [char option] for every character peeked and consed a
   [Token.located] per token; at fleet scale (10^5-10^6 generated
   programs per sweep) that allocation dominated frontend time. This
   scanner allocates nothing per character and nothing per occurrence
   of an identifier, keyword, or punctuation token: identifiers are
   resolved by hashing the source region into a per-scan intern table
   and compared in place, so each distinct spelling is materialised
   (and its keyword test run) exactly once. Only literal payloads
   (INT_LIT boxes, string/float contents) still allocate.

   Behaviour is pinned to the reference lexer byte for byte: same
   token stream, same [Lex_error] messages, same line numbers —
   including the corner cases (a line counted when a newline is
   consumed inside a comment or string literal, '.' after digits
   always starting a float, hex literals wrapping exactly like
   [int_of_string "0x..."]). The equivalence oracle in test_minic.ml
   and the [bench --frontend] A/B gate hold the two implementations
   together. *)

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

(* --- character classes --------------------------------------------------- *)

let c_ws = 1          (* space, tab, CR, LF *)
let c_digit = 2
let c_ident_start = 4 (* letter or underscore *)
let c_ident = 8       (* ident_start or digit *)
let c_hex = 16

let classes =
  let t = Array.make 256 0 in
  let add c bit = t.(Char.code c) <- t.(Char.code c) lor bit in
  List.iter (fun c -> add c c_ws) [ ' '; '\t'; '\r'; '\n' ];
  for c = Char.code '0' to Char.code '9' do
    t.(c) <- t.(c) lor c_digit lor c_ident lor c_hex
  done;
  let ident_start c = t.(Char.code c) <- t.(Char.code c)
                                         lor c_ident_start lor c_ident in
  for c = Char.code 'a' to Char.code 'z' do ident_start (Char.chr c) done;
  for c = Char.code 'A' to Char.code 'Z' do ident_start (Char.chr c) done;
  ident_start '_';
  for c = Char.code 'a' to Char.code 'f' do t.(c) <- t.(c) lor c_hex done;
  for c = Char.code 'A' to Char.code 'F' do t.(c) <- t.(c) lor c_hex done;
  t

let[@inline] cls c = Array.unsafe_get classes (Char.code c)
let[@inline] is_class c bit = cls c land bit <> 0

(* --- the token buffer ---------------------------------------------------- *)

(* Parallel flat arrays, doubled on demand: resolved token, byte offset
   of the token's first character, byte length, and source line. The
   parser indexes these directly instead of walking a list. *)
type buf = {
  src : string;
  mutable toks : Token.t array;
  mutable offs : int array;
  mutable lens : int array;
  mutable line_nos : int array;
  mutable n : int;
}

let count b = b.n
let token b i = if i < b.n then Array.unsafe_get b.toks i else Token.EOF
let line_at b i = if i < b.n then Array.unsafe_get b.line_nos i else 0
let offset b i = if i < b.n then Array.unsafe_get b.offs i else String.length b.src
let length_at b i = if i < b.n then Array.unsafe_get b.lens i else 0

let grow b =
  let cap = Array.length b.toks in
  let cap' = cap * 2 in
  let g a fill = let a' = Array.make cap' fill in Array.blit a 0 a' 0 cap; a' in
  b.toks <- g b.toks Token.EOF;
  b.offs <- g b.offs 0;
  b.lens <- g b.lens 0;
  b.line_nos <- g b.line_nos 0

let[@inline] push b tok off len line =
  if b.n = Array.length b.toks then grow b;
  let i = b.n in
  Array.unsafe_set b.toks i tok;
  Array.unsafe_set b.offs i off;
  Array.unsafe_set b.lens i len;
  Array.unsafe_set b.line_nos i line;
  b.n <- i + 1

(* --- identifier interning ------------------------------------------------ *)

(* Open-addressing table from source region to resolved token. A probe
   hashes the region and compares it against the stored spelling in
   place — no allocation on a hit. On a miss the spelling is cut out
   once, put through the keyword decision tree (an OCaml string match
   compiles to length dispatch + character tests, not a list scan), and
   the resulting token — shared KW constructor or a single IDENT box —
   is stored for every later occurrence. *)
type intern = {
  mutable names : string array;   (* "" = empty slot *)
  mutable itoks : Token.t array;
  mutable mask : int;             (* capacity - 1; capacity a power of 2 *)
  mutable used : int;
}

let intern_create () =
  { names = Array.make 64 ""; itoks = Array.make 64 Token.EOF;
    mask = 63; used = 0 }

let region_hash src off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get src i)) * 0x01000193
         land max_int
  done;
  !h

let region_equal src off len name =
  String.length name = len
  && (let i = ref 0 in
      while !i < len
            && String.unsafe_get name !i = String.unsafe_get src (off + !i) do
        incr i
      done;
      !i = len)

(* mini-C keywords, plus the historical alias float = double. *)
let keyword_or_ident s =
  match s with
  | "int" -> Token.KW_INT
  | "char" -> Token.KW_CHAR
  | "double" | "float" -> Token.KW_DOUBLE
  | "void" -> Token.KW_VOID
  | "if" -> Token.KW_IF
  | "else" -> Token.KW_ELSE
  | "while" -> Token.KW_WHILE
  | "for" -> Token.KW_FOR
  | "return" -> Token.KW_RETURN
  | "break" -> Token.KW_BREAK
  | "continue" -> Token.KW_CONTINUE
  | "sizeof" -> Token.KW_SIZEOF
  | _ -> Token.IDENT s

let rec intern_grow it =
  let names = it.names and itoks = it.itoks in
  let cap' = (it.mask + 1) * 2 in
  it.names <- Array.make cap' "";
  it.itoks <- Array.make cap' Token.EOF;
  it.mask <- cap' - 1;
  it.used <- 0;
  Array.iteri
    (fun i name ->
      if name <> "" then intern_insert it name itoks.(i))
    names

and intern_insert it name tok =
  if it.used * 2 > it.mask then intern_grow it;
  let h = region_hash name 0 (String.length name) in
  let j = ref (h land it.mask) in
  while it.names.(!j) <> "" do j := (!j + 1) land it.mask done;
  it.names.(!j) <- name;
  it.itoks.(!j) <- tok;
  it.used <- it.used + 1

let intern it src off len =
  let h = region_hash src off len in
  let j = ref (h land it.mask) in
  let result = ref Token.EOF and found = ref false in
  while not !found do
    let name = Array.unsafe_get it.names (!j land it.mask) in
    if name = "" then begin
      let s = String.sub src off len in
      let tok = keyword_or_ident s in
      intern_insert it s tok;
      result := tok;
      found := true
    end
    else if region_equal src off len name then begin
      result := Array.unsafe_get it.itoks (!j land it.mask);
      found := true
    end
    else j := !j + 1
  done;
  !result

(* --- the scanner --------------------------------------------------------- *)

(* Decimal accumulation overflows into [int_of_string] on the substring,
   which raises the same [Failure] the reference lexer did for
   out-of-range literals. *)
let dec_guard = max_int / 10 - 1

let scan src =
  let slen = String.length src in
  let b = {
    src;
    toks = Array.make 256 Token.EOF;
    offs = Array.make 256 0;
    lens = Array.make 256 0;
    line_nos = Array.make 256 0;
    n = 0;
  } in
  let it = intern_create () in
  let pos = ref 0 and line = ref 1 in
  let at i = String.unsafe_get src i in
  (* Consume one character that may be a newline (comments, string and
     char literal bodies) — the line counter moves exactly where the
     reference lexer's [advance] moved it. *)
  let adv1 () =
    if at !pos = '\n' then incr line;
    incr pos
  in
  let hex_digit c =
    if c >= '0' && c <= '9' then Char.code c - Char.code '0'
    else if c >= 'a' && c <= 'f' then Char.code c - Char.code 'a' + 10
    else if c >= 'A' && c <= 'F' then Char.code c - Char.code 'A' + 10
    else error !line "bad hex digit '%c' in escape" c
  in
  (* Called with the character after the backslash already consumed;
     \xNN consumes two further hex digits. *)
  let escape e =
    match e with
    | 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | '0' -> '\000'
    | '\\' -> '\\' | '\'' -> '\'' | '"' -> '"'
    | 'x' ->
      let h1 =
        if !pos < slen then (let c = at !pos in adv1 (); hex_digit c)
        else error !line "unterminated \\x escape"
      in
      let h2 =
        if !pos < slen then (let c = at !pos in adv1 (); hex_digit c)
        else error !line "unterminated \\x escape"
      in
      Char.chr ((h1 * 16) + h2)
    | c -> error !line "unknown escape '\\%c'" c
  in
  let skip_ws_and_comments () =
    let continue = ref true in
    while !continue do
      if !pos >= slen then continue := false
      else
        let c = at !pos in
        if is_class c c_ws then adv1 ()
        else if c = '/' && !pos + 1 < slen && at (!pos + 1) = '/' then
          while !pos < slen && at !pos <> '\n' do incr pos done
        else if c = '/' && !pos + 1 < slen && at (!pos + 1) = '*' then begin
          pos := !pos + 2;
          let closed = ref false in
          while not !closed do
            if !pos + 1 < slen && at !pos = '*' && at (!pos + 1) = '/' then begin
              pos := !pos + 2;
              closed := true
            end
            else if !pos >= slen then error !line "unterminated comment"
            else adv1 ()
          done
        end
        else continue := false
    done
  in
  let lex_number () =
    let start = !pos in
    if at !pos = '0' && !pos + 1 < slen
       && (at (!pos + 1) = 'x' || at (!pos + 1) = 'X') then begin
      pos := !pos + 2;
      let hstart = !pos in
      while !pos < slen && is_class (at !pos) c_hex do incr pos done;
      if !pos = hstart then error !line "empty hex literal";
      (* [int_of_string "0x..."] accepts the full unsigned range and
         wraps; delegate rather than re-implement that boundary. *)
      Token.INT_LIT
        (int_literal !line (String.sub src start (!pos - start))
           ("0x" ^ String.sub src hstart (!pos - hstart)))
    end
    else begin
      let acc = ref 0 and overflow = ref false in
      while !pos < slen && is_class (at !pos) c_digit do
        if !acc > dec_guard then overflow := true
        else acc := (!acc * 10) + (Char.code (at !pos) - Char.code '0');
        incr pos
      done;
      let is_float =
        !pos < slen && (at !pos = '.' || at !pos = 'e' || at !pos = 'E')
      in
      if is_float then begin
        if !pos < slen && at !pos = '.' then begin
          incr pos;
          while !pos < slen && is_class (at !pos) c_digit do incr pos done
        end;
        if !pos < slen && (at !pos = 'e' || at !pos = 'E') then begin
          incr pos;
          if !pos < slen && (at !pos = '+' || at !pos = '-') then incr pos;
          while !pos < slen && is_class (at !pos) c_digit do incr pos done
        end;
        Token.FLOAT_LIT
          (float_literal !line (String.sub src start (!pos - start)))
      end
      else if !overflow then begin
        let text = String.sub src start (!pos - start) in
        Token.INT_LIT (int_literal !line text text)
      end
      else Token.INT_LIT !acc
    end
  in
  let lex_ident () =
    let start = !pos in
    while !pos < slen && is_class (at !pos) c_ident do incr pos done;
    intern it src start (!pos - start)
  in
  let lex_char_lit () =
    incr pos; (* opening quote *)
    let c =
      if !pos >= slen then error !line "unterminated char literal"
      else if at !pos = '\\' then begin
        incr pos;
        if !pos >= slen then error !line "unterminated char literal";
        let e = at !pos in
        adv1 ();
        escape e
      end
      else (let c = at !pos in adv1 (); c)
    in
    if !pos < slen && at !pos = '\'' then incr pos
    else error !line "unterminated char literal";
    Token.CHAR_LIT c
  in
  let lex_str_lit () =
    incr pos; (* opening quote *)
    let sbuf = Buffer.create 16 in
    let closed = ref false in
    while not !closed do
      if !pos >= slen then error !line "unterminated string literal";
      let c = at !pos in
      if c = '"' then begin incr pos; closed := true end
      else if c = '\\' then begin
        incr pos;
        if !pos >= slen then error !line "unterminated string literal";
        let e = at !pos in
        adv1 ();
        Buffer.add_char sbuf (escape e)
      end
      else begin
        adv1 ();
        Buffer.add_char sbuf c
      end
    done;
    Token.STR_LIT (Buffer.contents sbuf)
  in
  (* Operators and punctuation; longest match first. *)
  let lex_symbol c =
    let nxt = if !pos + 1 < slen then at (!pos + 1) else '\000' in
    let two tok = pos := !pos + 2; tok in
    let one tok = incr pos; tok in
    match c with
    | '+' ->
      if nxt = '+' then two Token.PLUSPLUS
      else if nxt = '=' then two Token.PLUS_ASSIGN
      else one Token.PLUS
    | '-' ->
      if nxt = '-' then two Token.MINUSMINUS
      else if nxt = '=' then two Token.MINUS_ASSIGN
      else one Token.MINUS
    | '*' -> if nxt = '=' then two Token.STAR_ASSIGN else one Token.STAR
    | '/' -> if nxt = '=' then two Token.SLASH_ASSIGN else one Token.SLASH
    | '%' -> if nxt = '=' then two Token.PERCENT_ASSIGN else one Token.PERCENT
    | '<' ->
      if nxt = '<' then two Token.SHL
      else if nxt = '=' then two Token.LE
      else one Token.LT
    | '>' ->
      if nxt = '>' then two Token.SHR
      else if nxt = '=' then two Token.GE
      else one Token.GT
    | '=' -> if nxt = '=' then two Token.EQEQ else one Token.ASSIGN
    | '!' -> if nxt = '=' then two Token.NEQ else one Token.BANG
    | '&' -> if nxt = '&' then two Token.ANDAND else one Token.AMP
    | '|' -> if nxt = '|' then two Token.OROR else one Token.PIPE
    | '^' -> one Token.CARET
    | '~' -> one Token.TILDE
    | '(' -> one Token.LPAREN
    | ')' -> one Token.RPAREN
    | '{' -> one Token.LBRACE
    | '}' -> one Token.RBRACE
    | '[' -> one Token.LBRACKET
    | ']' -> one Token.RBRACKET
    | ';' -> one Token.SEMI
    | ',' -> one Token.COMMA
    | '?' -> one Token.QUESTION
    | ':' -> one Token.COLON
    | c -> error !line "unexpected character '%c'" c
  in
  let eof = ref false in
  while not !eof do
    skip_ws_and_comments ();
    let tline = !line in
    if !pos >= slen then begin
      push b Token.EOF slen 0 tline;
      eof := true
    end
    else begin
      let start = !pos in
      let c = at !pos in
      let k = cls c in
      let tok =
        if k land c_digit <> 0 then lex_number ()
        else if k land c_ident_start <> 0 then lex_ident ()
        else if c = '\'' then lex_char_lit ()
        else if c = '"' then lex_str_lit ()
        else lex_symbol c
      in
      push b tok start (!pos - start) tline
    end
  done;
  b

(* Tokenise a full source string — the list interface the rest of the
   system (and the equivalence oracle) consumes. *)
let tokenize src =
  let b = scan src in
  let rec go i acc =
    if i < 0 then acc
    else
      go (i - 1)
        ({ Token.tok = Array.unsafe_get b.toks i;
           line = Array.unsafe_get b.line_nos i }
         :: acc)
  in
  go (b.n - 1) []
