(** Table-driven scanner for mini-C: //- and /* */ comments, decimal and
    hex integer literals, floating literals, character and string
    literals with the common escapes including [\xNN].

    One pass over the contiguous source string through a 256-entry
    character-class table, producing pointer-length (offset + length)
    tokens in flat growable arrays. No per-character allocation;
    identifiers and keywords are interned per scan, so each distinct
    spelling is boxed and keyword-tested once. Token stream, error
    messages, and line numbers are pinned byte-for-byte to
    {!Lexer_reference} (the original list-building lexer) by the
    equivalence oracle in test_minic.ml. *)

exception Lex_error of string * int  (** message, line *)

(** A scanned source buffer: the flat token arrays the parser indexes
    directly. The last token is always [EOF]. *)
type buf

(** Scan a full source string.
    @raise Lex_error with the offending line number. *)
val scan : string -> buf

(** Number of tokens scanned, including the final [EOF]. *)
val count : buf -> int

(** [token b i] is the [i]th token, or [EOF] past the end. *)
val token : buf -> int -> Token.t

(** [line_at b i] is the source line of the [i]th token, or [0] past
    the end — the same convention the parser's error reporting always
    had. *)
val line_at : buf -> int -> int

(** Byte offset of the [i]th token's first character in the source
    (the pointer half of the pointer-length representation). *)
val offset : buf -> int -> int

(** Byte length of the [i]th token's spelling. *)
val length_at : buf -> int -> int

(** Tokenise a full source string; the result always ends with [EOF].
    A compatibility wrapper over {!scan} for list-shaped consumers.
    @raise Lex_error with the offending line number. *)
val tokenize : string -> Token.located list
