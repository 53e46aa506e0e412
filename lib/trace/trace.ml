(* Structured tracing and metrics for the simulator.

   Checkbochs (Usenix '04) showed the value of a machine simulator that
   exposes hardware-level events to pluggable checkers; this module is
   that layer for the Cash simulator. The hardware (lib/seghw), the CPU
   (lib/machine), and the OS (lib/osim) each hold a [sink option] and
   emit typed events when one is attached; the sink maintains per-kind
   counters, a bounded ring of recent events, the attached checker
   plugins, and the per-function cycle attribution the profiler merges
   in after a run.

   Overhead policy: the traced-off cost is at most one load-and-branch
   per would-be event at each emitting site (no event is even
   constructed; the block engine's untraced closures do not even test),
   so the hot path stays within noise of the untraced engine. The
   traced cost of an event is one counter bump, one ring store, and one
   call per plugin that reads the event's kind: each plugin declares
   its kinds ([p_kinds]) and the sink walks only that kind's subscriber
   list, so a kind no plugin reads (with the shipped set, [Tlb_hit])
   costs no plugin call at all. The two hot kinds have their own entry
   points, [limit_check] and [tlb_hit]: their ring slot is a few int
   stores, and the event record is built only for a plugin that reads
   it, so the ring keeps no record alive and a hot event no plugin
   reads allocates nothing. [events] rebuilds the record. Every other
   kind goes through [emit] with the record its emitting site builds.
   Nothing else allocates: [emit] walks the subscriber list without
   building a closure, and the shipped plugins keep their books in
   mutable fields and flat arrays. test/test_trace.ml pins that budget
   in minor words per event. Tracing never changes simulated semantics
   — cycles, stat counters, memory and table output are bit-identical
   either way; test/test_predecode.ml pins this. *)

type ldt_path = Slow_syscall | Call_gate

type event =
  | Segreg_load of { reg : string; selector : int }
  | Limit_check of {
      seg : string;
      base : int;
      offset : int;
      size : int;
      write : bool;
      ok : bool;
    }
  | Fault of {
      cls : [ `Gp | `Ss | `Pf | `Np | `Ud | `Br ];
      detail : string;
      address : int option;
      selector : int option;
    }
  | Tlb_hit
  | Tlb_miss of { page : int; evicted : bool }
  | Ldt_update of { path : ldt_path; index : int; cleared : bool }
  | Call_gate_entry of { selector : int }
  | Context_switch of { pid : int }
  | Btable_load of { key : int; hit : bool }
  | Cap_tag_clear of { value : int; lower : int; upper : int }

type kind =
  | K_segreg_load
  | K_limit_check_pass
  | K_limit_check_fail
  | K_fault_gp
  | K_fault_ss
  | K_fault_pf
  | K_fault_np
  | K_fault_ud
  | K_fault_br
  | K_tlb_hit
  | K_tlb_miss
  | K_tlb_evict
  | K_modify_ldt
  | K_cash_modify_ldt
  | K_call_gate_entry
  | K_context_switch
  | K_btable_hit
  | K_btable_miss
  | K_cap_tag_clear

let kind_index = function
  | K_segreg_load -> 0
  | K_limit_check_pass -> 1
  | K_limit_check_fail -> 2
  | K_fault_gp -> 3
  | K_fault_ss -> 4
  | K_fault_pf -> 5
  | K_fault_np -> 6
  | K_fault_ud -> 7
  | K_fault_br -> 8
  | K_tlb_hit -> 9
  | K_tlb_miss -> 10
  | K_tlb_evict -> 11
  | K_modify_ldt -> 12
  | K_cash_modify_ldt -> 13
  | K_call_gate_entry -> 14
  | K_context_switch -> 15
  | K_btable_hit -> 16
  | K_btable_miss -> 17
  | K_cap_tag_clear -> 18

let num_kinds = 19

let all_kinds =
  [
    K_segreg_load; K_limit_check_pass; K_limit_check_fail; K_fault_gp;
    K_fault_ss; K_fault_pf; K_fault_np; K_fault_ud; K_fault_br; K_tlb_hit;
    K_tlb_miss; K_tlb_evict; K_modify_ldt; K_cash_modify_ldt;
    K_call_gate_entry; K_context_switch; K_btable_hit; K_btable_miss;
    K_cap_tag_clear;
  ]

let kind_name = function
  | K_segreg_load -> "segreg.load"
  | K_limit_check_pass -> "limit_check.pass"
  | K_limit_check_fail -> "limit_check.fail"
  | K_fault_gp -> "fault.gp"
  | K_fault_ss -> "fault.ss"
  | K_fault_pf -> "fault.pf"
  | K_fault_np -> "fault.np"
  | K_fault_ud -> "fault.ud"
  | K_fault_br -> "fault.br"
  | K_tlb_hit -> "tlb.hit"
  | K_tlb_miss -> "tlb.miss"
  | K_tlb_evict -> "tlb.evict"
  | K_modify_ldt -> "ldt.modify_ldt"
  | K_cash_modify_ldt -> "ldt.cash_modify_ldt"
  | K_call_gate_entry -> "ldt.call_gate_entry"
  | K_context_switch -> "sched.context_switch"
  | K_btable_hit -> "btable.hit"
  | K_btable_miss -> "btable.miss"
  | K_cap_tag_clear -> "cap.tag_clear"

let kind_of_event = function
  | Segreg_load _ -> K_segreg_load
  | Limit_check { ok; _ } -> if ok then K_limit_check_pass else K_limit_check_fail
  | Fault { cls; _ } ->
    (match cls with
     | `Gp -> K_fault_gp
     | `Ss -> K_fault_ss
     | `Pf -> K_fault_pf
     | `Np -> K_fault_np
     | `Ud -> K_fault_ud
     | `Br -> K_fault_br)
  | Tlb_hit -> K_tlb_hit
  | Tlb_miss _ -> K_tlb_miss
  | Ldt_update { path = Slow_syscall; _ } -> K_modify_ldt
  | Ldt_update { path = Call_gate; _ } -> K_cash_modify_ldt
  | Call_gate_entry _ -> K_call_gate_entry
  | Context_switch _ -> K_context_switch
  | Btable_load { hit; _ } -> if hit then K_btable_hit else K_btable_miss
  | Cap_tag_clear _ -> K_cap_tag_clear

(* --- histograms --------------------------------------------------------- *)

module Histogram = struct
  (* Power-of-two buckets: bucket 0 counts v <= 0, bucket i counts
     2^(i-1) <= v < 2^i. 63 buckets cover the whole int range. *)
  type t = { counts : int array; mutable total : int }

  let nbuckets = 63

  let create () = { counts = Array.make nbuckets 0; total = 0 }

  let bucket_of v =
    if v <= 0 then 0
    else
      let rec go i v = if v = 0 then i else go (i + 1) (v lsr 1) in
      min (nbuckets - 1) (go 0 v)

  let add t v =
    t.counts.(bucket_of v) <- t.counts.(bucket_of v) + 1;
    t.total <- t.total + 1

  let total t = t.total

  (* Pointwise sum, for aggregating per-job sinks after a parallel run:
     bucket boundaries are fixed, so merging histograms is exact. *)
  let merge_into ~into src =
    for i = 0 to nbuckets - 1 do
      into.counts.(i) <- into.counts.(i) + src.counts.(i)
    done;
    into.total <- into.total + src.total

  let lower_bound i = if i = 0 then 0 else 1 lsl (i - 1)

  let buckets t =
    let acc = ref [] in
    for i = nbuckets - 1 downto 0 do
      if t.counts.(i) > 0 then acc := (lower_bound i, t.counts.(i)) :: !acc
    done;
    !acc
end

(* --- JSON values: defined before the sink so plugin specs can
   reference [Json.t] in their report signatures ------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let rec write b = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.1f" f)
      else Buffer.add_string b (Printf.sprintf "%.6g" f)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | List vs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        vs;
      Buffer.add_char b ']'
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          write b (Str k);
          Buffer.add_char b ':';
          write b v)
        kvs;
      Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 256 in
    write b v;
    Buffer.contents b

  (* --- parsing: the inverse, for reading records back ------------------ *)

  exception Parse_error of string

  (* Recursive-descent RFC 8259 parser, sufficient for everything
     [write] emits (and standard JSON generally): the [cashd] request
     lines and the benchmark's declaration file. Numbers parse to
     [Int] when they are integral int-syntax literals and [Float]
     otherwise. *)
  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      if !pos + String.length word <= n
         && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let v = int_of_string_opt ("0x" ^ String.sub s !pos 4) in
      pos := !pos + 4;
      match v with Some v -> v | None -> fail "bad \\u escape"
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance (); Buffer.contents b
          | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'; advance ()
               | '\\' -> Buffer.add_char b '\\'; advance ()
               | '/' -> Buffer.add_char b '/'; advance ()
               | 'b' -> Buffer.add_char b '\b'; advance ()
               | 'f' -> Buffer.add_char b '\012'; advance ()
               | 'n' -> Buffer.add_char b '\n'; advance ()
               | 'r' -> Buffer.add_char b '\r'; advance ()
               | 't' -> Buffer.add_char b '\t'; advance ()
               | 'u' ->
                 advance ();
                 let cp = hex4 () in
                 (* UTF-8 encode; [escape] only ever emits control
                    characters this way, but accept the full BMP. *)
                 if cp < 0x80 then Buffer.add_char b (Char.chr cp)
                 else if cp < 0x800 then begin
                   Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
                   Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
                 end
                 else begin
                   Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
                   Buffer.add_char b
                     (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
                   Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
                 end
               | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            go ()
          | c when Char.code c < 0x20 -> fail "raw control character in string"
          | c -> Buffer.add_char b c; advance (); go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      if peek () = Some '-' then advance ();
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' -> true
        | '.' | 'e' | 'E' | '+' | '-' -> is_float := true; true
        | _ -> false
      do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      if !is_float then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" text)
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> (
          (* out of int range: fall back to float *)
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail (Printf.sprintf "bad number %S" text))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); members ((k, v) :: acc)
            | Some '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); elements (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing content";
    v

  (* Typed accessors over parsed records; [None] on shape mismatch. *)
  let member k = function
    | Obj kvs -> List.assoc_opt k kvs
    | _ -> None

  let to_int_opt = function Int i -> Some i | _ -> None
  let to_string_opt = function Str s -> Some s | _ -> None
end

(* --- the sink and the plugin layer --------------------------------------- *)

(* Per-plugin state is heterogeneous: each plugin module extends this
   open type with its own constructor and pattern-matches it back out
   in its callbacks (the idiomatic OCaml rendering of Checkbochs'
   per-plugin void pointer). *)
type plugin_state = ..

type sink = {
  counters : int array;           (* indexed by kind_index *)
  ring : event array;             (* circular buffer of recent events:
                                     the boxed slots (see [slots]) *)
  slots : int array;
      (* three ints per ring slot: a tag, then a limit check's base and
         offset. Tag 0: the event is [ring.(i)]; tag 1: [Tlb_hit]; any
         other tag is a [Limit_check] packed by [limit_check_tag]. The
         two hot kinds are stored here as ints, so the ring keeps no
         record of theirs alive. *)
  capacity : int;
  mutable head : int;             (* next write position *)
  mutable filled : int;           (* live ring slots, at most [capacity] *)
  mutable total : int;            (* events emitted, ever *)
  mutable violation_log : (string * string) list; (* newest first *)
  reload_interval : Histogram.t;
  mutable checks_at_last_reload : int;
  (* (symbol -> insns, cycles), merged in by the profiler *)
  attribution : (string, int ref * int ref) Hashtbl.t;
  (* instantiated plugins, in attach order *)
  mutable plugins : plugin_instance list;
  (* per kind_index: the plugins whose [p_kinds] name it, in attach
     order — what [emit] feeds *)
  subscribers : plugin_instance list array;
  (* plugins that asked for the next event, whatever its kind *)
  mutable requested : plugin_instance list;
  (* the hardware tally: the MMU's and TLB's own counts, credited by
     the CPUs that run under this sink *)
  mutable hw_limit_checks : int;
  mutable hw_tlb_hits : int;
  mutable hw_tlb_misses : int;
}

and plugin_instance = {
  i_spec : plugin_spec;
  i_mask : int;  (* bit [kind_index k] set for each k in [p_kinds] *)
  mutable i_state : plugin_state;
  mutable i_finished : bool;
}

and plugin_spec = {
  p_name : string;
  p_kinds : kind list;
  p_init : unit -> plugin_state;
  p_on_event : sink -> plugin_state -> event -> unit;
  p_at_finish : sink -> plugin_state -> unit;
  p_merge : into:plugin_state -> plugin_state -> unit;
  p_to_json : sink -> plugin_state -> Json.t;
}

module Plugin = struct
  type spec = plugin_spec = {
    p_name : string;
    p_kinds : kind list;
    p_init : unit -> plugin_state;
    p_on_event : sink -> plugin_state -> event -> unit;
    p_at_finish : sink -> plugin_state -> unit;
    p_merge : into:plugin_state -> plugin_state -> unit;
    p_to_json : sink -> plugin_state -> Json.t;
  }
end

(* Plugins attached to every subsequently created sink — how a parallel
   harness whose workers create their own sinks (lib/harness/suite.ml)
   gets the same plugin set on each of them without threading a list
   through every layer. Process-wide; set it before fanning out. *)
let auto_plugins : plugin_spec list Atomic.t = Atomic.make []
let set_auto_plugins specs = Atomic.set auto_plugins specs

let instance spec state ~finished =
  let mask =
    List.fold_left (fun m k -> m lor (1 lsl kind_index k)) 0 spec.p_kinds
  in
  { i_spec = spec; i_mask = mask; i_state = state; i_finished = finished }

(* Append an instance to the plugin list and to the subscriber list of
   each kind it reads. *)
let add_instance t i =
  t.plugins <- t.plugins @ [ i ];
  Array.iteri
    (fun ki subs ->
      if i.i_mask land (1 lsl ki) <> 0 then t.subscribers.(ki) <- subs @ [ i ])
    t.subscribers

let find_instance t name =
  List.find_opt (fun i -> i.i_spec.p_name = name) t.plugins

let attach t (spec : plugin_spec) =
  if Option.is_some (find_instance t spec.p_name) then
    invalid_arg ("Trace.attach: plugin already attached: " ^ spec.p_name);
  add_instance t (instance spec (spec.p_init ()) ~finished:false)

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive";
  let t =
    {
      counters = Array.make num_kinds 0;
      (* [Tlb_hit] is a constant constructor: a placeholder that
         allocates nothing; only the first [filled] slots are read *)
      ring = Array.make capacity Tlb_hit;
      slots = Array.make (3 * capacity) 0;
      capacity;
      head = 0;
      filled = 0;
      total = 0;
      violation_log = [];
      reload_interval = Histogram.create ();
      checks_at_last_reload = 0;
      attribution = Hashtbl.create 31;
      plugins = [];
      subscribers = Array.make num_kinds [];
      requested = [];
      hw_limit_checks = 0;
      hw_tlb_hits = 0;
      hw_tlb_misses = 0;
    }
  in
  List.iter (attach t) (Atomic.get auto_plugins);
  t

let plugin_names t = List.map (fun i -> i.i_spec.p_name) t.plugins

let plugin_json t =
  List.map
    (fun i -> (i.i_spec.p_name, i.i_spec.p_to_json t i.i_state))
    t.plugins

(* Run each plugin's end-of-run pass exactly once (idempotent): a
   plugin may only discover a violation once the event stream is known
   to be over — e.g. a failed limit check with no fault ever following. *)
let finish_plugins t =
  List.iter
    (fun i ->
      if not i.i_finished then begin
        i.i_finished <- true;
        i.i_spec.p_at_finish t i.i_state
      end)
    t.plugins

let count t kind = t.counters.(kind_index kind)

(* Move the ring's head past the slot just written, overwriting the
   oldest once full. *)
let[@inline] ring_advance t =
  let h = t.head + 1 in
  t.head <- (if h = t.capacity then 0 else h);
  if t.filled < t.capacity then t.filled <- t.filled + 1

(* Append one event to the ring as a boxed slot. *)
let ring_push t ev =
  t.ring.(t.head) <- ev;
  Array.unsafe_set t.slots (3 * t.head) 0;
  ring_advance t

(* The segment names of [limit_check]'s [seg] index, in the order of
   [Seghw.Segreg.name]. *)
let seg_names = [| "CS"; "SS"; "DS"; "ES"; "FS"; "GS" |]

(* A limit check's slot tag: bit 1 marks the kind (so the tag is never
   0 or 1), bits 2-3 [write] and [ok], bits 4-6 the segment index, and
   the access size above them. *)
let[@inline] limit_check_tag ~seg ~size ~write ~ok =
  2 lor (if write then 4 else 0) lor (if ok then 8 else 0) lor (seg lsl 4)
  lor (size lsl 7)

(* The event in ring slot [i], rebuilt from its ints when unboxed. *)
let slot_event t i =
  let s = 3 * i in
  match t.slots.(s) with
  | 0 -> t.ring.(i)
  | 1 -> Tlb_hit
  | tag ->
    Limit_check
      { seg = seg_names.((tag lsr 4) land 7); base = t.slots.(s + 1);
        offset = t.slots.(s + 2); size = tag asr 7; write = tag land 4 <> 0;
        ok = tag land 8 <> 0 }

let want_next t ~checker =
  match find_instance t checker with
  | Some i ->
    if not (List.memq i t.requested) then t.requested <- i :: t.requested
  | None -> invalid_arg ("Trace.want_next: plugin not attached: " ^ checker)

(* Top-level walks rather than [List.iter (fun i -> ...)]: that closure
   would capture the sink and the event, one allocation per emit. *)
let rec feed_plugins t ev = function
  | [] -> ()
  | i :: rest ->
    i.i_spec.p_on_event t i.i_state ev;
    feed_plugins t ev rest

(* The event after a [want_next]: every plugin, in attach order, that
   reads the event's kind ([bit]) or is among the requesters [req] —
   each once, so violations keep the order of a feed-everyone walk. *)
let rec feed_requested t ev bit req = function
  | [] -> ()
  | i :: rest ->
    if i.i_mask land bit <> 0 || List.memq i req then
      i.i_spec.p_on_event t i.i_state ev;
    feed_requested t ev bit req rest

(* Hand an event of kind index [ki], already counted and in the ring,
   to the plugins that read it. *)
let feed t ki ev =
  match t.requested with
  | [] -> feed_plugins t ev (Array.unsafe_get t.subscribers ki)
  | req ->
    (* Requests made while this event is fed are for the one after it. *)
    t.requested <- [];
    feed_requested t ev (1 lsl ki) req t.plugins

(* Whether any plugin would be fed an event of kind index [ki]. *)
let[@inline] wanted t ki =
  match t.requested with
  | [] -> (match Array.unsafe_get t.subscribers ki with [] -> false | _ -> true)
  | _ -> true

let emit t ev =
  let k = kind_of_event ev in
  let ki = kind_index k in
  t.counters.(ki) <- t.counters.(ki) + 1;
  (match ev with
   | Tlb_miss { evicted = true; _ } ->
     let e = kind_index K_tlb_evict in
     t.counters.(e) <- t.counters.(e) + 1
   | Segreg_load _ ->
     (* Reload-rate metric: how many limit checks ran since the previous
        segment-register load. *)
     let checks =
       t.counters.(kind_index K_limit_check_pass)
       + t.counters.(kind_index K_limit_check_fail)
     in
     Histogram.add t.reload_interval (checks - t.checks_at_last_reload);
     t.checks_at_last_reload <- checks
   | _ -> ());
  ring_push t ev;
  t.total <- t.total + 1;
  feed t ki ev

let ki_limit_check_pass = kind_index K_limit_check_pass
let ki_limit_check_fail = kind_index K_limit_check_fail
let ki_tlb_hit = kind_index K_tlb_hit

(* The two hot kinds: the same counter, ring and feed steps as [emit],
   with the ring slot written as ints and the event built only for a
   plugin that reads it. *)
let limit_check t ~seg ~base ~offset ~size ~write ~ok =
  let ki = if ok then ki_limit_check_pass else ki_limit_check_fail in
  Array.unsafe_set t.counters ki (Array.unsafe_get t.counters ki + 1);
  let s = 3 * t.head in
  Array.unsafe_set t.slots s (limit_check_tag ~seg ~size ~write ~ok);
  Array.unsafe_set t.slots (s + 1) base;
  Array.unsafe_set t.slots (s + 2) offset;
  ring_advance t;
  t.total <- t.total + 1;
  if wanted t ki then
    feed t ki
      (Limit_check { seg = seg_names.(seg); base; offset; size; write; ok })

let tlb_hit t =
  let ki = ki_tlb_hit in
  Array.unsafe_set t.counters ki (Array.unsafe_get t.counters ki + 1);
  Array.unsafe_set t.slots (3 * t.head) 1;
  ring_advance t;
  t.total <- t.total + 1;
  if wanted t ki then feed t ki Tlb_hit

let credit t ~limit_checks ~tlb_hits ~tlb_misses =
  t.hw_limit_checks <- t.hw_limit_checks + limit_checks;
  t.hw_tlb_hits <- t.hw_tlb_hits + tlb_hits;
  t.hw_tlb_misses <- t.hw_tlb_misses + tlb_misses

type tally = { limit_checks : int; tlb_hits : int; tlb_misses : int }

let tally t =
  { limit_checks = t.hw_limit_checks; tlb_hits = t.hw_tlb_hits;
    tlb_misses = t.hw_tlb_misses }

let counters t =
  List.filter_map
    (fun k ->
      let c = count t k in
      if c > 0 then Some (kind_name k, c) else None)
    all_kinds
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let events t =
  (* Oldest-first: the [filled] live slots end just before [head]. *)
  let acc = ref [] in
  for i = 1 to t.filled do
    acc := slot_event t ((t.head - i + t.capacity) mod t.capacity) :: !acc
  done;
  !acc

let total_events t = t.total
let dropped t = t.total - t.filled
let reload_interval t = t.reload_interval

let violation t ~checker msg =
  t.violation_log <- (checker, msg) :: t.violation_log

let violations t = List.rev t.violation_log

let add_attribution t sym ~insns ~cycles =
  match Hashtbl.find_opt t.attribution sym with
  | Some (i, c) ->
    i := !i + insns;
    c := !c + cycles
  | None -> Hashtbl.add t.attribution sym (ref insns, ref cycles)

let attributions t =
  Hashtbl.fold (fun sym (i, c) acc -> (sym, !i, !c) :: acc) t.attribution []
  |> List.sort (fun (na, _, ca) (nb, _, cb) ->
         match compare cb ca with 0 -> String.compare na nb | n -> n)

(* Fold one finished sink into another, for aggregating the per-job
   sinks of a parallel run after the barrier. Counters, the
   reload-interval histogram, attribution, the emitted-event totals and
   the hardware tally sum exactly; [src]'s surviving ring events and
   violations are appended after [into]'s in [src]-emission order, so
   merging per-job sinks in job order is deterministic. [into]'s
   plugins are NOT run on the merged events: merging is aggregation,
   not emission. Both sinks are expected to be quiescent (their runs
   finished) — the reload-interval boundary state is not carried over,
   so a sink that keeps emitting after being merged into would start a
   fresh interval. *)
let merge_into ~into src =
  Array.iteri
    (fun i c -> into.counters.(i) <- into.counters.(i) + c)
    src.counters;
  List.iter (ring_push into) (events src);
  into.total <- into.total + src.total;
  credit into ~limit_checks:src.hw_limit_checks ~tlb_hits:src.hw_tlb_hits
    ~tlb_misses:src.hw_tlb_misses;
  Histogram.merge_into ~into:into.reload_interval src.reload_interval;
  (* [violation_log] is newest-first; prepending the reversed oldest-first
     view keeps "into's violations, then src's" once re-reversed. *)
  into.violation_log <- List.rev_append (violations src) into.violation_log;
  Hashtbl.iter
    (fun sym (i, c) -> add_attribution into sym ~insns:!i ~cycles:!c)
    src.attribution;
  (* Plugin states fold by name: a plugin present on both sides merges
     src's state into into's (aggregation — [into]'s plugins are NOT
     re-run on the merged events); a plugin only on [src] moves across
     with its state. The fold happens after the ring append above, so a
     plugin cannot observe merged events as emissions. A pending
     next-event request moves to [into]'s instance of the plugin. *)
  List.iter
    (fun si ->
      let ii =
        match find_instance into si.i_spec.p_name with
        | Some ii ->
          ii.i_spec.p_merge ~into:ii.i_state si.i_state;
          ii
        | None ->
          let ii = instance si.i_spec si.i_state ~finished:si.i_finished in
          add_instance into ii;
          ii
      in
      if List.memq si src.requested && not (List.memq ii into.requested) then
        into.requested <- ii :: into.requested)
    src.plugins

(* --- pretty-printing ---------------------------------------------------- *)

let ldt_path_name = function
  | Slow_syscall -> "modify_ldt"
  | Call_gate -> "cash_modify_ldt"

let pp_event ppf = function
  | Segreg_load { reg; selector } ->
    Fmt.pf ppf "segreg_load %s <- 0x%04x" reg selector
  | Limit_check { seg; base; offset; size; write; ok } ->
    Fmt.pf ppf "limit_check %s base=0x%x offset=0x%x size=%d %s %s" seg base
      offset size
      (if write then "write" else "read")
      (if ok then "pass" else "FAIL")
  | Fault { detail; _ } -> Fmt.pf ppf "fault %s" detail
  | Tlb_hit -> Fmt.string ppf "tlb_hit"
  | Tlb_miss { page; evicted } ->
    Fmt.pf ppf "tlb_miss page=0x%x%s" page (if evicted then " (evict)" else "")
  | Ldt_update { path; index; cleared } ->
    Fmt.pf ppf "ldt_update via %s index=%d %s" (ldt_path_name path) index
      (if cleared then "clear" else "set")
  | Call_gate_entry { selector } ->
    Fmt.pf ppf "call_gate_entry 0x%04x" selector
  | Context_switch { pid } -> Fmt.pf ppf "context_switch pid=%d" pid
  | Btable_load { key; hit } ->
    Fmt.pf ppf "btable_load key=0x%x %s" key (if hit then "hit" else "MISS")
  | Cap_tag_clear { value; lower; upper } ->
    Fmt.pf ppf "cap_tag_clear value=0x%x bounds=[0x%x,0x%x]" value lower upper

let json_of_event ev : Json.t =
  match ev with
  | Segreg_load { reg; selector } ->
    Json.Obj
      [ ("event", Json.Str "segreg_load"); ("reg", Json.Str reg);
        ("selector", Json.Int selector) ]
  | Limit_check { seg; base; offset; size; write; ok } ->
    Json.Obj
      [ ("event", Json.Str "limit_check"); ("seg", Json.Str seg);
        ("base", Json.Int base); ("offset", Json.Int offset);
        ("size", Json.Int size); ("write", Json.Bool write);
        ("ok", Json.Bool ok) ]
  | Fault { cls; detail; address; selector } ->
    let cls_name =
      match cls with
      | `Gp -> "gp" | `Ss -> "ss" | `Pf -> "pf"
      | `Np -> "np" | `Ud -> "ud" | `Br -> "br"
    in
    Json.Obj
      [ ("event", Json.Str "fault"); ("class", Json.Str cls_name);
        ("detail", Json.Str detail);
        ("address",
         match address with Some a -> Json.Int a | None -> Json.Null);
        ("selector",
         match selector with Some s -> Json.Int s | None -> Json.Null) ]
  | Tlb_hit -> Json.Obj [ ("event", Json.Str "tlb_hit") ]
  | Tlb_miss { page; evicted } ->
    Json.Obj
      [ ("event", Json.Str "tlb_miss"); ("page", Json.Int page);
        ("evicted", Json.Bool evicted) ]
  | Ldt_update { path; index; cleared } ->
    Json.Obj
      [ ("event", Json.Str "ldt_update");
        ("path", Json.Str (ldt_path_name path)); ("index", Json.Int index);
        ("cleared", Json.Bool cleared) ]
  | Call_gate_entry { selector } ->
    Json.Obj
      [ ("event", Json.Str "call_gate_entry"); ("selector", Json.Int selector) ]
  | Context_switch { pid } ->
    Json.Obj [ ("event", Json.Str "context_switch"); ("pid", Json.Int pid) ]
  | Btable_load { key; hit } ->
    Json.Obj
      [ ("event", Json.Str "btable_load"); ("key", Json.Int key);
        ("hit", Json.Bool hit) ]
  | Cap_tag_clear { value; lower; upper } ->
    Json.Obj
      [ ("event", Json.Str "cap_tag_clear"); ("value", Json.Int value);
        ("lower", Json.Int lower); ("upper", Json.Int upper) ]

let to_json t : Json.t =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) (counters t)));
      ( "attribution",
        Json.List
          (List.map
             (fun (sym, insns, cycles) ->
               Json.Obj
                 [ ("symbol", Json.Str sym); ("insns", Json.Int insns);
                   ("cycles", Json.Int cycles) ])
             (attributions t)) );
      ( "reload_interval",
        Json.List
          (List.map
             (fun (lo, n) ->
               Json.Obj [ ("ge", Json.Int lo); ("count", Json.Int n) ])
             (Histogram.buckets t.reload_interval)) );
      ( "violations",
        Json.List
          (List.map
             (fun (checker, msg) ->
               Json.Obj
                 [ ("checker", Json.Str checker); ("message", Json.Str msg) ])
             (violations t)) );
      ("plugins", Json.Obj (plugin_json t));
      ("events_total", Json.Int t.total);
      ("events_dropped", Json.Int (dropped t));
      ("events", Json.List (List.map json_of_event (events t)));
    ]
