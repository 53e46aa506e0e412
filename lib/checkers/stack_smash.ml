(* Stack-smash detector.

   §5 of the paper argues segment limits stop stack-smashing attacks:
   an overrun of a stack-resident buffer cannot reach the saved return
   address, because the buffer's segment ends before it. This plugin
   watches the stack from the event stream:

   - every [Limit_check] through SS grows the observed stack window
     (linear [base+offset .. base+offset+size)), so the plugin learns
     where the live stack is without any OS cooperation;
   - a FAILING WRITE check whose segment base lies inside that window
     is a smash attempt: an overrun of a stack-resident object heading
     for adjacent frames. The hardware must answer it with a
     protection fault (#GP through the object's segment, #SS through
     SS itself) — a smash attempt the machine survives un-faulted is a
     violation;
   - stats: stack writes, the window extent, attempts seen/stopped.

   A failing write through a DATA-region segment is deliberately out of
   scope (that is bounds_precision's generic pairing); this plugin's
   value is the classification: it tells a smash attempt apart from an
   ordinary heap/global overrun by where the segment lives.

   The plugin reads limit checks, passing and failing; an attempt asks
   the sink for the next event whatever its kind ([Trace.want_next]),
   the one that must be its fault. *)

type state = {
  mutable ss_lo : int;       (* observed stack window, linear [lo, hi) *)
  mutable ss_hi : int;       (* lo > hi <=> nothing observed yet *)
  mutable ss_writes : int;
  mutable pending : bool;    (* smash attempt awaiting its fault *)
  mutable attempts : int;
  mutable stopped : int;
}

type Trace.plugin_state += S of state

let get = function S s -> s | _ -> assert false

let name = "stack_smash"

let in_window s addr = s.ss_lo <= s.ss_hi && addr >= s.ss_lo && addr <= s.ss_hi

let on_event sink st ev =
  let s = get st in
  match ev with
  | Trace.Limit_check { seg = "SS"; base; offset; size; write; ok } ->
    let lo = base + offset in
    let hi = lo + size in
    if s.ss_lo > s.ss_hi then begin
      s.ss_lo <- lo;
      s.ss_hi <- hi
    end
    else begin
      if lo < s.ss_lo then s.ss_lo <- lo;
      if hi > s.ss_hi then s.ss_hi <- hi
    end;
    if write then s.ss_writes <- s.ss_writes + 1;
    if (not ok) && write then begin
      s.attempts <- s.attempts + 1;
      s.pending <- true;
      Trace.want_next sink ~checker:name
    end
  | Trace.Limit_check { base; write = true; ok = false; _ }
    when in_window s base ->
    (* overrun of a stack-resident object through its own segment *)
    s.attempts <- s.attempts + 1;
    s.pending <- true;
    Trace.want_next sink ~checker:name
  | Trace.Fault { cls = (`Gp | `Ss); _ } when s.pending ->
    s.stopped <- s.stopped + 1;
    s.pending <- false
  | _ ->
    if s.pending then begin
      Trace.violation sink ~checker:name
        "stack-smash attempt not stopped by a protection fault";
      s.pending <- false
    end

let at_finish sink st =
  let s = get st in
  if s.pending then begin
    Trace.violation sink ~checker:name
      "stream ended with an unstopped stack-smash attempt";
    s.pending <- false
  end

let merge ~into src =
  let i = get into and s = get src in
  if s.ss_lo <= s.ss_hi then
    if i.ss_lo > i.ss_hi then begin
      i.ss_lo <- s.ss_lo;
      i.ss_hi <- s.ss_hi
    end
    else begin
      if s.ss_lo < i.ss_lo then i.ss_lo <- s.ss_lo;
      if s.ss_hi > i.ss_hi then i.ss_hi <- s.ss_hi
    end;
  i.ss_writes <- i.ss_writes + s.ss_writes;
  i.attempts <- i.attempts + s.attempts;
  i.stopped <- i.stopped + s.stopped;
  i.pending <- i.pending || s.pending

let to_json _sink st =
  let s = get st in
  Trace.Json.Obj
    [ ("stack_writes", Trace.Json.Int s.ss_writes);
      ( "stack_window_bytes",
        Trace.Json.Int (if s.ss_lo > s.ss_hi then 0 else s.ss_hi - s.ss_lo) );
      ("smash_attempts", Trace.Json.Int s.attempts);
      ("smash_stopped", Trace.Json.Int s.stopped) ]

let spec : Trace.Plugin.spec =
  {
    p_name = name;
    p_doc =
      "failing writes into the live stack region must be stopped by a \
       protection fault";
    p_kinds = [ Trace.K_limit_check_pass; Trace.K_limit_check_fail ];
    p_init =
      (fun () ->
        S
          {
            ss_lo = 1;
            ss_hi = 0;
            ss_writes = 0;
            pending = false;
            attempts = 0;
            stopped = 0;
          });
    p_on_event = on_event;
    p_at_finish = at_finish;
    p_merge = merge;
    p_to_json = to_json;
  }
