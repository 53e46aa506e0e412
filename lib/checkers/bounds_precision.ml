(* Bounds-precision cross-check.

   The paper's central claim is that a segment-limit check is *precise*:
   the moment an access fails the check, the processor faults — nothing
   retires in between, and the run cannot continue past it un-faulted.
   This plugin pins that as an event-stream invariant:

   - a [Limit_check ~ok:false] must be followed IMMEDIATELY by a
     [Fault] event (nothing — not even a TLB probe — may intervene:
     a failed check never reaches translation);
   - that fault must be a protection fault (#GP or #SS), the two
     classes the segmentation hardware reports limit violations
     through;
   - a stream may not end with a failed check still pending.

   The one-per-fault discipline is pinned elsewhere (test_trace.ml);
   here we pin the pairing. Stats: checks passed (the sink's own
   counter), failures, and how many failures the hardware stopped.

   The plugin reads only failed checks. A failure asks the sink for the
   next event whatever its kind ([Trace.want_next]), which is the only
   event the pairing judges, so the passing checks and TLB hits of a
   clean run never reach it. *)

type state = {
  mutable pending : bool;  (* failed check seen, fault must be next *)
  mutable fails : int;
  mutable stopped : int;   (* fails answered by #GP/#SS *)
}

type Trace.plugin_state += S of state

let get = function S s -> s | _ -> assert false

let name = "bounds_precision"

let on_event sink st ev =
  let s = get st in
  match ev with
  | Trace.Limit_check { ok = true; _ } ->
    if s.pending then begin
      Trace.violation sink ~checker:name
        "limit check executed after a failed check with no intervening fault";
      s.pending <- false
    end
  | Trace.Limit_check { ok = false; _ } ->
    if s.pending then
      Trace.violation sink ~checker:name
        "second failed limit check with no intervening fault";
    s.fails <- s.fails + 1;
    s.pending <- true;
    Trace.want_next sink ~checker:name
  | Trace.Fault { cls = (`Gp | `Ss); _ } when s.pending ->
    s.stopped <- s.stopped + 1;
    s.pending <- false
  | Trace.Fault { cls; _ } when s.pending ->
    let cls_name =
      match cls with
      | `Pf -> "#PF" | `Np -> "#NP" | `Ud -> "#UD" | `Br -> "#BR"
      | `Gp | `Ss -> assert false
    in
    Trace.violation sink ~checker:name
      (Printf.sprintf
         "failed limit check resolved by %s, not a protection fault" cls_name);
    s.pending <- false
  | _ ->
    if s.pending then begin
      Trace.violation sink ~checker:name
        "event between a failed limit check and its fault";
      s.pending <- false
    end

let at_finish sink st =
  let s = get st in
  if s.pending then begin
    Trace.violation sink ~checker:name
      "stream ended with a failed limit check and no fault";
    s.pending <- false
  end

let merge ~into src =
  let i = get into and s = get src in
  i.fails <- i.fails + s.fails;
  i.stopped <- i.stopped + s.stopped;
  i.pending <- i.pending || s.pending

let to_json sink st =
  let s = get st in
  Trace.Json.Obj
    [ ( "checks_passed",
        Trace.Json.Int (Trace.count sink Trace.K_limit_check_pass) );
      ("checks_failed", Trace.Json.Int s.fails);
      ("stopped_by_fault", Trace.Json.Int s.stopped) ]

let spec : Trace.Plugin.spec =
  {
    p_name = name;
    p_doc =
      "every failed segment-limit check is immediately answered by a \
       #GP/#SS fault";
    p_kinds = [ Trace.K_limit_check_fail ];
    p_init = (fun () -> S { pending = false; fails = 0; stopped = 0 });
    p_on_event = on_event;
    p_at_finish = at_finish;
    p_merge = merge;
    p_to_json = to_json;
  }
