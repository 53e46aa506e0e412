(* Dangling-LDT-slot reuse detector.

   Cash gives every live array a descriptor in the LDT and clears the
   slot when the array is freed; a segment register loaded from a
   cleared slot is the hardware-level image of a dangling pointer
   dereference (the very next access would fault on the invalid
   descriptor — or worse, on a RECYCLED descriptor now bounding someone
   else's array, it would NOT fault and the use-after-free reads the
   wrong object silently). The plugin replays the LDT lifecycle from
   [Ldt_update] events:

   - [cleared = true]  -> the slot is dangling;
   - [cleared = false] -> the slot is live again (legitimate reuse);
   - a [Segreg_load] whose selector has TI = 1 (an LDT selector,
     bit 2 set) and whose index is currently dangling is a violation.

   Slots never seen in an [Ldt_update] (e.g. set up by the loader
   before tracing was attached) are left unjudged. *)

type slot = Live | Dangling

type state = {
  slots : (int, slot) Hashtbl.t;
  mutable ldt_loads : int;
  mutable clears : int;
  mutable sets : int;
  mutable reuses : int;
}

type Trace.plugin_state += S of state

let get = function S s -> s | _ -> assert false

let name = "ldt_reuse"

let on_event sink st ev =
  let s = get st in
  match ev with
  | Trace.Ldt_update { index; cleared; _ } ->
    if cleared then begin
      s.clears <- s.clears + 1;
      Hashtbl.replace s.slots index Dangling
    end
    else begin
      s.sets <- s.sets + 1;
      Hashtbl.replace s.slots index Live
    end
  | Trace.Segreg_load { reg; selector } when selector land 4 <> 0 ->
    s.ldt_loads <- s.ldt_loads + 1;
    let index = selector lsr 3 in
    (match Hashtbl.find_opt s.slots index with
     | Some Dangling ->
       s.reuses <- s.reuses + 1;
       Trace.violation sink ~checker:name
         (Printf.sprintf
            "%s loaded selector 0x%04x from LDT slot %d after it was cleared"
            reg selector index)
     | Some Live | None -> ())
  | _ -> ()

let at_finish _sink _st = ()

let merge ~into src =
  let i = get into and s = get src in
  (* Slot states from different jobs describe different machines; the
     union (src wins on collision) keeps the table meaningful for the
     single-machine case and harmless for aggregates — violations were
     already recorded at emission time on the worker sink. *)
  Hashtbl.iter (fun k v -> Hashtbl.replace i.slots k v) s.slots;
  i.ldt_loads <- i.ldt_loads + s.ldt_loads;
  i.clears <- i.clears + s.clears;
  i.sets <- i.sets + s.sets;
  i.reuses <- i.reuses + s.reuses

let to_json _sink st =
  let s = get st in
  Trace.Json.Obj
    [ ("ldt_selector_loads", Trace.Json.Int s.ldt_loads);
      ("slot_sets", Trace.Json.Int s.sets);
      ("slot_clears", Trace.Json.Int s.clears);
      ("dangling_reuses", Trace.Json.Int s.reuses) ]

let spec : Trace.Plugin.spec =
  {
    p_name = name;
    p_kinds =
      [ Trace.K_segreg_load; Trace.K_modify_ldt; Trace.K_cash_modify_ldt ];
    p_init =
      (fun () ->
        S
          {
            slots = Hashtbl.create 61;
            ldt_loads = 0;
            clears = 0;
            sets = 0;
            reuses = 0;
          });
    p_on_event = on_event;
    p_at_finish = at_finish;
    p_merge = merge;
    p_to_json = to_json;
  }
