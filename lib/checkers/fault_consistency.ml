(* Fault/counter consistency cross-check.

   The sink's per-kind counters and the plugin layer see the same
   stream through different code paths (counters are bumped inline in
   [Trace.emit]; plugins are fed afterwards; [Trace.merge_into] sums
   the two independently). This plugin recounts every event kind for
   itself and, at finish, diffs its books against the sink's — any
   drift means an emit/merge path bumped one side and not the other.

   On top of the per-kind identity it pins the aggregate fault
   discipline the paper's precision argument rests on:

   - every failed limit check faults, so
       fails <= #GP + #SS faults
     (protection faults also arise from non-limit causes — null
     selector loads, privilege, not-writable — so equality is not
     required);
   - an evicting TLB miss bumps both the miss and evict counters, so
       evicts <= misses. *)

type state = {
  counts : int array;  (* events seen, indexed by Trace.kind_index *)
}

type Trace.plugin_state += S of state

let get = function S s -> s | _ -> assert false

let name = "fault_consistency"

let bump s kind =
  let i = Trace.kind_index kind in
  s.counts.(i) <- s.counts.(i) + 1

let seen s kind = s.counts.(Trace.kind_index kind)

let on_event _sink st ev =
  let s = get st in
  bump s (Trace.kind_of_event ev);
  match ev with
  | Trace.Tlb_miss { evicted = true; _ } -> bump s Trace.K_tlb_evict
  | _ -> ()

let at_finish sink st =
  let s = get st in
  List.iter
    (fun kind ->
      let own = seen s kind and counter = Trace.count sink kind in
      if own <> counter then
        Trace.violation sink ~checker:name
          (Printf.sprintf "counter %s = %d but %d events were delivered"
             (Trace.kind_name kind) counter own))
    Trace.all_kinds;
  let fails = seen s Trace.K_limit_check_fail in
  let prot = seen s Trace.K_fault_gp + seen s Trace.K_fault_ss in
  if fails > prot then
    Trace.violation sink ~checker:name
      (Printf.sprintf
         "%d failed limit checks but only %d protection faults" fails prot);
  let evicts = seen s Trace.K_tlb_evict
  and misses = seen s Trace.K_tlb_miss in
  if evicts > misses then
    Trace.violation sink ~checker:name
      (Printf.sprintf "%d TLB evictions exceed %d misses" evicts misses)

let merge ~into src =
  let i = get into and s = get src in
  Array.iteri (fun k c -> i.counts.(k) <- i.counts.(k) + c) s.counts

(* Only the kinds seen at least once, sorted by name. *)
let to_json st =
  let s = get st in
  let entries =
    List.filter_map
      (fun kind ->
        let c = seen s kind in
        if c > 0 then Some (Trace.kind_name kind, Trace.Json.Int c) else None)
      Trace.all_kinds
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Trace.Json.Obj [ ("events_seen", Trace.Json.Obj entries) ]

let spec : Trace.Plugin.spec =
  {
    p_name = name;
    p_doc =
      "sink counters match delivered events; failed checks never exceed \
       protection faults";
    p_init = (fun () -> S { counts = Array.make Trace.num_kinds 0 });
    p_on_event = on_event;
    p_at_finish = at_finish;
    p_merge = merge;
    p_to_json = to_json;
  }
