(* Fault/counter consistency cross-check.

   The sink's per-kind counters and the plugin layer see the same
   stream through different code paths (counters are bumped inline in
   [Trace.emit]; plugins are fed afterwards; [Trace.merge_into] sums
   the two independently). This plugin recounts every event kind it
   reads and, at finish, diffs its books against the sink's — any
   drift means an emit/merge path bumped one side and not the other.

   It reads every kind except the two hot ones, [limit_check.pass] and
   [tlb.hit]. Those it checks against the hardware tally instead
   ([Trace.tally]): the MMU's and the TLB's own counts, which the CPU
   credits to its sink and which the hardware model keeps on the
   untraced path too. That check is stronger than a recount of
   delivered events. A recount only sees what [emit] hands it, so an
   emit site that never emits — a fast path that accounts a TLB hit
   without emitting one — goes unseen; the hardware's own count does
   not. At finish:

   - [limit_check.pass + limit_check.fail] = the tallied limit checks;
   - [tlb.hit] = the tallied TLB hits, [tlb.miss] = the tallied misses.

   On top of the identities it pins the aggregate fault discipline the
   paper's precision argument rests on:

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

let hot = function
  | Trace.K_limit_check_pass | Trace.K_tlb_hit -> true
  | _ -> false

let kinds = List.filter (fun k -> not (hot k)) Trace.all_kinds

let bump s kind =
  let i = Trace.kind_index kind in
  s.counts.(i) <- s.counts.(i) + 1

let seen s kind = s.counts.(Trace.kind_index kind)

let on_event _sink st ev =
  let kind = Trace.kind_of_event ev in
  if not (hot kind) then begin
    let s = get st in
    bump s kind;
    match ev with
    | Trace.Tlb_miss { evicted = true; _ } -> bump s Trace.K_tlb_evict
    | _ -> ()
  end

let at_finish sink st =
  let s = get st in
  let mismatch what counter hw =
    if counter <> hw then
      Trace.violation sink ~checker:name
        (Printf.sprintf "counter %s = %d but the hardware counted %d" what
           counter hw)
  in
  List.iter
    (fun kind ->
      let own = seen s kind and counter = Trace.count sink kind in
      if own <> counter then
        Trace.violation sink ~checker:name
          (Printf.sprintf "counter %s = %d but %d events were delivered"
             (Trace.kind_name kind) counter own))
    kinds;
  let hw = Trace.tally sink in
  mismatch "limit_check.pass + limit_check.fail"
    (Trace.count sink Trace.K_limit_check_pass
     + Trace.count sink Trace.K_limit_check_fail)
    hw.Trace.limit_checks;
  mismatch "tlb.hit" (Trace.count sink Trace.K_tlb_hit) hw.Trace.tlb_hits;
  mismatch "tlb.miss" (Trace.count sink Trace.K_tlb_miss) hw.Trace.tlb_misses;
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

(* Only the kinds seen at least once, sorted by name; the two hot rows
   are the hardware's counts. *)
let to_json sink st =
  let s = get st in
  let hw = Trace.tally sink in
  let row = function
    | Trace.K_limit_check_pass ->
      hw.Trace.limit_checks - seen s Trace.K_limit_check_fail
    | Trace.K_tlb_hit -> hw.Trace.tlb_hits
    | kind -> seen s kind
  in
  let entries =
    List.filter_map
      (fun kind ->
        let c = row kind in
        if c > 0 then Some (Trace.kind_name kind, Trace.Json.Int c) else None)
      Trace.all_kinds
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Trace.Json.Obj [ ("events_seen", Trace.Json.Obj entries) ]

let spec : Trace.Plugin.spec =
  {
    p_name = name;
    p_kinds = kinds;
    p_init = (fun () -> S { counts = Array.make Trace.num_kinds 0 });
    p_on_event = on_event;
    p_at_finish = at_finish;
    p_merge = merge;
    p_to_json = to_json;
  }
