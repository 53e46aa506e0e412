(* What every workload shares: timing, percentiles, the measured-pass
   loop, the end-to-end metrics, and snapshots of the process-wide
   counters the libraries already keep. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let ratio a b = if b = 0. then 0. else a /. b
let fratio a b = ratio (float_of_int a) (float_of_int b)

(* Nearest-rank percentile, the rule Serve.Server uses for its summary. *)
let percentile p values =
  match List.sort compare values with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median values = percentile 50. values

(* Set up [reps] times from scratch and keep the last state: set-up time
   is reported as the median of the repetitions, so one slow repetition
   does not move it. With [correct] (the default) each repetition is
   timed in reference seconds (see Host). *)
let setup ?(reps = 9) ?(correct = true) f =
  let runs =
    List.init reps (fun _ ->
        if correct then Host.measured f
        else
          let state, dt = time f in
          (state, dt, 1.))
  in
  let state, _, _ = List.nth runs (reps - 1) in
  (state, median (List.map (fun (_, raw, k) -> raw *. k) runs))

(* One measured pass over a workload's fixed unit of work. [wall] counts
   only the time spent inside calls into the system under test, never
   the client's own input generation or output checking. When [passes]
   corrects, it returns it, and the latencies, in reference seconds (see
   Host). *)
type pass = {
  wall : float;
  insns : int;  (* simulated instructions retired during the calls *)
  items : int;  (* requests, programs, experiments or matrix cells *)
  lats_ms : float list;  (* client-side latency of each item *)
  attempted : int;
  failed : int;
}

(* A pass with its times scaled by the host factor [k]. *)
let scale k p =
  { p with wall = p.wall *. k; lats_ms = List.map (fun l -> l *. k) p.lats_ms }

(* Run passes until [seconds] of measured host time have accumulated
   and at least [min_passes] ran. A workload whose unit is longer than
   [seconds] therefore measures exactly [min_passes] units. Every pass
   starts from a collected heap, so one pass's garbage is not charged
   to the next one's time or to the heap peak. With [correct] (the
   default) each pass runs between two calibration bursts and its times
   are scaled to reference seconds (see Host); a workload that corrects
   finer pieces of its pass itself passes [~correct:false]. *)
let passes ?(correct = true) ~seconds ~min_passes f =
  let rec go i acc factors total =
    if i >= min_passes && total >= seconds then begin
      let show l = String.concat "" (List.rev_map (Printf.sprintf " %.3f") l) in
      Printf.printf "pass walls (%s s):%s\n"
        (if correct then "reference" else "host")
        (show (List.map (fun p -> p.wall) acc));
      if correct then Printf.printf "host factors:%s\n" (show factors);
      List.rev acc
    end
    else
      let () = Gc.full_major () in
      if correct then
        let p, _, k = Host.measured (fun () -> f i) in
        go (i + 1) (scale k p :: acc) (k :: factors) (total +. p.wall)
      else
        let p = f i in
        go (i + 1) (p :: acc) factors (total +. p.wall)
  in
  go 0 [] [] 0.

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let fsum f l = List.fold_left (fun acc x -> acc +. f x) 0. l

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* The end-to-end metrics of an untraced run. Read right after the last
   pass, before any checking allocates, so the heap peak is the
   measured phase's (set-up included, since it ran first). *)
let end_to_end ~setup_s passes =
  let wall = fsum (fun p -> p.wall) passes in
  let insns = sum (fun p -> p.insns) passes in
  let items = sum (fun p -> p.items) passes in
  let lats = List.concat_map (fun p -> p.lats_ms) passes in
  [ ("setup_s", setup_s);
    ("wall_s", median (List.map (fun p -> p.wall) passes));
    ("sim_mips", ratio (float_of_int insns) wall /. 1e6);
    ("items_per_s", ratio (float_of_int items) wall);
    ("item_p50_ms", percentile 50. lats);
    ("item_p90_ms", percentile 90. lats);
    ("peak_heap_mb", peak_heap_mb ()) ]

(* --- process-wide counters ---------------------------------------------- *)

type cpu = {
  retired : int;
  built : int;
  bound : int;
  block_insns : int;
  chains : int;
  chain_insns : int;
  compile_s : float;
  cache_hits : int;
  cache_misses : int;
  minor : float;
  major : float;
  major_collections : int;
}

(* Gc.quick_stat folds in the counts of domains that have terminated, so
   after a Parallel.run_jobs barrier it covers every worker. *)
let counters () =
  let hits, misses = Core.compile_cache_stats () in
  let gc = Gc.quick_stat () in
  { retired = Machine.Cpu.total_retired ();
    built = Machine.Cpu.blocks_built ();
    bound = Machine.Cpu.blocks_bound ();
    block_insns = Machine.Cpu.block_insns_compiled ();
    chains = Machine.Cpu.chains_built ();
    chain_insns = Machine.Cpu.chain_insns_linked ();
    compile_s = Core.compile_seconds ();
    cache_hits = hits;
    cache_misses = misses;
    minor = gc.Gc.minor_words;
    major = gc.Gc.major_words;
    major_collections = gc.Gc.major_collections }

(* Counter deltas over one pass, as per-layer metrics. *)
let counter_metrics ~wall a b =
  let built = b.built - a.built and bound = b.bound - a.bound in
  let chains = b.chains - a.chains in
  let hits = b.cache_hits - a.cache_hits in
  let misses = b.cache_misses - a.cache_misses in
  let compile_s = b.compile_s -. a.compile_s in
  [ ("machine.insns", float_of_int (b.retired - a.retired));
    ("machine.blocks_built", float_of_int built);
    ("machine.blocks_bound", float_of_int bound);
    ("machine.block_reuse_ratio", fratio bound (built + bound));
    ("machine.avg_block_len", fratio (b.block_insns - a.block_insns) built);
    ("machine.chains_built", float_of_int chains);
    ("machine.avg_chain_insns", fratio (b.chain_insns - a.chain_insns) chains);
    ("core.compile.s", compile_s);
    ("core.compile.share", ratio compile_s wall);
    ("core.compile_cache.hits", float_of_int hits);
    ("core.compile_cache.misses", float_of_int misses);
    ("core.compile_cache.hit_ratio", fratio hits (hits + misses));
    ("gc.minor_words", b.minor -. a.minor);
    ("gc.major_words", b.major -. a.major);
    ("gc.major_collections",
     float_of_int (b.major_collections - a.major_collections)) ]

(* --- simulated hardware, from a sink -------------------------------------- *)

let sink_metrics sink =
  let c k = Trace.count sink k in
  let f k = float_of_int (c k) in
  let hits = c Trace.K_tlb_hit and misses = c Trace.K_tlb_miss in
  [ ("seghw.limit_checks",
     float_of_int (c Trace.K_limit_check_pass + c Trace.K_limit_check_fail));
    ("seghw.limit_faults", f Trace.K_limit_check_fail);
    ("seghw.segreg_loads", f Trace.K_segreg_load);
    ("seghw.tlb_hits", float_of_int hits);
    ("seghw.tlb_misses", float_of_int misses);
    ("seghw.tlb_miss_ratio", fratio misses (hits + misses));
    ("seghw.btable_hits", f Trace.K_btable_hit);
    ("seghw.btable_misses", f Trace.K_btable_miss);
    ("seghw.cap_tag_clears", f Trace.K_cap_tag_clear);
    ("osim.modify_ldt",
     float_of_int (c Trace.K_modify_ldt + c Trace.K_cash_modify_ldt));
    ("osim.call_gate_entries", f Trace.K_call_gate_entry);
    ("osim.context_switches", f Trace.K_context_switch);
    ("trace.events", float_of_int (Trace.total_events sink)) ]

(* What a replay keeps of one simulated run. A [Core.run] holds its whole
   simulated process, megabytes each, so replays keep only this. *)
type outcome = {
  cycles : int;
  finished : bool;
  seg_hits : int;  (* Cash runtime segment cache; 0 for other backends *)
  seg_misses : int;
  seg_allocs : int;
  fallbacks : int;
}

let outcome (r : Core.run) =
  let cycles = r.Core.cycles and finished = r.Core.status = Core.Finished in
  match r.Core.runtime with
  | None ->
    { cycles; finished; seg_hits = 0; seg_misses = 0; seg_allocs = 0;
      fallbacks = 0 }
  | Some rt ->
    let cache = Cashrt.Runtime.cache rt and st = Cashrt.Runtime.stats rt in
    { cycles; finished;
      seg_hits = Cashrt.Seg_cache.hits cache;
      seg_misses = Cashrt.Seg_cache.misses cache;
      seg_allocs = st.Cashrt.Runtime.seg_allocs;
      fallbacks = st.Cashrt.Runtime.global_fallbacks }

let cycles_digest outcomes =
  Digest.to_hex
    (Digest.string
       (String.concat "," (List.map (fun o -> string_of_int o.cycles) outcomes)))

let counters_digest sink =
  Digest.to_hex
    (Digest.string
       (String.concat ";"
          (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
             (Trace.counters sink))))

(* The Cash runtime's segment bookkeeping, summed over a replay. *)
let cashrt_metrics outcomes =
  let total f = sum f outcomes in
  let hits = total (fun o -> o.seg_hits) in
  [ ("cashrt.seg_cache_hit_ratio",
     fratio hits (hits + total (fun o -> o.seg_misses)));
    ("cashrt.seg_allocs", float_of_int (total (fun o -> o.seg_allocs)));
    ("cashrt.global_fallbacks", float_of_int (total (fun o -> o.fallbacks))) ]

(* Simulated-cycle overhead of Cash over the unchecked baseline, over
   (gcc cycles, cash cycles) pairs of programs that ran under both. *)
let cash_overhead_pct pairs =
  let gcc = sum fst pairs and cash = sum snd pairs in
  if gcc = 0 then 0. else Harness.Report.overhead ~base:gcc cash

(* --- the determinism guard ---------------------------------------------- *)

(* Simulated quantities must repeat exactly between two passes over the
   same inputs; a mismatch is reported and fails the run. *)
let guard_failures = ref []

let guard what a b =
  if a <> b then begin
    Printf.printf "determinism guard: %s differs between passes (%s vs %s)\n"
      what a b;
    guard_failures := what :: !guard_failures
  end

let guard_int what a b = guard what (string_of_int a) (string_of_int b)

(* --- the traced run's derived metrics ------------------------------------ *)

(* Entry points that hide their layers: their self time is time the
   trace cannot attribute to a layer. *)
let entry_spans = [ "harness.suite"; "serve.batch" ]

(* Layer metrics read from the spans of a traced run. [Parser.parse_program]
   lexes its input itself, so the parse layer is its span minus the
   separately timed scan of the same sources. *)
let span_metrics ~traced_wall =
  let s = Spans.self_seconds and mw = Spans.minor_words in
  let attributed =
    Spans.attributed ~layer:(fun n -> not (List.mem n entry_spans))
  in
  [ ("minic.lex.s", s "minic.lex");
    ("minic.parse.s", Float.max 0. (s "minic.parse" -. s "minic.lex"));
    ("minic.typecheck.s", s "minic.typecheck");
    ("compilers.codegen.s", s "compilers.codegen");
    ("minic.lex.minor_words", mw "minic.lex");
    ("minic.parse.minor_words",
     Float.max 0. (mw "minic.parse" -. mw "minic.lex"));
    ("minic.typecheck.minor_words", mw "minic.typecheck");
    ("compilers.codegen.minor_words", mw "compilers.codegen");
    ("osim.load.s", s "osim.load");
    ("machine.exec.s", s "machine.exec");
    ("unattributed_share",
     Float.max 0. (1. -. ratio attributed traced_wall)) ]
