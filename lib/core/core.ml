(* Cash: checking array bound violations using (simulated) segmentation
   hardware — the public API.

   This facade ties the whole pipeline together:

     mini-C source
       --[Minic.Typecheck]--> typed IR
       --[Compilers.Codegen]--> machine program (per backend)
       --[Osim.Process + Cashrt.Runtime]--> simulated execution

   Typical use:

     let r = Core.compile Core.cash "int main() { ... }" in
     let run = Core.run r in
     assert (run.Core.status = Core.Finished);
     print_string run.Core.output

   The three backends of the paper are [gcc] (no checking), [bcc]
   (software checking, fat pointers) and [cash] (segmentation-hardware
   checking). [cash_n 2] and [cash_n 4] give the 2- and 4-segment-register
   configurations of §4.2/§3.7. *)

type backend = Compilers.Backend.kind

let gcc : backend = Compilers.Backend.Gcc
let bcc : backend = Compilers.Backend.Bcc Compilers.Backend.bcc_default

(* §2's BOUND-instruction variant of the software checker. *)
let bcc_bound : backend =
  Compilers.Backend.Bcc Compilers.Backend.bcc_bound_insn
let cash : backend = Compilers.Backend.Cash Compilers.Backend.cash_default

(* §3.8's security-only deployment: writes are checked, reads are not;
   read-only arrays stop consuming segment registers. *)
let cash_security : backend =
  Compilers.Backend.Cash Compilers.Backend.cash_security_only

let cash_n = function
  | 2 -> Compilers.Backend.Cash Compilers.Backend.cash_two_regs
  | 3 -> cash
  | 4 -> Compilers.Backend.Cash Compilers.Backend.cash_four_regs
  | n -> invalid_arg (Printf.sprintf "cash_n: no %d-register configuration" n)

(* MPX-style bounds-register checking: 1-word pointers, BND0-3, bounds
   spilled through the two-level bound table. *)
let mpx : backend = Compilers.Backend.Mpx Compilers.Backend.mpx_default

(* Capability checking: 2-word tagged base+length pointers, every
   dereference validated in hardware. *)
let cap : backend = Compilers.Backend.Cap Compilers.Backend.cap_default

let backend_name = Compilers.Backend.name

type compiled = Compilers.Codegen.result

(* Cumulative wall time spent inside [compile] (lex + parse + typecheck
   + codegen), in nanoseconds, summed across domains. The fuzzing fleet
   reads the delta across a run to split compile time from check time;
   a cache hit in [compile_cached] adds nothing (nothing was
   compiled). *)
let compile_ns_total = Atomic.make 0

let compile_seconds () = float_of_int (Atomic.get compile_ns_total) *. 1e-9

(* Parse, type-check, and compile [source] with [backend]. Raises
   [Minic.Lexer.Lex_error], [Minic.Parser.Parse_error], or
   [Minic.Typecheck.Type_error] on bad input. *)
let compile backend source =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Unix.gettimeofday () -. t0 in
      ignore
        (Atomic.fetch_and_add compile_ns_total (int_of_float (dt *. 1e9))))
    (fun () ->
      Compilers.Codegen.generate backend (Minic.Typecheck.check_source source))

(* --- the process-wide compiled-program cache ----------------------------- *)

(* One compile per distinct (backend, source) per PROCESS: fleets
   re-checking a program across engines, pool restores, and the serve
   path all share this table instead of each worker domain (or each
   seed) compiling its own copy. Sharing the same [compiled] value also
   shares its [Machine.Program.t] identity, which is what lets the
   block engine's shared superblock cache (keyed on program uid) bind
   instead of recompile.

   The key digests the full backend configuration via [Marshal] —
   [Backend.name] is NOT sufficient: cash_default and
   cash_security_only both render as "cash3" and would alias. Failures
   are never cached (the exception propagates and the next caller
   retries). The table is capacity-bounded and evicts its least
   recently used entry on overflow: a long-lived server fed unbounded
   distinct sources must not retain every program ever compiled, and a
   hot set smaller than the capacity survives any stream of one-shot
   sources with its program identity intact (so the server's per-worker
   warm machines, keyed on that identity, keep hitting). Finding the
   victim scans the table, a handful of entries. The bound is
   deliberately SMALL — each
   retained [compiled] pins its program and, through the block engine's
   ephemeron superblock cache, that program's compiled closure set.
   On the fuzzing fleet (6000 distinct compiles per 2000-seed sweep,
   heavy allocation, frequent major cycles) every retained program
   costs measurable marking time: the check phase ran 360/339/310/282
   programs/s at capacity 8/16/32/64 on the 1-core reference host.
   The in-repo reuse workloads (serve's mixed load, the restore tests,
   the benchmark's probes) cycle at most a handful of distinct sources,
   so 8 loses them nothing. Compilation runs OUTSIDE the lock so
   concurrent fleet workers never serialise their compiles; when two
   domains race the same key, the first store wins and the loser adopts
   the winner's value (keeping program identity process-unique). *)
type cache_entry = { c_compiled : compiled; mutable c_used : int }

(* The table and its use clock are guarded by [compile_cache_lock]. *)
let compile_cache : (string, cache_entry) Hashtbl.t = Hashtbl.create 16
let compile_cache_clock = ref 0
let compile_cache_lock = Mutex.create ()

let touch e =
  incr compile_cache_clock;
  e.c_used <- !compile_cache_clock;
  e.c_compiled

let compile_cache_capacity = 8
let compile_cache_hits = Atomic.make 0
let compile_cache_misses = Atomic.make 0

let compile_cache_stats () =
  (Atomic.get compile_cache_hits, Atomic.get compile_cache_misses)

(* Backends are a handful of static configuration values compared
   against millions of sources, so their Marshal+digest is memoized on
   structural equality (an assoc list a few entries long). Lock-free:
   a racing duplicate entry is harmless, both map to the same digest. *)
let backend_digests : (backend * string) list Atomic.t = Atomic.make []

let backend_digest (backend : backend) =
  match List.assoc_opt backend (Atomic.get backend_digests) with
  | Some d -> d
  | None ->
    let d = Digest.string (Marshal.to_string backend []) in
    Atomic.set backend_digests ((backend, d) :: Atomic.get backend_digests);
    d

let compile_key backend source = backend_digest backend ^ Digest.string source

let compile_cached backend source =
  let key = compile_key backend source in
  let cached =
    Mutex.protect compile_cache_lock (fun () ->
        Option.map touch (Hashtbl.find_opt compile_cache key))
  in
  match cached with
  | Some r ->
    Atomic.incr compile_cache_hits;
    r
  | None ->
    let r = compile backend source in
    Atomic.incr compile_cache_misses;
    Mutex.protect compile_cache_lock (fun () ->
        match Hashtbl.find_opt compile_cache key with
        | Some e ->
          touch e (* another domain compiled it first; adopt theirs *)
        | None ->
          if Hashtbl.length compile_cache >= compile_cache_capacity then begin
            let lru =
              Hashtbl.fold
                (fun k e acc ->
                  match acc with
                  | Some (_, used) when used <= e.c_used -> acc
                  | _ -> Some (k, e.c_used))
                compile_cache None
            in
            Option.iter (fun (k, _) -> Hashtbl.remove compile_cache k) lru
          end;
          let e = { c_compiled = r; c_used = 0 } in
          Hashtbl.add compile_cache key e;
          touch e)

type status =
  | Finished                      (* ran to the final HLT *)
  | Bound_violation of string     (* caught by segment limit / BOUND /
                                     software check *)
  | Crashed of string             (* any other processor fault *)

type run = {
  status : status;
  cycles : int;                   (* simulated cycles consumed *)
  insns : int;                    (* instructions executed *)
  output : string;                (* everything print_* wrote *)
  process : Osim.Process.t;
  runtime : Cashrt.Runtime.t option; (* present for Cash programs *)
  kernel : Osim.Kernel.t;
}

let is_cash (r : compiled) =
  match r.Compilers.Codegen.kind with
  | Compilers.Backend.Cash _ -> true
  | _ -> false

(* Ambient sink for whole-harness tracing (bench --trace): applied to
   every [run] that does not pass an explicit [?trace]. Domain-local
   (DLS), not a plain global: a [ref] here would be a data race the
   moment the parallel harness runs jobs on several domains, and a
   single shared sink would corrupt its own ring/counters. Each worker
   attaches its own sink and the harness merges them after the barrier
   ([Trace.merge_into]); a freshly spawned domain starts untraced. *)
let default_trace : Trace.sink option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_default_trace sink = Domain.DLS.set default_trace sink
let current_trace () = Domain.DLS.get default_trace

(* Ambient engine for whole-harness selection (bench/experiments
   --engine=...): applied to every [run] that does not pass an explicit
   [?engine]. Unlike the trace sink this is an [Atomic], not DLS: an
   engine value is immutable data, every domain must observe the CLI's
   choice (the parallel harness spawns fresh domains, which would reset
   a DLS key to its default), and it is set once before any fan-out. *)
let default_engine_cell : Machine.Cpu.engine Atomic.t =
  Atomic.make Machine.Cpu.default_engine

let set_default_engine e = Atomic.set default_engine_cell e
let default_engine () = Atomic.get default_engine_cell

(* A [match], not a lookup in [engines]: the server builds its pool key
   from this on every request. *)
let engine_name = function
  | Machine.Cpu.Block -> "block"
  | Machine.Cpu.Reference -> "reference"

let engines =
  List.map (fun e -> (engine_name e, e))
    [ Machine.Cpu.Block; Machine.Cpu.Reference ]

let engine_of_string name = List.assoc_opt name engines

(* A loaded-but-not-finished machine: what [start] returns, [finish]
   consumes, and the snapshot layer checkpoints. *)
type state = {
  s_compiled : compiled;
  s_process : Osim.Process.t;
  s_runtime : Cashrt.Runtime.t option;
  s_kernel : Osim.Kernel.t;
}

let state_compiled state = state.s_compiled
let state_process state = state.s_process

(* Load [compiled] into a fresh simulated process, wire the trace sink
   and (for Cash programs) the runtime, and stop just before the first
   instruction. A fresh kernel is created unless one is supplied (supply
   one to share a global clock across processes, as the network
   experiments do). [?chain] is ignored: perfbench/layers.ml:31 still
   passes it. *)
let start ?kernel ?engine ?chain:(_ : bool option) ?trace
    ?(guard_malloc = false) (compiled : compiled) =
  let trace =
    match trace with Some _ as s -> s | None -> current_trace ()
  in
  let engine =
    match engine with Some e -> e | None -> default_engine ()
  in
  let kernel =
    match kernel with Some k -> k | None -> Osim.Kernel.create ()
  in
  let process =
    Osim.Process.load ~engine ~kernel compiled.Compilers.Codegen.program
  in
  Machine.Cpu.set_sink (Osim.Process.cpu process) trace;
  if guard_malloc then
    Osim.Libc.set_guard_malloc (Osim.Process.libc process) true;
  let runtime =
    if is_cash compiled then Some (Cashrt.Runtime.attach process) else None
  in
  { s_compiled = compiled; s_process = process; s_runtime = runtime;
    s_kernel = kernel }

(* Run (or resume) a started machine to completion and fold the run's
   per-function cycle attribution into its sink. *)
let finish ?fuel state =
  let process = state.s_process in
  let raw_status = Osim.Process.run ?fuel process in
  Machine.Cpu.commit_profile (Osim.Process.cpu process);
  let status =
    match raw_status with
    | Machine.Cpu.Halted -> Finished
    | Machine.Cpu.Running -> Crashed "still running (impossible)"
    | Machine.Cpu.Faulted f ->
      if Seghw.Fault.is_bound_violation f then
        Bound_violation (Seghw.Fault.to_string f)
      else Crashed (Seghw.Fault.to_string f)
  in
  {
    status;
    cycles = Osim.Process.cycles process;
    insns = Machine.Cpu.insns_executed (Osim.Process.cpu process);
    output = Osim.Process.output process;
    process;
    runtime = state.s_runtime;
    kernel = state.s_kernel;
  }

(* Load [compiled] into a fresh simulated process and run it to
   completion. With a trace sink (explicit or ambient), the CPU and MMU
   emit events into it. *)
let run ?kernel ?engine ?fuel ?trace ?guard_malloc (compiled : compiled) =
  finish ?fuel (start ?kernel ?engine ?trace ?guard_malloc compiled)

(* --- checkpoint/restore (lib/snapshot) --- *)

let save state = Snapshot.save ?runtime:state.s_runtime state.s_process

let restore ?engine ?trace (compiled : compiled) bytes =
  let engine =
    match engine with Some e -> e | None -> default_engine ()
  in
  let trace =
    match trace with Some _ as s -> s | None -> current_trace ()
  in
  let process, runtime =
    Snapshot.restore ~engine ~program:compiled.Compilers.Codegen.program
      bytes
  in
  Machine.Cpu.set_sink (Osim.Process.cpu process) trace;
  {
    s_compiled = compiled;
    s_process = process;
    s_runtime = runtime;
    s_kernel = Osim.Process.kernel process;
  }

(* Pool-aware restore: overwrite [state]'s existing machine with the
   image instead of building a fresh one. The state keeps its process
   and kernel (reused in place); only the runtime binding can change
   (see [Snapshot.restore_into]). On [Snapshot.Error] the machine is
   half-scrubbed — discard the state rather than reusing it. *)
let restore_into ?trace state bytes =
  let trace =
    match trace with Some _ as s -> s | None -> current_trace ()
  in
  let runtime =
    Snapshot.restore_into ?runtime:state.s_runtime
      ~program:state.s_compiled.Compilers.Codegen.program state.s_process
      bytes
  in
  Machine.Cpu.set_sink (Osim.Process.cpu state.s_process) trace;
  { state with s_runtime = runtime }

let state_digest state =
  Snapshot.digest (Buffer.to_bytes (save state))

(* Re-wrap a finished run as a state, so the differential fleet can dump
   a crash snapshot of whatever machine a failing run left behind. *)
let state_of_run (compiled : compiled) (r : run) =
  {
    s_compiled = compiled;
    s_process = r.process;
    s_runtime = r.runtime;
    s_kernel = r.kernel;
  }

(* Compile and run in one step. *)
let exec ?engine ?fuel ?trace ?guard_malloc backend source =
  run ?engine ?fuel ?trace ?guard_malloc (compile backend source)

(* Sum of the dynamic counters whose label starts with [prefix] —
   "__stat_iter_a" (array-loop iterations), "__stat_iter_s" (spilled-loop
   iterations), "__stat_swc" (software checks executed). *)
let stat_sum run ~prefix =
  List.fold_left
    (fun acc (name, v) ->
      if String.length name >= String.length prefix
         && String.sub name 0 (String.length prefix) = prefix
      then acc + v
      else acc)
    0
    (Machine.Cpu.stats (Osim.Process.cpu run.process))

(* Static characteristics of a compiled program, for Tables 1/2/4/6/7. *)
type static_info = {
  code_bytes : int;
  data_bytes : int;
  image_bytes : int;
  hw_checks : int;
  sw_checks : int;
  bcc_checks : int;
  loops : Minic.Loop_analysis.characteristics;
}

let static_info ?(budget = 3) (r : compiled) =
  let s = r.Compilers.Codegen.stats in
  {
    code_bytes = r.Compilers.Codegen.code_bytes;
    data_bytes = r.Compilers.Codegen.data_bytes;
    image_bytes =
      r.Compilers.Codegen.code_bytes + r.Compilers.Codegen.data_bytes;
    hw_checks = s.Compilers.Codegen.hw_checks;
    sw_checks = s.Compilers.Codegen.sw_checks;
    bcc_checks = s.Compilers.Codegen.bcc_checks;
    loops =
      Minic.Loop_analysis.characteristics ~budget
        r.Compilers.Codegen.analysis;
  }

(* Exception-safe whole-file I/O, shared by every reader and writer in
   the CLIs, the bench harness, and the fuzz dumper: the channel is
   closed even when the read or write raises, so a failing path cannot
   leak a descriptor. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)
