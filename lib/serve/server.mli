(** The warm-machine request server behind [bin/cashd.exe] and the
    benchmark's [serve] workload: newline-framed JSON requests
    ({!Protocol}) batched onto the [Parallel] domain pool, served by
    restoring snapshot images into {e reused} machines
    ({!Core.restore_into}), one idle machine per worker entry. *)

(** A named warm snapshot a [replay] request can target. *)
type warm = {
  w_name : string;  (** the request's [snapshot] field *)
  w_compiled : Core.compiled;
  w_image : bytes;
}

(** The twelve Table 8 "app/backend" warm images, each run to its
    [server_ready] marker ([Harness.Table8.warm]); compiles and warms
    in parallel. A pair that never reaches the marker falls back to a
    pristine start image (init replays, results unchanged). *)
val table8_warms : ?jobs:int -> unit -> warm list

(** The warm names {!table8_warms} would produce, without compiling
    anything — for generating request mixes up front. *)
val table8_names : unit -> string list

type t

(** [create ()] — a server. [warms] (default empty) is the replay
    target set; [jobs] caps worker domains (default
    [Parallel.default_jobs]); [batch] (default 256) is how many
    requests are in flight per dispatch; [engine] is the default CPU
    engine for requests that don't name one (default: the ambient
    {!Core.default_engine}).

    Each worker domain keeps, in domain-local storage that outlives
    batches ([Parallel]'s helpers persist), one entry per (server,
    request key, engine): the image its requests restore and the
    machine the last request left idle, which the next one restores
    into. A worker serves one request at a time, so it never needs a
    second machine per entry; a request that raises drops its machine.
    That table holds at most
    [List.length warms + Core.compile_cache_capacity] entries and
    evicts the least recently used, so a worker's retained memory is
    bounded however many distinct programs it serves.
    @raise Invalid_argument when [batch < 1]. *)
val create :
  ?jobs:int -> ?batch:int -> ?engine:Machine.Cpu.engine ->
  ?warms:warm list -> unit -> t

(** Serve one already-parsed request on the calling domain. *)
val run_request : t -> Protocol.request -> Protocol.response

(** Parse and serve one request line; a parse failure becomes an
    [ok = false] response carrying [default_id]. *)
val handle_line : t -> default_id:int -> string -> Protocol.response

(** Serve a batch of lines across the worker pool; responses come back
    in line order. Line [i] defaults its id to [default_id + i]. *)
val run_batch :
  t -> default_id:int -> string list -> Protocol.response list

(** End-of-run throughput report. Latency percentiles are
    nearest-rank over per-request wall latencies in microseconds. *)
type summary = {
  requests : int;
  errors : int;  (** [ok = false] responses *)
  wall_seconds : float;
  req_per_s : float;
  p50_us : float;
  p90_us : float;
  p99_us : float;
  compile_hits : int;
      (** process-wide {!Core.compile_cached} hits during this run —
          compile-and-run requests whose program was already compiled *)
  compile_misses : int;  (** ... and the compiles actually performed *)
}

val summary_to_json : summary -> Trace.Json.t

(** Serve every line in-process (batching internally) and return the
    responses in request order plus the summary — the in-process
    driver. *)
val run_lines : t -> string list -> Protocol.response list * summary

(** Stream: read request lines from [ic] until EOF, write one response
    line per request (request order, flushed per batch) to [oc], then
    the summary line; returns the summary. Blank lines are skipped. *)
val serve : t -> in_channel -> out_channel -> summary

(** [gen_mix ~names n] — [n] deterministic request lines of the Table 8
    mix: every 4th a small compile-and-run (cycling gcc/bcc/cash micro
    kernels), the rest replays round-robin over [names]. With [names]
    empty every request is a compile-and-run. *)
val gen_mix : names:string list -> int -> string list
