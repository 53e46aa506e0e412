(** A Domain-based work pool for independent simulator jobs.

    Every experiment, ablation cell, and differential-fleet case is an
    independent deterministic simulation: it builds its own
    [Machine]/[Mmu]/kernel, so runs share no simulated state. This
    module fans such jobs out across OCaml 5 domains while keeping the
    observable results {e byte-identical} to a serial run:

    - jobs are handed to workers through one atomic index — no per-job
      locks, no deque — and each worker loops until the index passes the
      end;
    - results land in a per-job slot, so collection order is the job
      order regardless of which domain ran what or when it finished;
    - an exception raised by a job is captured with its backtrace and
      re-raised in the caller {e for the lowest-numbered failing job},
      so failure reports are as deterministic as success output.

    Jobs must not share mutable state; ambient per-run state
    ([Core.set_default_trace]) is domain-local, so each job attaches
    its own. Nested calls run serially on the calling worker (no domain
    explosion when a parallelised experiment is itself run by a
    parallel harness).

    Helper domains persist. They are spawned on first need — never more
    than [jobs - 1] over the process lifetime, for the largest [jobs]
    any call used — and park between calls, so domain-local state a job
    leaves behind stays on its helper for later calls: that is how
    [Serve.Server]'s warm machines outlive a batch. A job that sets
    ambient domain-local state must therefore restore it before
    returning, as [Harness.Suite] does for the trace sink. One top-level
    call uses the helpers at a time; a concurrent top-level call from
    another domain waits for it. *)

(** Worker count used when [?jobs] is not given: the [CASH_JOBS]
    environment variable if set (CI pins it), otherwise
    [Domain.recommended_domain_count ()]. The CLIs' [-j]/[--jobs]
    options, parsed by cmdliner, override it.
    @raise Failure if [CASH_JOBS] is set but not a positive integer. *)
val default_jobs : unit -> int

(** [run_jobs ?jobs tasks] runs every task and returns their results in
    task order. At most [jobs] (default {!default_jobs}) domains run at
    once, the calling domain included; [jobs] is clamped to the number
    of tasks. Above one job the call wakes [jobs - 1] persistent
    helpers and returns once all of them are done. With an effective
    job count of 1 — or when called from inside another [run_jobs]
    worker — the tasks run serially in the calling domain, waking
    nothing. *)
val run_jobs : ?jobs:int -> (unit -> 'a) array -> 'a array

(** [map ?jobs f xs] = [run_jobs ?jobs] over [fun () -> f x], keeping
    list order. *)
val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
