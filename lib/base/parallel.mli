(** Deterministic parallel map over the resident domain pool.

    Independent units of work — the per-[P_max] TMS searches of a sweep,
    the per-benchmark rows of Table 2, the per-loop simulations of the
    DOACROSS studies — run on a process-wide work-stealing pool while
    results come back in input order, so every caller stays bit-for-bit
    deterministic at any pool size.

    Worker domains are spawned once per process (lazily, on first use)
    and reused for every parallel batch; nothing on the hot path calls
    [Domain.spawn]. Each worker owns an SPMC deque — owner pushes/pops
    at the back (LIFO), thieves take from the front (FIFO). Nested
    [map]s parallelize too: a map reached from inside a pool worker
    enqueues its items on that worker's own deque and helps drain them
    (help-first), so the live domain count stays bounded by the pool
    size at any nesting depth. *)

(** {1 Pool sizing}

    The parallelism is resolved, in order, from: an explicit [?jobs]
    argument to {!map}, {!set_jobs} (the CLI's [--jobs N]), the
    [TSMS_JOBS] environment variable, and finally
    [Domain.recommended_domain_count () - 1] (one core left for the
    caller). The pool only ever grows, up to a fixed cap of 64 workers:
    a batch asking for more workers than are resident spawns the
    difference, and they stay. *)

val set_jobs : int -> unit
(** Fix the default parallelism for the whole process (overrides
    [TSMS_JOBS]). Raises [Invalid_argument] when [n < 1]. *)

val env_jobs : unit -> int option
(** The [TSMS_JOBS] environment variable, if set and non-empty. Raises
    [Invalid_argument] when it is not a positive integer — callers that
    want an early, friendly diagnosis (the CLI) can probe this before the
    first {!map}. *)

val get_jobs : unit -> int
(** The parallelism {!map} will use when called without [?jobs]: the
    {!set_jobs} value, else [TSMS_JOBS], else the machine's (at least 1).
    Raises [Invalid_argument] if [TSMS_JOBS] is set but is not a
    positive integer. *)

val size_now : unit -> int
(** Resident worker count right now (0 until the first parallel batch).
    Grow-only; used by tests to assert nesting does not explode the
    domain count. *)

(** {1 Telemetry} *)

type event =
  | Task_done of { worker : int; index : int; wall_s : float }
      (** One task finished (successfully or by raising): which worker
          ran it, its input index, and its wall time in seconds
          (including any nested batch it helped drain while waiting). *)
  | Worker_exit of { worker : int; busy_s : float; tasks : int }
      (** Per-map, per-slot account at the join: seconds this pool slot
          spent inside the map's tasks and how many it ran. Emitted for
          every slot including workers that ran zero tasks; worker 0 is
          the (non-pool) caller, and the sequential path reports as
          worker 0 too. *)
  | Steal of { thief : int; victim : int }
      (** Worker [thief] took a task from the front of [victim]'s
          deque. *)
  | Idle of { worker : int; wait_s : float }
      (** A pool worker found nothing to run anywhere and slept for
          [wait_s] seconds until new work arrived. *)

val set_observer : (event -> unit) option -> unit
(** Install (or clear) the process-global pool telemetry hook. The
    observer runs on the worker domain that produced the event, so it
    must be domain-safe; the observability layer installs one that feeds
    the [pool.*] metrics. [map] reads the hook once at entry — installing
    it mid-sweep affects subsequent maps only. When no observer is
    installed the pool takes no timestamps at all. *)

val get_observer : unit -> (event -> unit) option
(** The currently installed hook (tests save/restore around their own). *)

(** {1 Futures} *)

type 'a future

val submit : (unit -> 'a) -> 'a future
(** Enqueue [f] on the pool (growing it to the configured size on first
    use), for callers that want overlapping heterogeneous work rather
    than a fork-join {!map}. From inside a worker the task goes to the
    caller's own deque (help-first nesting); from outside it is injected
    round-robin. *)

val await : 'a future -> 'a
(** Block until the future resolves, re-raising if the task raised.
    A pool worker awaiting helps: it runs other pool tasks while it
    waits, so awaiting inside a task cannot deadlock the pool. *)

(** {1 Map} *)

exception Map_errors of (int * exn) list
(** Every task that raised, as [(input index, exception)] pairs in input
    order. No failure is dropped and no result is discarded early: all
    items run to completion before this is raised. *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f xs] is [List.map f xs] computed on the resident domain pool.
    Results are in input order. Runs strictly sequentially (inline on the
    calling domain) when the effective [jobs] is 1 or the list has at
    most one element. Otherwise the items become pool tasks; the pool is
    grown (once) to the effective [jobs], so a later map asking for less
    than the resident size may still be run by more workers — [jobs]
    caps growth, not concurrency. If any [f x] raises, every item is
    still attempted and {!Map_errors} is raised in the caller with the
    complete failure list — identical on the sequential and pooled paths.
    [f] must be safe to call from multiple domains at once. *)
