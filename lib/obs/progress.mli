(** Throttled stderr heartbeat for long-running sweeps.

    {!Ts_resil.Supervise.sweep_groups} creates a handle per sweep, and
    the pool worker that ran a task calls {!step} as soon as the task
    ends, retries included; when enabled — the CLI's [--progress] flag —
    at most one line per second reports done/total, elapsed time, an ETA
    extrapolated from the completion rate, and this sweep's cache
    hit-rate, retry and failure counts read from the default metrics
    registry. Disabled (the default), a step costs two atomic
    operations, so the harness can call into it unconditionally. *)

type t

val set_enabled : bool -> unit
(** Global switch, normally driven by [--progress]. Handles can be
    created while disabled and start reporting if it is enabled
    mid-run. *)

val enabled : unit -> bool

val set_sink : (string -> unit) option -> unit
(** Redirect heartbeat lines (tests); [None] restores stderr. *)

val set_min_interval : float -> unit
(** Seconds between heartbeat lines (default 1.0; 0 prints every step).
    @raise Invalid_argument when negative. *)

val start : what:string -> total:int -> t
(** New handle for a sweep of [total] tasks, labelled [what] in every
    line. Snapshots the cache/retry/failure counters so the heartbeat
    reports per-sweep deltas. [total <= 0] means the run is open-ended
    (a server's request stream): lines report a bare completion count
    with no "x/y" fraction and no ETA — never a division by zero or a
    negative/nonsense estimate. A known total never reports more than
    [total] done, even if stepped past it. *)

val step : t -> unit
(** Mark one task done; prints a heartbeat when enabled and the throttle
    interval has elapsed. Domain-safe. *)

val finish : t -> unit
(** Print the closing line (bypasses the throttle) when enabled. *)
