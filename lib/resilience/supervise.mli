(** Supervised parallel sweeps: retries, deadlines, full failure
    aggregation and keep-going degradation over {!Ts_base.Parallel}.

    The experiment harness runs hundreds of independent loop tasks per
    sweep. A bare [Parallel.map] turns one failing task into an aborted
    sweep; this module gives every task a retry budget with deterministic
    backoff, reports {e every} failed task (with its input index and
    label, not just the first exception), and — in keep-going mode — lets
    the sweep finish the surviving tasks and report the casualties at the
    end.

    One retry loop, {!attempt_task}, serves both the server (per
    request) and {!sweep_groups} (per item, on the pool worker that took
    the item, which steps the sweep's {!Ts_obs.Progress} heartbeat).

    Determinism: retries re-run the same pure task, and backoff delays
    are a fixed function of the policy ([backoff_ms * 2^(attempt-1)]), so
    an injected-fault run whose retries all eventually succeed returns
    bit-identical results to a fault-free run. Per-task deadlines are
    {e reported, never enforced}: OCaml domains cannot be safely
    preempted, and discarding a completed result on wall-clock grounds
    would make results timing-dependent — an overrun increments
    [supervise.deadline_exceeded] and warns once per task label, keeping
    the result.

    Metrics: [supervise.retries], [supervise.failures],
    [supervise.deadline_exceeded] on {!Ts_obs.Metrics.default}. *)

type policy = {
  max_retries : int;  (** extra attempts after the first (0 = no retry) *)
  backoff_ms : int;  (** attempt [k+1] waits [backoff_ms * 2^(k-1)] ms *)
  deadline_ms : int option;  (** soft per-task deadline, report-only *)
}

val default_policy : policy
(** [{ max_retries = 0; backoff_ms = 100; deadline_ms = None }] *)

type failure = {
  index : int;  (** input position in the sweep *)
  label : string;  (** human-readable task id, e.g. ["suite:applu/3"] *)
  attempts : int;  (** attempts made (1 + retries) *)
  error : string;  (** [Printexc.to_string] of the last exception *)
}

exception Failures of failure list
(** Every failed task of a sweep, aggregated, in input order. *)

val attempt_task :
  policy:policy ->
  point:string ->
  label:string ->
  index:int ->
  ('a -> 'b) ->
  'a ->
  ('b, failure) result
(** One supervised task, inline on the calling domain: up to
    [1 + max_retries] attempts with the deterministic backoff, the
    report-only deadline, and the [(index, attempt)] {!Fault} task keys.
    The only retry loop: {!sweep_groups} runs it once per item and the
    server once per request, with that request's policy. Domain-safe: the
    retry/failure/deadline counters are atomic and the warn-once table is
    locked, so concurrent pool workers can each run their own. *)

(** {2 Run context}

    Process-wide sweep configuration, set once by the CLI front ends
    ([--keep-going], [--max-retries], [--task-timeout]) and consulted by
    every {!sweep_groups}; the server starts each request's policy from
    {!policy}. *)

val set_keep_going : bool -> unit
val keep_going : unit -> bool

val set_policy : policy -> unit
(** The policy {!sweep_groups} uses. *)

val policy : unit -> policy

val sweep_groups :
  what:string ->
  group:('g -> string) ->
  label:('a -> string) ->
  ('g -> 'a -> 'b) ->
  ('g * 'a list) list ->
  ('g * 'b list) list
(** The harness's sweep: one {!Ts_base.Parallel.map} over grouped
    items (a benchmark's loops, say), one task per item in group order,
    regrouped in order. Task [i] (the index {!Fault} plans name) is the
    [i]-th item overall, labelled ["what:group/item"], and runs
    {!attempt_task} under the run-context {!policy} at {!Fault} point
    ["worker"]. Then:

    - keep-going off (default): if any task failed, raises {!Failures}
      with {e all} of them (every task still ran or was retried first);
    - keep-going on: a failed item is left out of its group, its failure
      is recorded in the run context for the end-of-run {!summary}, and
      the sweep completes. *)

val failures : unit -> failure list
(** Failures recorded by keep-going sweeps since the last
    {!reset_failures}, in arrival order. *)

val reset_failures : unit -> unit

val render_failures : failure list -> string
(** The human failure summary ("sweep failures: N task(s) failed" plus
    one line per task). *)

val summary : unit -> string option
(** [render_failures] of the recorded failures; [None] when the run was
    clean. *)

val failures_of_exn : exn -> failure list option
(** Recognise sweep failures in a caught exception: {!Failures} directly,
    or a {!Ts_base.Parallel.Map_errors} whose items wrap nested
    {!Failures} (an outer pool level re-raising an inner sweep's). The
    CLIs use this to print one summary and exit non-zero. *)
