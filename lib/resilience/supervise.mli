(** Supervised parallel sweeps: retries, deadlines, full failure
    aggregation and keep-going degradation over {!Ts_base.Parallel}.

    The experiment harness runs hundreds of independent loop tasks per
    sweep. A bare [Parallel.map] turns one failing task into an aborted
    sweep; this module gives every task a retry budget with deterministic
    backoff, reports {e every} failed task (with its input index and
    label, not just the first exception), and — in keep-going mode — lets
    the sweep finish the surviving tasks and report the casualties at the
    end.

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

val backoff_delays_ms : policy -> int list
(** The deterministic backoff sequence: the delay before each retry. *)

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
    report-only deadline, and the [(index, attempt)] {!Fault} task keys —
    the single-item building block the server uses to give every request
    its own retry/deadline policy without a sweep. Domain-safe: the
    retry/failure/deadline counters are atomic and the warn-once table is
    locked, so concurrent pool workers can each run their own. *)

val map :
  ?jobs:int ->
  ?policy:policy ->
  ?point:string ->
  ?label:(int -> string) ->
  ('a -> 'b) ->
  'a list ->
  ('b, failure) result list
(** [map f xs] runs every task under the policy (default
    {!default_policy}) on the {!Ts_base.Parallel} pool and returns
    per-task outcomes in input order — no exception short-circuits the
    sweep. [point] (default ["worker"]) is the {!Fault} task point
    checked before each attempt; [label] names tasks in failures and
    warnings (default: the index). *)

(** {2 Run context}

    Process-wide sweep configuration, set once by the CLI front ends
    ([--keep-going], [--max-retries], [--task-timeout]) and consulted by
    every driver's {!sweep_map}. *)

val set_keep_going : bool -> unit
val keep_going : unit -> bool

val set_policy : policy -> unit
(** The policy {!sweep_map} uses. *)

val policy : unit -> policy

val sweep_map :
  ?jobs:int ->
  what:string ->
  label:(int -> 'a -> string) ->
  ('a -> 'b) ->
  'a list ->
  'b option list
(** The drivers' entry point. Like {!map} with the run-context policy and
    labels prefixed ["what/"], then:

    - keep-going off (default): if any task failed, raises {!Failures}
      with {e all} of them (every task still ran or was retried first);
    - keep-going on: failed tasks come back as [None], their failures are
      recorded in the run context for the end-of-run {!summary}, and the
      sweep completes. *)

val sweep_groups :
  what:string ->
  group:('g -> string) ->
  label:('a -> string) ->
  ('g -> 'a -> 'b) ->
  ('g * 'a list) list ->
  ('g * 'b list) list
(** {!sweep_map} over grouped items (a benchmark's loops, say), one task
    per item in group order, regrouped in order; under keep-going a
    failed item is left out of its group. Task [i] (the index {!Fault}
    plans name) is the [i]-th item overall, labelled ["what:group/item"]. *)

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
