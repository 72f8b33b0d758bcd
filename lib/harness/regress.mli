(** Bench regression gate: compare fresh [BENCH_*.json] results against a
    committed baseline with a multiplicative tolerance.

    Only time-like numeric leaves are compared — keys ending in [wall_s]
    or [_ms] — and only one-sided: fresh time must satisfy
    [fresh <= baseline * tolerance]. Derived values (speedups,
    attempts/sec, the cache's [warm_over_cold] ratio) are skipped as
    redundant: a ratio would fail when its denominator got faster, and
    being faster than baseline is never a failure. A
    time-like leaf present in the baseline but missing from the fresh
    run fails the gate: a silently dropped workload is a hidden
    regression. Used by [bench --check DIR] and the CI smoke job. *)

type verdict = {
  path : string;  (** dotted JSON path, e.g. [workloads\[3\].wall_s] *)
  baseline : float;
  fresh : float;
  ratio : float;  (** [fresh / baseline] *)
  ok : bool;
}

type outcome = {
  what : string;
  tolerance : float;
  verdicts : verdict list;  (** in baseline document order *)
  missing : string list;  (** baseline paths absent from the fresh run *)
}

val time_like : string -> bool
(** Does this JSON key name a lower-is-better duration? *)

val compare_json :
  what:string ->
  tolerance:float ->
  baseline:Ts_obs.Json.t ->
  fresh:Ts_obs.Json.t ->
  outcome
(** Compare every time-like leaf of [baseline] against the same path in
    [fresh]. Zero/negative baseline values pass with a neutral ratio.
    @raise Invalid_argument when [tolerance < 1.0]. *)

val ok : outcome -> bool
(** No regressions and no missing leaves. *)

val worst : outcome -> verdict option
(** The leaf with the highest fresh/baseline ratio — the named offender
    for the failure message. [None] when nothing was compared. *)

val render : outcome -> string
(** Aligned verdict table with a PASS/FAIL summary row. *)
