(** Nested span profiling: where does the wall-time (and allocation) go?

    [span "tms.search" f] times [f] and attributes the interval to the
    span name, subtracting the time spent in spans nested inside it on
    the same domain — so a report line's "self" column is the time truly
    spent in that phase, not double-counted into its callers. Each span
    also records the words its own domain allocated over its extent
    ([Gc.minor_words] and [Gc.counters]), net of its children, so
    another domain's allocation is never charged to it. There are no
    per-span collection counts: a minor collection stops every domain,
    so no one span owns it.

    Collection {e time} is charged, though, and not to the span that made
    the garbage: a minor collection, and the major-GC slice that runs
    with it, land in the self time of whichever span is allocating when
    the minor heap fills. A span's self time can therefore rise or fall
    when another layer allocates more or less, with no change to the
    span's own code; compare allocation ([self_mwords]) alongside it
    before reading a self-time shift as a regression or a gain.

    Disabled by default: a [span] call then costs one atomic read plus
    the closure call, which is why instrumentation can stay on
    permanently in the search/simulator/persistence hot paths. The CLI's
    [--profile table|json] flag enables it for the run and prints the
    report at exit (on the failure path too).

    Domain behaviour: every domain has its own span stack, so pool
    workers nest correctly and without contention. Aggregation across
    domains sums self-times, so under a parallel sweep the per-span
    totals can legitimately exceed the wall clock, and a span on the
    spawning domain does not see worker spans as children (its self time
    includes the wait at the join, its words do not include theirs). *)

val set_enabled : bool -> unit
(** Turn profiling on (clearing any previous aggregates and starting the
    wall clock) or off. *)

val enabled : unit -> bool

val reset : unit -> unit
(** Clear aggregates and restart the report wall clock. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f], attributing its wall time and allocation to
    [name]. Exception-safe: the frame is closed and accounted even when
    [f] raises. No-op (beyond one atomic read) when disabled. *)

type row = {
  name : string;
  count : int;  (** completed calls *)
  total_s : float;  (** inclusive wall seconds, summed over calls *)
  self_s : float;  (** [total_s] minus time in same-domain child spans *)
  self_mwords : float;
      (** millions of words this domain allocated, net of children *)
}

type report = { wall_s : float; rows : row list }
(** [wall_s] is the time since profiling was enabled (or {!reset});
    [rows] are sorted by descending [self_s], ties by name. *)

val report : unit -> report

val coverage : report -> float
(** Fraction of [wall_s] attributed to span self-time (can exceed 1.0
    under a parallel sweep). *)

val render_table : report -> string
(** Aligned table: span, calls, total/self seconds, self %% of wall and
    allocation, with a closing wall-clock/coverage row and a one-line
    note on where GC time lands. *)

val to_json : report -> Json.t
(** [{"version": 1, "wall_s": ..., "coverage": ..., "spans": [...]}] in
    the same order as {!report} rows. *)
