(** Named counters, gauges and histograms for the scheduler search and the
    SpMT simulator.

    Metrics are registered in a {!registry} by name; handles are cheap
    cells, so instrumentation sites pay one integer (or float) update per
    event — there is no sink to configure, and nothing is emitted unless
    the registry is explicitly dumped ({!render_table}, {!to_json},
    {!render_prom}). The process-wide {!default} registry is what the
    CLI's [--metrics] flag prints after a subcommand runs.

    All operations are domain-safe: counters and gauges are atomic cells
    (counter totals are exact — identical at any {!Ts_base.Parallel} pool
    size), histograms take a per-histogram mutex, and registration is
    serialised per registry.

    Histograms bucket observations on a log₂ scale (8 sub-buckets per
    octave, so quantile estimates carry at most ~9% relative error) over
    the range [2^-30, 2^34). Bucketing is a pure function of the value:
    bucket counts are identical whatever domain observed the sample and
    in whatever order, which is what makes {!merge_histogram} (and the
    [--jobs 1] vs [--jobs 4] totals) deterministic.

    Naming convention: dotted lower-case paths grouped by subsystem, e.g.
    [tms.attempts], [tms.slots.c1_reject], [sim.squashes]. *)

type registry
type counter
type gauge
type histogram

val create : unit -> registry

val default : registry
(** The process-wide registry used by built-in instrumentation. *)

val reset : registry -> unit
(** Zero every metric (registrations survive; handles stay valid). *)

val counter : registry -> string -> counter
(** Register (or fetch the existing) monotonic counter [name].
    @raise Invalid_argument if [name] is registered as a different kind. *)

val incr : ?by:int -> counter -> unit
(** Add [by] (default 1). @raise Invalid_argument if [by < 0] — counters
    are monotonic by construction. *)

val counter_value : counter -> int

val gauge : registry -> string -> gauge
(** A last-value-wins instantaneous measurement. *)

val set_gauge : gauge -> float -> unit

val max_gauge : gauge -> float -> unit
(** Raise the gauge to [v] if [v] is larger: a high-water mark that
    concurrent writers cannot lower. *)

val gauge_value : gauge -> float

val histogram : registry -> string -> histogram
(** Register (or fetch) a bucketed log₂-scale histogram. *)

val observe : histogram -> float -> unit
(** Record one sample. Values below the bucket range (including zeros and
    negatives) are tracked in an underflow bucket; values above it in an
    overflow bucket; exact min/max/sum/count are kept alongside. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float

val histogram_mean : histogram -> float
(** Mean of all observations; [nan] when empty. *)

val quantile : histogram -> float -> float
(** [quantile h q] estimates the [q]-quantile (e.g. [0.5] for p50) from
    the bucket counts, interpolating inside the winning bucket and
    clamping to the exact recorded min/max. Relative error is bounded by
    the bucket width (~9%). Returns [nan] when the histogram is empty.
    @raise Invalid_argument when [q] is outside [0, 1]. *)

val bucket_counts : histogram -> (float * int) list
(** Non-empty buckets as [(upper bound, count)] pairs in ascending bound
    order. Underflow/overflow samples are not included. *)

val merge_histogram : src:histogram -> into:histogram -> unit
(** Add [src]'s buckets, count, sum and min/max into [into]. Bucket
    counts are order-independent, so merging per-domain histograms gives
    the same result whatever the interleaving. [src] is unchanged; a
    self-merge is a no-op. *)

val merge : src:registry -> into:registry -> unit
(** Merge every metric of [src] into the same-named metric of [into]
    (registering it if missing): counters add, histograms merge
    bucketwise, gauges keep the maximum (the only order-independent
    choice for last-value cells). A self-merge is a no-op.
    @raise Invalid_argument on a name registered with different kinds. *)

val render_table : registry -> string
(** All registered metrics as an aligned {!Ts_base.Tablefmt} table, rows
    sorted by metric name. The first three columns are always
    [name | kind | value]; histogram rows add mean/p50/p90/p99/min/max. *)

val to_json : registry -> Json.t
(** Versioned snapshot: [{"version": 2, "metrics": {...}}] with keys
    sorted; counters as [Int], gauges as [Float], histograms as objects
    with count/sum/min/max/p50/p90/p99/underflow/overflow and a sparse
    [buckets] array of [[upper bound, count]] pairs. *)

val render_prom : registry -> string
(** Prometheus text exposition (format 0.0.4) of the whole registry:
    metric names are prefixed [tsms_] and sanitised (non-alphanumerics
    become ['_']), each preceded by a [# TYPE] line. Histograms emit
    cumulative [_bucket{le="..."}] samples for every non-empty bucket
    bound plus [+Inf], then [_sum] and [_count] — ready to serve from
    ROADMAP's [tsms serve] scrape endpoint. *)
