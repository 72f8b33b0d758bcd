(** The [tsms serve] daemon: a long-running scheduler-as-a-service front
    end over {!Protocol}.

    One event-loop domain owns the listening socket, every connection's
    read side and all admission control; the actual scheduling and
    simulation runs as tasks on the resident {!Ts_base.Parallel} pool — no
    [Domain.spawn] per request, ever. Control ops ([metrics], [health],
    [ping]) are answered inline by the loop so a saturated server still
    answers its health checks.

    Admission control and backpressure: at most [max_inflight] compute
    requests execute (or sit in the pool) at once; up to [queue_depth]
    more wait in an explicit pending queue; anything beyond that is shed
    immediately with a structured [shed_load] error response — the
    server never crashes or stalls under flood, it says no. A request
    admitted is never lost: its response (success or error) is always
    written, and responses to pipelined requests may complete out of
    order (matched by [id]).

    Each compute request runs under {!Ts_resil.Supervise.attempt_task}
    with the process policy, overridable per request ([max_retries],
    [deadline_ms]); the whole existing degradation machinery (persist
    write failures, fault plans, warn-once) applies per request instead
    of per sweep.

    Results are served from the shared content-addressed {!Ts_persist}
    store (see {!Ts_harness.Cached}), or computed on the pool and
    stored there on a miss.

    Server metrics (on {!Ts_obs.Metrics.default}, so the [metrics] op's
    Prometheus exposition includes them): [serve.connections],
    [serve.requests], [serve.accepted], [serve.shed], [serve.responses],
    [serve.errors], [serve.graveyard] counters, [serve.inflight] /
    [serve.queue] gauges and the [serve.request_ms] latency histogram. *)

type addr = Unix_sock of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** [unix:PATH], [tcp:HOST:PORT], [HOST:PORT], or a bare port number
    (= [tcp:127.0.0.1:PORT]). *)

val addr_to_string : addr -> string

type config = {
  addr : addr;
  max_inflight : int;  (** concurrent compute requests on the pool *)
  queue_depth : int;  (** pending requests beyond inflight before shedding *)
  max_frame : int;  (** per-frame byte bound, see {!Protocol} *)
  drain_timeout_s : float;  (** graceful-shutdown wait for inflight work *)
}

val default_config : addr -> config
(** [max_inflight] = the pool's configured jobs, [queue_depth] = 64,
    [max_frame] = {!Protocol.default_max_frame}, [drain_timeout_s] =
    10. *)

type t

val create : config -> t
(** Bind and listen (for a unix-domain address, a stale socket file from
    a dead server is replaced). Raises [Unix.Unix_error] or
    [Invalid_argument] on a bad configuration — before [run], so the CLI
    can report startup failures cleanly. *)

val bound_addr : t -> addr
(** The actual address: for [Tcp (host, 0)] the kernel-assigned port. *)

val run : t -> unit
(** The event loop. Blocks until {!stop}, then drains inflight requests
    (up to [drain_timeout_s]), closes every connection and the listener,
    and removes the unix socket file. A request still running when the
    drain deadline passes does not leak its descriptors: the connection
    moves to a graveyard and the worker that writes its last pending
    response closes the fd itself (counted on [serve.graveyard]); the
    last such worker also closes the internal self-pipe. Such late
    responses still reach their clients. Idempotent cleanup: safe to
    call once per [t]. *)

val stop : t -> unit
(** Request shutdown. Async-signal-safe (an atomic flag and a self-pipe
    write), so it can be called from a SIGTERM/SIGINT handler or from
    another domain. Queued-but-unstarted requests are answered with
    [shutting_down] errors; inflight ones complete and their responses
    are written before the connections close. *)
