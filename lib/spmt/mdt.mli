(** Memory disambiguation table (Krishnan & Torrellas).

    Sits between the L1 caches and the shared L2 and remembers which
    speculative thread touched which address, so that a store executing in
    a less speculative thread can detect a premature load in a more
    speculative one. The simulator processes threads in program order, so
    detection is phrased from the consumer side: a load asks whether any
    in-flight earlier thread stored to its address {e after} the load's
    issue time — exactly the condition under which the hardware's
    store-side check would have fired and squashed the loading thread.

    The table is pooled int storage (an address index, per-address
    chains, a free list and a record-order FIFO), so recording, querying
    and retiring allocate nothing once its capacities have grown to the
    run's working set.

    {b Precondition.} Calls to {!record_store} come in nondecreasing
    [thread] order. The simulator records threads in program order;
    {!conflict} and {!retire} rely on the order to stop early. *)

type t

val create : horizon:int -> t
(** [horizon] is the maximum number of threads simultaneously in flight
    (the core count): entries older than that are architecturally
    committed and can no longer conflict. *)

val clear : t -> horizon:int -> unit
(** Empty the table and counters, keeping the underlying storage:
    equivalent to a fresh [create ~horizon] but allocation-free, for the
    simulator's per-domain scratch arena. *)

val record_store : t -> thread:int -> addr:int -> finish:int -> unit
(** Note that [thread]'s store to [addr] completes at absolute cycle
    [finish].
    @raise Invalid_argument when [thread] is below a thread recorded
    before it (since the last {!clear}). *)

val conflict : t -> thread:int -> addr:int -> issue:int -> int
(** For a load in [thread] issued at [issue]: the latest completion time of
    a store to [addr] by a thread in [(thread - horizon, thread)] that
    completes after [issue] — i.e. the time at which the violation is
    detected — or {!no_conflict} when there is none. Allocation-free. *)

val no_conflict : int
(** [min_int]: {!conflict}'s answer when no store conflicts. *)

val retire : t -> upto:int -> unit
(** Forget stores of threads [< upto] (committed). Costs O(entries
    forgotten), not O(table). *)

val peak_entries : t -> int
(** High-water mark of live entries (to compare against a hardware MDT's
    capacity). *)

val live_entries : t -> int
(** Entries currently live (sampled by the simulator's occupancy trace). *)
