(** The SMS node-ordering phase (Llosa, PACT'96; GCC's [modulo-sched.c]).

    The ordering guarantees that when a node is scheduled, its already
    scheduled neighbours lie on one side only whenever possible, so the
    scheduling window never gets squeezed from both ends needlessly, and
    that recurrence nodes — which have the least scheduling freedom — come
    first.

    TMS reuses this order verbatim as its [Q_0] (Figure 3, line 3): one
    {!Sms.swing} per loop builds it for both. *)

type prio = {
  asap : int array;  (** {!Ts_modsched.Sched.asap_table} at the given II *)
  alap : int array;  (** latest start at the given II *)
  mob : int array;  (** mobility: [alap - asap] *)
  height : int array;  (** latency height over distance-0 edges *)
  depth : int array;  (** latency depth over distance-0 edges *)
}

val priorities : Ts_ddg.Ddg.t -> ii:int -> prio
(** Compute the per-node priority functions. [ii] must be
    recurrence-feasible (normally MII). *)

val partition : Ts_ddg.Ddg.t -> int list list
(** Step 1: node sets in scheduling priority order — each non-trivial SCC
    in decreasing RecII order together with the nodes on DDG paths linking
    it to the already-covered sets, then all remaining nodes. The sets are
    disjoint and cover the graph. *)

val compute_with_dirs :
  Ts_ddg.Ddg.t -> ii:int -> (int * Ts_modsched.Sched.direction) list
(** Step 2: the full node order, alternating bottom-up (highest depth
    first, extending through predecessors) and top-down (highest height
    first, extending through successors) sweeps inside each set. Ties are
    broken by lower mobility, then lower node id. Each node comes with
    the direction of the sweep that emitted it: nodes found bottom-up
    should be placed as late as possible ([Down]), nodes found top-down
    as early as possible ([Up]). The scheduling phase feeds this to
    {!Ts_modsched.Sched.window}. *)
