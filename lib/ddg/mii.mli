(** Lower bounds on the initiation interval, and the LDP metric.

    [MII = max(ResII, RecII)]:
    - {b ResII} is the resource-constrained bound: for each functional-unit
      class, the total unit-occupancy demanded by one iteration divided by
      the number of units, and the issue-width bound [ceil(n / width)].
    - {b RecII} is the recurrence-constrained bound: the maximum over all
      dependence cycles of [ceil(total latency / total distance)]. We
      compute it exactly by binary search on II with a Bellman–Ford
      positive-cycle test on edge weights [lat(src) - II * distance].

    {b LDP} (longest dependence path, Section 5) is the longest
    latency-weighted path through the intra-iteration (distance-0) subgraph;
    together with MII it delineates the II range in which ILP is
    exploitable. *)

val res_ii : Ddg.t -> int
(** Resource-constrained minimum II (at least 1). *)

val rec_ii : Ddg.t -> int
(** Recurrence-constrained minimum II; 0 when the DDG is acyclic. *)

val rec_ii_of_nodes : Ddg.t -> int list -> int
(** RecII of the subgraph induced by the given nodes (used to prioritise
    SCCs in the SMS ordering phase). *)

val reg_rec_ii : Ddg.t -> int
(** RecII of the register-dependence subgraph; 0 when no register
    recurrence exists. Every register recurrence forces a synchronisation
    delay of at least [c_reg_com + reg_rec_ii]: the TMS search's
    [C_delay] floor. *)

val mii : Ddg.t -> int
(** [max (res_ii t) (rec_ii t)], at least 1. *)

val ldp : Ddg.t -> int
(** Longest dependence path: maximum sum of node latencies along a path of
    distance-0 edges. Raises [Invalid_argument] if the distance-0 subgraph
    has a cycle (such a loop has no valid schedule at any II). *)

val feasible : Ddg.t -> ii:int -> bool
(** Whether the recurrence constraints admit [ii] (no positive cycle); used
    both by [rec_ii] and by property tests. *)

val ii_upper_bound : Ddg.t -> int
(** A guaranteed-schedulable II upper bound used to terminate the II
    escalation loops: every node can be laid out serially below it. *)
