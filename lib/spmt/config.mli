(** Full simulator configuration — the paper's Table 1.

    A quad-core SpMT system on a unidirectional ring: per-core L1 caches and
    functional units, a shared L2, and a memory disambiguation table
    between L1 and L2. The paper's 64-entry speculative write buffer per
    core is not modelled: a store never waits for a buffer entry. The
    [params.cores] descriptors and the [placement] policy generalise the
    machine to asymmetric (big.LITTLE-style) rings; the defaults are the
    paper's values for every other parameter. *)

type t = {
  params : Ts_isa.Spmt_params.t;  (** cores + cost parameters *)
  placement : Ts_isa.Placement.policy;
      (** thread-to-core allocation (default {!Ts_isa.Placement.Round_robin},
          the paper's [j mod ncore]) *)
  l1_hit : int;  (** L1 D-cache hit latency (3) *)
  l2_hit : int;  (** shared L2 hit latency (12) *)
  mem_latency : int;  (** L2 miss latency (80) *)
  l1_size : int;  (** bytes (16 KB) *)
  l1_assoc : int;  (** ways (4) *)
  l2_size : int;  (** bytes (1 MB) *)
  l2_assoc : int;  (** ways (4) *)
  line : int;  (** cache line size in bytes (32) *)
}

val default : t
(** Table 1 values, 4 homogeneous cores, round-robin placement. *)

val two_core : t
(** Same but 2 cores (the Figure 2 walkthrough). *)

val with_ncore : t -> int -> t
(** @raise Invalid_argument when the count is outside
    [1, {!Ts_isa.Spmt_params.max_ncore}]. *)

val with_placement : t -> Ts_isa.Placement.policy -> t

val pp : Format.formatter -> t -> unit
(** Render the Table 1 rows. *)
