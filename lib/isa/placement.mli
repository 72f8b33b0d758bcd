(** Thread-to-core allocation policies for the SpMT ring.

    The paper spawns thread [j] on core [j mod ncore]. On a homogeneous
    ring that is also ring-order optimal (every distance-1 dependence
    travels one hop), but on an asymmetric machine *which core a thread
    lands on* becomes a first-class performance axis (ROADMAP item 4; cf.
    SYNPA and the thread-to-core allocation-policy family in PAPERS.md).

    A policy compiles, against a machine description, into a periodic
    placement map: thread [j] runs on [seq.(j mod period)]. Periods may
    exceed [ncore] — a weighted map visits fast cores more often than
    slow ones. All policies degenerate to round-robin on a homogeneous
    machine. *)

type policy =
  | Round_robin
      (** the paper's [j mod ncore], with the legacy thread-forwarding
          communication model — bit-identical to the pre-policy code *)
  | Locality
      (** weighted ring walk: consecutive iterations land on
          ring-adjacent cores (minimal SEND/RECV hop distance) and fast
          cores receive proportionally more threads *)
  | Sync_aware
      (** keep dependent iterations on fast cores: round-robin over the
          fastest core tier only, so no RECV on the cross-iteration sync
          chain ever pays a slow core's latency scale *)

val all : policy list

val policy_to_string : policy -> string
(** ["round-robin"], ["locality"], ["sync"]. *)

val policy_of_string : string -> policy option
(** Inverse of {!policy_to_string}; also accepts ["rr"],
    ["locality-aware"], ["sync-aware"]. *)

val pp_policy : Format.formatter -> policy -> unit

type t
(** A policy compiled against a machine: the periodic thread→core map. *)

val make : policy -> Spmt_params.t -> t
(** Compile. @raise Invalid_argument on malformed params
    ({!Spmt_params.validate}). *)

val policy : t -> policy

val period : t -> int
(** Length of the placement cycle ([>= 1]; [ncore] for round-robin). *)

val core : t -> int -> int
(** [core t j] — the core thread [j] runs on. *)

val seq : t -> int array
(** One period of the map (a copy). *)

val comm_cycles : t -> dk:int -> dst:int -> int
(** Cycles for a synchronised register value to travel a kernel distance
    of [dk] into consumer thread [dst]. Round-robin: [dk * c_reg_com]
    (Definition 2, unchanged). Other policies: the unidirectional-ring
    hop distance between the assigned cores times [c_reg_com] (1 cycle
    when the threads share a core), plus the receiving core's
    [lat_scale - 1] slowdown on the RECV. *)

val cores_used : t -> int
(** Distinct cores the map touches ([<= ncore]; smaller for
    {!Sync_aware} on an asymmetric machine). *)

val effective_params : policy -> Spmt_params.t -> Spmt_params.t
(** The machine as the TMS/TMS-IMS cost model should see it under the
    policy: [c_reg_com] becomes the worst distance-1 {!comm_cycles}
    anywhere in the period (so C1/C_delay admission and the F objective
    price the real hop distances and target-core speeds), and [ncore]
    becomes {!cores_used}. {!Round_robin} returns the params unchanged —
    scheduling stays bit-identical to the pre-policy code. *)

val describe : t -> string
(** E.g. ["locality: [0 1 2 3 0 1]"] — one period of the map. *)
