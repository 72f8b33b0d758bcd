(** SpMT cost parameters shared by the TMS cost model and the simulator.

    These are the Table 1 values the scheduler itself needs: the number of
    cores, the SEND/RECV register-communication latency [c_reg_com]
    (Definition 2), and the spawn / commit / invalidation overheads of the
    Section 4.2 cost model. The full simulator configuration (caches,
    placement) lives in [Ts_spmt.Config] and embeds one of these.

    The paper's machine is a homogeneous quad-core; {!core} descriptors
    generalise it to big.LITTLE-style asymmetric rings (ROADMAP item 4)
    while keeping the homogeneous case as the degenerate — and
    bit-identical — default. *)

type core = {
  issue_width : int;
      (** instructions the core may start per cycle; [0] = unbounded
          (the idealised out-of-order issue the paper assumes) *)
  lat_scale : int;
      (** multiplier on functional-unit latencies ([>= 1]); cache and
          memory latencies are shared-system properties and stay
          unscaled *)
}
(** One core's execution resources. *)

val default_core : core
(** [{ issue_width = 0; lat_scale = 1 }] — the paper's idealised core. *)

val fast_core : core
(** [{ issue_width = 4; lat_scale = 1 }] — the "big" core of a mix: Table
    1's 4-wide issue, full speed. *)

val slow_core : core
(** [{ issue_width = 2; lat_scale = 2 }] — the "LITTLE" core: 2-wide,
    functional-unit latencies doubled. *)

type t = {
  ncore : int;  (** cores participating in the loop (paper: 4) *)
  c_reg_com : int;  (** SEND + hop + RECV latency (paper: 3) *)
  c_spawn : int;  (** thread spawn overhead [C_spn] (paper: 3) *)
  c_commit : int;  (** head-thread commit overhead [C_ci] (paper: 2) *)
  c_inv : int;  (** squash/invalidation overhead [C_inv] (paper: 15) *)
  cores : core array;
      (** per-core descriptors in ring order; [[||]] means [ncore]
          copies of {!default_core} (the homogeneous machine). When
          non-empty the length equals [ncore]. *)
}

val max_ncore : int
(** 64 — the largest ring the simulator (and the domain pool sizing)
    supports; {!with_ncore} and the CLI reject larger requests. *)

val default : t
(** The Table 1 quad-core configuration. *)

val two_core : t
(** The Figure 2 walkthrough uses two cores; identical costs otherwise. *)

val heterogeneous : t -> bool
(** [true] iff [cores] is non-empty, i.e. at least one core differs from
    {!default_core} (all-default arrays are normalised away). *)

val core_desc : t -> int -> core
(** Descriptor of core [i] (the homogeneous default when [cores] is
    empty). *)

val with_ncore : t -> int -> t
(** Same costs, different core count (used by the scaling ablations).
    An explicit core mix is re-tiled cyclically onto the new count.
    @raise Invalid_argument when [ncore] is outside [1, max_ncore]. *)

val with_cores : t -> core array -> t
(** Replace the per-core descriptors; [ncore] becomes the array length.
    @raise Invalid_argument on an empty/oversized array or a malformed
    descriptor ([issue_width < 0] or [lat_scale < 1]). *)

val validate : who:string -> t -> unit
(** Boundary check: core count in range, descriptor array consistent.
    @raise Invalid_argument otherwise, prefixed with [who]. *)

val mix_of_string : string -> (int * core array, string) result
(** Parse a core-count specification: a bare integer ["8"] (homogeneous)
    or a '+'-separated mix of [\[count\]fast] / [\[count\]slow] groups —
    ["2fast+2slow"], ["fast+3slow"], ["4fast"]. Returns the total core
    count and the descriptor array ([[||]] for homogeneous). *)

val apply_mix : t -> int * core array -> t
(** Install a parsed {!mix_of_string} result into [t]. *)

val mix_to_string : t -> string
(** Render the machine back into the {!mix_of_string} grammar ("4",
    "2fast+2slow", ...). *)

val pp : Format.formatter -> t -> unit
