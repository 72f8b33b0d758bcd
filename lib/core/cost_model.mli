(** The Section 4.2 cost model: execution time of a modulo-scheduled loop on
    an SpMT multicore.

    [T = T_nomiss + T_mis_spec] where, for a loop of [N] iterations:

    - [T_nomiss = max (C_spn, C_ci, C_delay, T_lb / ncore) * N] with
      [T_lb = II + C_ci + max (C_spn, C_delay)] (equation 2): threads are
      serialised by whichever is largest of the spawn overhead, the commit
      overhead and the synchronisation delay — unless cores saturate, in
      which case throughput is one thread of length [T_lb] per [ncore]
      cores.
    - [T_mis_spec = (II + C_inv - max (0, C_delay - C_spn)) * P_M * N]
      where [P_M = 1 - prod (1 - p_e)] over the non-preserved inter-thread
      memory dependences (equation 3). *)

type t = Ts_isa.Spmt_params.t

val f_value : t -> ii:int -> c_delay:int -> float
(** The objective [F (II, C_delay) = T_nomiss / N] of Figure 3 line 4. *)

val f_min_start : t -> mii:int -> float
(** [F (MII, 1 + c_reg_com)] — Figure 3 line 5, the smallest conceivable
    objective value ([1 + c_reg_com] is the smallest possible non-zero
    synchronisation delay by Definition 2). *)

val t_nomiss : t -> ii:int -> c_delay:int -> n:int -> float
(** Equation 2. *)

val p_m : float list -> float
(** Equation 3: misspeculation probability of a kernel iteration from the
    probabilities of its non-preserved inter-thread memory dependences. *)

val misspec_penalty : t -> ii:int -> c_delay:int -> float
(** Cycles lost per misspeculation:
    [II + C_inv - max (0, C_delay - C_spn)]. *)

val t_mis_spec : t -> ii:int -> c_delay:int -> p_m:float -> n:int -> float

val estimate : t -> ii:int -> c_delay:int -> p_m:float -> n:int -> float
(** [T = T_nomiss + T_mis_spec]: the model's prediction for a scheduled
    kernel, comparable against the simulator's measurement. *)

val f_frontier :
  t ->
  mii:int ->
  ii_max:int ->
  cd_min:int ->
  cd_max:int ->
  (float * (int * int) list) Seq.t
(** The Figure 3 "for every (II, C_delay) s.t. F = F_min" enumeration,
    walked by every thread-sensitive scheduler: the candidate
    [(II, C_delay)] points of [\[mii, ii_max\] × \[cd_min, cd_max\]]
    grouped by objective value, groups in increasing [F] order. Figure 3
    starts at [cd_min = 1 + c_reg_com]; the TMS search starts at the
    larger of that and its [C_delay] floor. [F] is a
    multiple of [1/ncore] (groups are keyed on [round (F · ncore)]), so
    grouping is exact. Within a group only the largest [C_delay] per II
    is kept (identical objective, weakest admission constraints), points
    ordered by increasing II. The grid is empty when [ii_max < mii] or
    [cd_max < cd_min].

    Lazy and output-sensitive: one cursor per II row, advanced as groups
    are produced, so a walk that stops after [k] groups pays for the
    points of those groups plus one scan of the row heads per group, not
    for the rectangle. This relies on [F] not decreasing as [C_delay]
    grows.

    The sequence is {e ephemeral}: its nodes share the cursors, so it
    can be traversed once, and forcing a node a second time is wrong.
    Call [f_frontier] again for a fresh walk. *)
