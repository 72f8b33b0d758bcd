(** Deterministic differential fuzzing of the whole pipeline.

    Three unit-level phases first drive the production [Mdt], [Cache] and
    [Mrt] structures against the naive {!Ref_models} with randomized
    (fixed-seed) operation streams biased toward their boundary cases
    (horizon edges, set conflicts, busy-cycle wrap-around). Then, per
    fuzz seed, a loop is generated with {!Ts_workload.Gen}, scheduled
    with SMS, TMS and TMS-over-IMS at several [(ncore, c_reg_com)]
    points, and each resulting kernel is

    - validated from first principles ({!Invariant.check_kernel}),
      including the C1/C2 claim for non-fallback TMS results;
    - used as a self-test of [Kernel.of_times]'s dependence guard (a
      one-cycle perturbation of a feasible schedule must be rejected);
    - probed at the C1 admission boundary (the kernel's own max-sync slot
      must be admitted at [C_delay = max sync] and rejected one below);
    - simulated with [Sim.run ~check:true] (runtime invariants plus
      MDT/cache reference mirroring) under the realistic memory
      hierarchy;
    - simulated again with memory flattened to the L1 hit cost and
      compared against {!Ts_tms.Cost_model.estimate} — which models no
      cache — within the configured multiplicative tolerance band.

    A long-run leg follows: every fourth seed's kernels run the fast
    path beside the checked exact engine again at the paper's length
    (warmup 512, trip 2000) on each point's machine. Only there does
    every load stream wrap its working set, so that an extrapolated
    thread's replayed loads can leave the signature's latency pattern:
    the short runs end about two detection windows after the fast path
    engages.

    Everything is seeded from the fuzz seed through {!Ts_base.Rng}, so a
    failure reproduces bit-for-bit; a failing loop is then shrunk by
    greedy node/edge deletion and printed as a parseable [.ddg] file. *)

type point = { ncore : int; c_reg_com : int }

type config = {
  seeds : int;  (** fuzz seeds to try (0, 1, ...) *)
  trip : int;  (** measured iterations per simulation *)
  warmup : int;  (** warmup iterations per simulation *)
  tol_rel : float;
      (** multiplicative sim-vs-cost-model tolerance: cycles must lie in
          [[est / tol_rel - tol_abs, est * tol_rel + tol_abs]] *)
  tol_abs : float;  (** absolute slack added to both band edges, in cycles *)
  points : point list;  (** machine points exercised per seed *)
  unit_rounds : int;  (** rounds per unit-level differential phase *)
  shrink_budget : int;  (** max candidate re-tests while shrinking *)
}

val default_config : config
(** 200 seeds, trip 96, warmup 16, points [(1,3); (2,1); (4,3); (8,8)]
    (the first being the degenerate single-core machine), and the
    tolerance band documented in EXPERIMENTS.md. *)

type failure = {
  seed : int;  (** fuzz seed, or -1 for a unit-level phase *)
  subject : string;
      (** what failed: ["mdt-model"], ["cache-model"], ["mrt-model"], or
          the scheduler name (["sms"], ["tms"], ["tms-ims"]) *)
  point : point option;  (** the machine point, for per-seed failures *)
  reason : string;
  ddg : Ts_ddg.Ddg.t option;  (** shrunken counterexample loop *)
}

val pp_failure : Format.formatter -> failure -> unit
(** Human-readable report; includes the [.ddg] text when a loop is
    attached. *)

val check_mdt_model : rounds:int -> string option
(** Differential streams over [Ts_spmt.Mdt] vs {!Ref_models.Mdt}. *)

val check_cache_model : rounds:int -> string option
(** Differential streams over [Ts_spmt.Cache] vs {!Ref_models.Cache}. *)

val check_mrt_model : rounds:int -> string option
(** Differential streams over [Ts_modsched.Mrt] vs {!Ref_models.Mrt}. *)

val loop_for_seed : int -> Ts_ddg.Ddg.t
(** The generated loop for a fuzz seed (shape varies with the seed). *)

val test_loop : config -> point -> Ts_ddg.Ddg.t -> (string * string) option
(** Run the full per-kernel battery on one loop at one point;
    [(subject, reason)] for the first failure. Deterministic. *)

val check_seed : config -> int -> failure option
(** {!loop_for_seed} + {!test_loop} at every configured point. The
    returned failure carries the unshrunk loop. The long-run leg is
    {!run}'s alone. *)

val shrink :
  ?budget:int -> (Ts_ddg.Ddg.t -> bool) -> Ts_ddg.Ddg.t -> Ts_ddg.Ddg.t
(** [shrink still_fails g] greedily deletes nodes and edges while
    [still_fails] holds, to a fixpoint or until the budget of candidate
    evaluations runs out. *)

val run : ?jobs:int -> ?log:(string -> unit) -> config -> failure option
(** Unit phases, then every seed, then the long-run leg (each on up to
    [jobs] domains, results deterministic regardless); the first failing
    phase's smallest failing seed is shrunk and returned. [log] receives
    progress lines. *)
