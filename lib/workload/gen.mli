(** Random loop-body generator.

    Produces DDGs with controllable shape so that a synthetic suite can be
    calibrated against Table 2's per-benchmark statistics (instruction
    count, MII, recurrence structure, memory-dependence probabilities).
    Generation is driven entirely by the supplied RNG, so a (seed, profile)
    pair always yields the same loop. *)

type profile = {
  name : string;
  machine : Ts_isa.Machine.t;
  n_inst : int;  (** exact instruction count *)
  mem_frac : float;  (** fraction of loads + stores (loads 2:1 stores) *)
  fp_frac : float;  (** fraction of the rest that is floating point *)
  fmul_frac : float;
      (** fraction of the floating-point ops that are multiplies; the
          machine has a single (pipelined) multiplier, so a high value
          makes the loop multiplier-bound (art's dot-product kernels) *)
  fanin : float;  (** mean register inputs per instruction (1..2) *)
  self_loop_rate : float;  (** accumulator probability per eligible node *)
  target_rec_ii : int option;
      (** if set, inject a distance-1 recurrence circuit whose latency sum
          approximates this RecII (DOACROSS loops); [None] leaves only
          accumulators *)
  n_extra_sccs : int;  (** additional small recurrences (Table 3's #SCC) *)
  mem_dep_rate : float;  (** expected cross-iteration memory dependences
                             per store *)
  mem_prob : float * float;  (** probability range for those dependences *)
  mem_rec : bool;
      (** allow memory dependences that close recurrences (as in the
          motivating example); when false, only store-to-load pairs that do
          not create a new cycle are considered *)
  ldp_target : int option;
      (** if set, chain extra distance-0 edges (avoiding the recurrence
          circuit) until the longest dependence path reaches roughly this
          many cycles — Table 3 reports LDP well above MII *)
}

val default_profile : profile
(** A medium, mostly resource-bound loop on the SpMT machine. *)

val generate : Ts_base.Rng.t -> profile -> Ts_ddg.Ddg.t
(** Generate one loop. The result always validates, is schedulable (its
    distance-0 subgraph is acyclic), and has at least one store and one
    load when [mem_frac > 0]. *)

val schedulable :
  ?probe:(Ts_ddg.Ddg.t -> Ts_sms.Sms.result) ->
  key:(int -> string) ->
  (Ts_base.Rng.t -> Ts_ddg.Ddg.t) ->
  Ts_ddg.Ddg.t
(** [schedulable ~key draw] is the first [draw (Rng.of_string (key
    attempt))], attempt = 0, 1, ..., that [probe] accepts (one probe
    each), or else the unprobed draw of attempt 6. A draw is rejected
    when [probe] raises {!Ts_sms.Sms.No_schedule}.

    [probe] defaults to {!Ts_sms.Sms.schedule}. A caller that schedules
    the loop with SMS anyway passes its own SMS (a cached one, say) and
    keeps the accepted draw's result, so the loop costs one SMS run. *)
