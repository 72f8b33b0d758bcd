(** Synthetic stand-ins for the 13 SPECfp2000 benchmarks of Table 2.

    The paper modulo-schedules 778 innermost loops drawn from SPECfp2000
    (galgel excluded). We cannot run GCC on SPEC sources here, so each
    benchmark is replaced by a deterministic generator calibrated against
    the three per-benchmark statistics Table 2 reports — loop count,
    average instruction count and average MII — plus a recurrence/memory
    profile inferred from the paper's discussion (art is recurrence-bound;
    wupwise has one dominant non-trivial SCC; lucas has very large bodies;
    etc.). Loop coverage ratios (needed to turn loop speedups into program
    speedups, Fig. 4) are not reported in the paper for these benchmarks,
    so plausible per-benchmark constants are used and documented here. *)

type bench = {
  name : string;
  n_loops : int;  (** Table 2 column 2 *)
  avg_inst : float;  (** Table 2 column 3 (target) *)
  avg_mii : float;  (** Table 2 column 4 (target) *)
  coverage : float;  (** fraction of program time in the scheduled loops *)
  rec_frac : float;  (** fraction of loops given a dominant recurrence *)
  mem_prob : float * float;  (** memory-dependence probability range *)
  trip : int;  (** iterations per loop when simulated *)
  fp_frac : float;  (** floating-point share of non-memory instructions *)
  fmul_frac : float;  (** multiply share of the floating point mix *)
}

val benchmarks : bench list
(** The 13 benchmarks, in Table 2 order. Loop counts sum to 778. *)

val find : string -> bench
(** Lookup by name. Raises [Not_found]. *)

val loop : bench -> int -> Ts_ddg.Ddg.t
(** Loop [i], named ["<bench>_<i>"]: deterministic in the benchmark name
    and [i] alone, so each loop can be generated on its own. *)

val loop_count : ?limit:int -> bench -> int
(** [n_loops], or at most [limit] of them. *)

val loops : ?limit:int -> bench -> Ts_ddg.Ddg.t list
(** The benchmark's first [loop_count ?limit bench] loops, in order. *)

val total_loops : int
(** 778. *)
