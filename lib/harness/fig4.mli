(** Figure 4: speedups of TMS over SMS on the quad-core SpMT system.

    Every loop of every benchmark is simulated under both schedules with
    identical address streams; the per-benchmark loop speedup is the ratio
    of total SMS cycles to total TMS cycles, and the program speedup
    applies Amdahl's law with the benchmark's loop coverage ratio. The
    paper reports positive loop speedups everywhere but wupwise, 28%
    average loop speedup and 10% average program speedup. *)

type row = {
  bench : string;
  loop_speedup : float;  (** percent *)
  program_speedup : float;  (** percent *)
  sms_cycles : int;
  tms_cycles : int;
}

val program_speedup_of : coverage:float -> loop_speedup_pct:float -> float
(** Amdahl: program speedup (percent) from a loop speedup (percent) and
    the fraction of program time spent in the loops. *)

val compute : (Ts_workload.Spec_suite.bench * Suite.loop list) list -> row list
(** One row per benchmark of a {!Suite.compute} pass, in its order. *)

val averages : row list -> float * float
(** [(avg loop speedup, avg program speedup)], simple means as in the
    paper's "28% and 10%". *)

val render : row list -> string
