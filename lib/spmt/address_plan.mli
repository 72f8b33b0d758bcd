(** Synthetic address streams for a loop's memory instructions.

    Every load/store node gets an affine stream [base + stride * iter]
    (array walking, the dominant SPECfp pattern), wrapped inside a
    per-node working set. Memory-dependence edges are {e realised}
    per-iteration with their profiled probability: when edge [x -> y]
    (distance [d]) fires at consumer iteration [i], the consumer's address
    is forced to equal the producer's address at iteration [i - d], which
    is what makes the MDT see a genuine cross-thread conflict. All
    randomness is seeded, so a loop replays identically across SMS, TMS
    and single-threaded runs. *)

type t

val create : ?seed:string -> Ts_ddg.Ddg.t -> t
(** Build streams for a DDG. The default seed is the loop's name. *)

val addr : t -> node:int -> iter:int -> int
(** Address accessed by memory node [node] at iteration [iter]. Raises
    [Invalid_argument] for a non-memory node. *)

val streams : t -> int array
(** The plan's own table of the nodes' private affine streams, read-only:
    [3 * node] holds the base, [+ 1] the stride and [+ 2] the working set
    minus one, a mask (working sets are powers of two), or -1 for a
    non-memory node. The simulator's address path reads it, and so does
    its fast path, for each store stream's address period
    [working_set / gcd stride working_set]. *)

val realised : t -> edge_index:int -> iter:int -> bool
(** Does memory-dependence edge [edge_index] (index into the DDG's edge
    array) actually alias at consumer iteration [iter]? Decided by a coin
    with the edge's probability, seeded per (edge, iteration): never
    before the edge's distance, always for a probability of 1, else
    [Rng.coin2 (root t) edge_index iter prob]. *)

val root : t -> Ts_base.Rng.t
(** The generator [realised]'s coins derive from; never advanced. *)
