(** Deterministic pseudo-random number generation.

    All randomness in the library flows through this module so that every
    experiment is reproducible bit-for-bit. The generator is SplitMix64
    (Steele, Lea & Flood, OOPSLA'14): a tiny, fast, well-distributed
    generator whose streams can be split deterministically, which lets us
    give every (suite, benchmark, loop, role) tuple its own independent
    stream. *)

type t
(** A mutable generator. Distinct values of [t] evolve independently. *)

val create : int64 -> t
(** [create seed] makes a fresh generator from a 64-bit seed. *)

val of_string : string -> t
(** [of_string s] seeds a generator from an arbitrary label (FNV-1a hash of
    [s]); used to derive per-entity streams from readable names. *)

val split : t -> string -> t
(** [split t label] derives a new independent generator from [t]'s current
    state and [label], without disturbing [t]'s own stream. *)

val derive2 : t -> int -> int -> t
(** [derive2 t a b] derives an independent generator from [t]'s current
    state and the pair [(a, b)], without disturbing [t]. Cheaper than
    {!split} with a formatted label; used in simulator hot paths (one
    stream per (edge, iteration)). *)

val coin2 : t -> int -> int -> float -> bool
(** [coin2 t a b p] is [bool (derive2 t a b) p], bit for bit, without
    allocating: the per-(edge, iteration) coin of the simulator's address
    streams. *)

val coin2_key_a : t -> int -> int64
val coin2_key_b : int -> int64

val coin2_keyed : int64 -> int64 -> float -> bool
(** [coin2_keyed (coin2_key_a t a) (coin2_key_b b) p] is [coin2 t a b p],
    bit for bit: a caller that rolls a grid of coins hashes each key
    once. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> float -> bool
(** [bool t p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)

val pick_weighted : t -> ('a * float) array -> 'a
(** [pick_weighted t choices] picks proportionally to the (positive)
    weights. The array must be non-empty with positive total weight. *)
