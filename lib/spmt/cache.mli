(** Set-associative cache with LRU replacement.

    Used for the per-core L1 data caches and the shared L2. Timing is not
    kept here — the simulator translates hit/miss answers into latencies —
    so the structure is a pure content model. *)

type t

val create : size:int -> assoc:int -> line:int -> t
(** [size] bytes, [assoc] ways, [line]-byte blocks. All three must be
    powers of two with [size >= assoc * line]. *)

val access : t -> int -> bool
(** [access t addr] is [true] on hit. On miss the block is filled over the
    least recent way. Either way it becomes its set's most recent. *)

val probe : t -> int -> bool
(** Hit test without state change. *)

val invalidate : t -> int -> unit
(** Drop the block containing [addr] if present (cross-core invalidation on
    commit, and thread-squash cleanup). The emptied way keeps its place in
    the recency order: it is evicted only once it is the least recent. *)

val fill : t -> int -> unit
(** Insert the block containing [addr] as its set's most recent, without
    counting a hit or a miss (store commit). *)

val stats : t -> int * int
(** [(hits, misses)] accumulated by [access]. *)

val reset_stats : t -> unit
(** Zero the hit/miss counters (content untouched) — used to exclude a
    warmup phase from the reported numbers. *)

val reset : t -> unit
(** Return the cache to its freshly-created state: every line invalid,
    counters zeroed. Lets the simulator's scratch arena reuse one
    allocation across runs instead of re-creating the tag array per sweep
    point; observationally identical to [create] with the same
    geometry. It costs O(sets that took a block since the last reset). *)
