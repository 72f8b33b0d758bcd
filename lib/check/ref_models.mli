(** Naive reference semantics for the simulator's stateful structures.

    Each model here implements the same observable contract as its
    production counterpart ({!Ts_spmt} [Cache]/[Mdt], {!Ts_modsched}
    [Mrt]) with the simplest data structure that can express it — flat
    lists scanned in O(n), timestamps instead of maintained age
    permutations — so the two implementations share no code and no
    algorithmic shortcuts. Differential tests drive both with the same
    operation stream and compare every answer; [Sim.run ~check:true]
    mirrors its cache and MDT traffic through these at runtime. *)

(** Set-associative LRU cache: per-set slots carrying a last-use
    timestamp from a global counter. The victim is the slot least
    recently touched; invalidation clears a slot's tag but {e not} its
    recency (matching the production cache, whose age permutation is
    untouched by invalidation). *)
module Cache : sig
  type t

  val create : size:int -> assoc:int -> line:int -> t
  val access : t -> int -> bool
  val probe : t -> int -> bool
  val invalidate : t -> int -> unit
  val fill : t -> int -> unit
  val stats : t -> int * int
  val reset_stats : t -> unit
end

(** Memory disambiguation table: one flat list of
    [(thread, addr, finish)] store records. A load in [thread] conflicts
    with the latest-finishing store to the same address by a less
    speculative thread still in flight ([thread - horizon < t' < thread])
    that finishes after the load issues. Recording a store drops stale
    same-address records; [retire] drops everything below a thread
    bound. *)
module Mdt : sig
  type t

  val create : horizon:int -> t
  val record_store : t -> thread:int -> addr:int -> finish:int -> unit
  val conflicting_store : t -> thread:int -> addr:int -> issue:int -> int option
  val retire : t -> upto:int -> unit
  val live_entries : t -> int
  val peak_entries : t -> int
end

(** Modulo reservation table: a bag of [(opcode, row)] reservations,
    re-counted in full on every query. [fits] unrolls each reservation's
    multi-cycle FU occupancy (with wrap-around when [busy > II]) and
    checks both per-row issue width and per-cell unit counts. *)
module Mrt : sig
  type t

  val create : Ts_isa.Machine.t -> ii:int -> t
  val fits : t -> Ts_isa.Opcode.t -> cycle:int -> bool
  val reserve : t -> Ts_isa.Opcode.t -> cycle:int -> unit
  (** No feasibility check: the reference is driven in lock-step with a
      production table that already validated the slot. *)

  val release : t -> Ts_isa.Opcode.t -> cycle:int -> unit
  (** Removes one matching reservation; raises [Invalid_argument] if none
      exists. *)
end
