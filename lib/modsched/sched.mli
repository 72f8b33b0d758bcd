(** Partial modulo schedules and scheduling windows.

    A partial schedule maps a growing subset of the DDG's nodes to issue
    cycles (arbitrary integers; the kernel extraction normalises them) and
    keeps the modulo reservation table in sync. The scheduling window of an
    unplaced node [v] (Section 4.1) is derived from its already-scheduled
    neighbours:

    - predecessors give the earliest start
      [E = max (t(u) + lat(u) - II * d(u, v))];
    - successors give the latest start
      [L = min (t(s) - lat(v) + II * d(v, s))];
    - both: try [E .. min (L, E + II - 1)] upward; only predecessors: try
      [E .. E + II - 1] upward; only successors: try [L] downward to
      [L - II + 1] (the paper's "[7, 0] with the largest cycle tried
      first"); neither: try [ASAP(v) .. ASAP(v) + II - 1] upward. *)

type t

val asap_table : Ts_ddg.Ddg.t -> ii:int -> int array
(** Per-node static earliest start times at [ii] (longest path from a
    virtual source over weights [lat - II * distance], clamped at 0).
    Depends only on [(g, ii)], so grid searches that revisit an II can
    compute it once and feed it back through [create ?asap]. Raises
    [Invalid_argument] when [ii] is below the recurrence-constrained
    minimum (the relaxation would diverge). *)

val create : ?asap:int array -> Ts_ddg.Ddg.t -> ii:int -> t
(** Empty schedule at the given II. [asap] must be [asap_table g ~ii] (it
    is trusted and shared, not copied); when absent it is computed. *)

val ddg : t -> Ts_ddg.Ddg.t
val ii : t -> int

val time : t -> int -> int option
(** Issue cycle of a node, if placed. *)

val is_scheduled : t -> int -> bool
val n_scheduled : t -> int

val scheduled_nodes : t -> int list
(** Placed node ids, in placement order. *)

val asap : t -> int -> int
(** Static earliest start of a node at this II (longest-path from the
    virtual source over weights [lat - II * distance], clamped at 0). *)

val reg_active_mask : t -> bool array
(** One flag per edge of {!Ts_ddg.Ddg.reg_edge_array}: [true] iff both
    endpoints are placed and the dependence is inter-iteration in the
    partial schedule (kernel distance [>= 1]). Maintained incrementally by
    {!place}/{!unplace} — admission checks read it instead of rescanning
    the edge array. Callers must not mutate it. *)

val mem_active_mask : t -> bool array
(** Same, for {!Ts_ddg.Ddg.mem_edge_array}. *)

type direction = Up | Down

val window : ?prefer:direction -> t -> int -> (int * int * direction) option
(** [window t v] is [(lo, hi, dir)] — candidate cycles are
    [lo .. hi]; [dir] says which end to try first ([Up] = ascending).
    [None] when the window is empty (scheduled neighbours are
    contradictory at this II and the attempt must restart).

    When only predecessors (successors) are scheduled the scan direction is
    forced to [Up] ([Down]) — as close to them as possible; a node with no
    scheduled neighbours starts at its ASAP, ascending. When both sides
    are scheduled, [prefer] (default [Up]) decides: SMS passes the
    direction of the ordering sweep that emitted the node, so nodes
    ordered bottom-up are placed as late as their window allows, next to
    their consumers. *)

val fits : t -> int -> cycle:int -> bool
(** Resource check for placing node [v] at [cycle] (pure). *)

val place : t -> int -> cycle:int -> unit
(** Place a node; reserves resources. Raises [Invalid_argument] if the node
    is already placed or does not fit. *)

val unplace : t -> int -> unit
(** Evict a placed node, releasing its resources (iterative modulo
    scheduling backtracks this way). Raises [Invalid_argument] if the node
    is not placed. *)

val is_complete : t -> bool

val times_exn : t -> int array
(** All issue cycles; raises if the schedule is incomplete. *)
