(** Modulo reservation table.

    Tracks functional-unit and issue-slot occupancy modulo II. An
    instruction placed at cycle [c] occupies one issue slot at [c mod II]
    and its functional unit for [busy] consecutive modulo cycles starting
    at [c mod II] (unpipelined units have [busy > 1]).

    No cell ever holds more than its unit count or the issue width: only
    [reserve] adds, and only what [fits] admitted. That invariant is what
    lets [fits] look at the cells the instruction would occupy and nothing
    else. *)

type t

val create : Ts_isa.Machine.t -> ii:int -> t

val ii : t -> int

val fits : t -> Ts_isa.Opcode.t -> cycle:int -> bool
(** Can an instruction of this class be placed at [cycle] without exceeding
    any unit count or the issue width? [cycle] may be any integer (it is
    reduced modulo II). Allocates nothing; costs O(busy) when
    [busy <= II], and O(II) when the occupancy wraps around the table. *)

val reserve : t -> Ts_isa.Opcode.t -> cycle:int -> unit
(** Claim the resources. Raises [Invalid_argument] if [fits] is false. *)

val release : t -> Ts_isa.Opcode.t -> cycle:int -> unit
(** Undo a [reserve] (used by schedulers that eject instructions). Raises
    [Invalid_argument "Mrt.release: not reserved"] when some cell it would
    free holds too little, and then leaves the table unchanged. *)

val used_issue_slots : t -> int -> int
(** Issue slots currently taken at a modulo cycle (for tests/statistics). *)
