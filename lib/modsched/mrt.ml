type t = {
  machine : Ts_isa.Machine.t;
  ii : int;
  issue : int array; (* issue slots used per modulo cycle *)
  units : int array; (* unit count per FU, indexed by [fu_index] *)
  fu_use : int array array; (* per FU: units busy per modulo cycle *)
}

(* Every cell stays within [0, capacity]: [reserve] only adds what
   [fits] admitted, and [release] only takes what the cells hold. *)

let fu_index : Ts_isa.Machine.fu -> int = function
  | Fu_ialu -> 0
  | Fu_imul -> 1
  | Fu_falu -> 2
  | Fu_fmul -> 3
  | Fu_mem -> 4
  | Fu_br -> 5

let n_fu = List.length Ts_isa.Machine.fu_all

let create machine ~ii =
  if ii <= 0 then invalid_arg "Mrt.create: ii must be positive";
  let units = Array.make n_fu 0 in
  List.iter
    (fun fu -> units.(fu_index fu) <- Ts_isa.Machine.fu_count machine fu)
    Ts_isa.Machine.fu_all;
  {
    machine;
    ii;
    issue = Array.make ii 0;
    units;
    fu_use = Array.init n_fu (fun _ -> Array.make ii 0);
  }

let ii t = t.ii

let modulo t c =
  let m = c mod t.ii in
  if m < 0 then m + t.ii else m

(* Whether adding [delta] (1 or -1) times an occupancy of [busy] cycles
   from row [c0] keeps every row of [use] within [0, units]. With
   [busy <= ii] each of the [busy] rows from [c0] changes by one and no
   other row changes, so only those are read. A longer occupancy wraps:
   it takes [busy / ii] units from every row, plus one from the first
   [busy mod ii] rows from [c0]. *)
let cells_ok t use ~units ~busy ~c0 ~delta =
  let ok = ref true in
  if busy <= t.ii then begin
    let k = ref 0 in
    while !ok && !k < busy do
      let c = c0 + !k in
      let v = use.(if c >= t.ii then c - t.ii else c) + delta in
      if v < 0 || v > units then ok := false;
      incr k
    done
  end
  else begin
    let c = ref 0 in
    while !ok && !c < t.ii do
      let k = if !c >= c0 then !c - c0 else !c - c0 + t.ii in
      let demand = (busy / t.ii) + if k < busy mod t.ii then 1 else 0 in
      let v = use.(!c) + (delta * demand) in
      if v < 0 || v > units then ok := false;
      incr c
    done
  end;
  !ok

let fits t op ~cycle =
  let d = t.machine.Ts_isa.Machine.describe op in
  let f = fu_index d.fu in
  let c0 = modulo t cycle in
  t.issue.(c0) < t.machine.Ts_isa.Machine.issue_width
  && cells_ok t t.fu_use.(f) ~units:t.units.(f) ~busy:d.busy ~c0 ~delta:1

let apply t (d : Ts_isa.Machine.op_desc) c0 delta =
  let use = t.fu_use.(fu_index d.fu) in
  t.issue.(c0) <- t.issue.(c0) + delta;
  for k = 0 to d.busy - 1 do
    let c = (c0 + k) mod t.ii in
    use.(c) <- use.(c) + delta
  done

let reserve t op ~cycle =
  if not (fits t op ~cycle) then
    invalid_arg
      (Printf.sprintf "Mrt.reserve: %s does not fit at cycle %d (ii=%d)"
         (Ts_isa.Opcode.to_string op) cycle t.ii);
  apply t (t.machine.Ts_isa.Machine.describe op) (modulo t cycle) 1

let release t op ~cycle =
  let d = t.machine.Ts_isa.Machine.describe op in
  let f = fu_index d.fu in
  let c0 = modulo t cycle in
  (* Check every cell the release would decrement before touching any. *)
  if
    not
      (t.issue.(c0) >= 1
      && cells_ok t t.fu_use.(f) ~units:t.units.(f) ~busy:d.busy ~c0 ~delta:(-1))
  then invalid_arg "Mrt.release: not reserved";
  apply t d c0 (-1)

let used_issue_slots t c = t.issue.(modulo t c)
