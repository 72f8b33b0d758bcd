type violation = { what : string; detail : string }

let pp_violation ppf v = Format.fprintf ppf "%s: %s" v.what v.detail

let report vs =
  String.concat "\n" (List.map (fun v -> v.what ^ ": " ^ v.detail) vs)

type claim = { c_delay : int; p_max : float; c_reg_com : int }

exception Check_failed of string

let fail msg = raise (Check_failed msg)
let failf fmt = Printf.ksprintf fail fmt

(* Collector: checks push violations; callers read the reversed list. The
   polymorphic record field keeps [add] usable at several format arities
   within one function. *)
type adder = { add : 'a. string -> ('a, unit, string, unit) format4 -> 'a }

let make () =
  let acc = ref [] in
  let add what fmt =
    Printf.ksprintf (fun detail -> acc := { what; detail } :: !acc) fmt
  in
  (acc, { add })

let name g v = (Ts_ddg.Ddg.node g v).Ts_ddg.Ddg.name

let shape_violations (g : Ts_ddg.Ddg.t) ~ii time =
  let acc, { add } = make () in
  let n = Ts_ddg.Ddg.n_nodes g in
  if ii <= 0 then add "shape" "ii=%d is not positive" ii;
  if n = 0 then add "shape" "empty loop";
  if Array.length time <> n then
    add "shape" "time array has %d entries for %d nodes" (Array.length time) n;
  List.rev !acc

let dependence_violations (g : Ts_ddg.Ddg.t) ~ii time =
  let acc, { add } = make () in
  Array.iter
    (fun (e : Ts_ddg.Ddg.edge) ->
      let need = time.(e.src) + Ts_ddg.Ddg.latency g e.src - (ii * e.distance) in
      if time.(e.dst) < need then
        add "dependence"
          "%s -> %s (kind=%s, dist=%d): t(dst)=%d < t(src)+lat-II*d=%d"
          (name g e.src) (name g e.dst)
          (match e.kind with Ts_ddg.Ddg.Reg -> "reg" | Ts_ddg.Ddg.Mem -> "mem")
          e.distance time.(e.dst) need)
    g.edges;
  List.rev !acc

(* Recount resource usage from the machine description alone: how many
   instructions issue in each modulo row, and how many occupancy slots
   each FU cell sees once multi-cycle [busy] reservations are unrolled
   (wrapping around the table when busy > II, hence per-cell demand
   counting rather than interval logic). *)
let resource_violations (g : Ts_ddg.Ddg.t) ~ii time =
  let acc, { add } = make () in
  let n = Ts_ddg.Ddg.n_nodes g in
  let m = g.machine in
  let issue = Array.make ii 0 in
  for v = 0 to n - 1 do
    issue.(Ts_base.Intmath.modulo time.(v) ii) <-
      issue.(Ts_base.Intmath.modulo time.(v) ii) + 1
  done;
  for r = 0 to ii - 1 do
    if issue.(r) > m.Ts_isa.Machine.issue_width then
      add "resource" "row %d issues %d instructions, issue width is %d" r
        issue.(r) m.Ts_isa.Machine.issue_width
  done;
  List.iter
    (fun fu ->
      let units = Ts_isa.Machine.fu_count m fu in
      let demand = Array.make ii 0 in
      for v = 0 to n - 1 do
        let d = m.Ts_isa.Machine.describe (Ts_ddg.Ddg.node g v).op in
        if d.fu = fu then begin
          let r0 = Ts_base.Intmath.modulo time.(v) ii in
          for k = 0 to d.busy - 1 do
            let c = (r0 + k) mod ii in
            demand.(c) <- demand.(c) + 1
          done
        end
      done;
      for c = 0 to ii - 1 do
        if demand.(c) > units then
          add "resource" "%s cell %d holds %d reservations for %d units"
            (Ts_isa.Machine.fu_to_string fu)
            c demand.(c) units
      done)
    Ts_isa.Machine.fu_all;
  List.rev !acc

let check_times g ~ii time =
  match shape_violations g ~ii time with
  | _ :: _ as vs -> vs (* times are unusable; don't index out of bounds *)
  | [] -> dependence_violations g ~ii time @ resource_violations g ~ii time

(* Everything below re-derives row/stage/d_ker/sync from (time, ii) with
   plain arithmetic; the kernel's own fields are compared against the
   derivation rather than trusted. *)

let kernel_shape_violations (k : Ts_modsched.Kernel.t) =
  let acc, { add } = make () in
  let n = Ts_ddg.Ddg.n_nodes k.g in
  let ii = k.ii in
  if Array.length k.row <> n then add "shape" "row array size mismatch";
  if Array.length k.stage <> n then add "shape" "stage array size mismatch";
  if !acc = [] then begin
    let mint = Array.fold_left min k.time.(0) k.time in
    if mint < 0 || mint >= ii then
      add "normalisation" "earliest issue %d is outside [0, II=%d)" mint ii;
    let max_stage = ref 0 in
    for v = 0 to n - 1 do
      let row = Ts_base.Intmath.modulo k.time.(v) ii in
      let stage = Ts_base.Intmath.div_floor k.time.(v) ii in
      if k.row.(v) <> row then
        add "shape" "node %s: row=%d but time %d mod II=%d gives %d"
          (name k.g v) k.row.(v) k.time.(v) ii row;
      if k.stage.(v) <> stage then
        add "shape" "node %s: stage=%d but time %d / II=%d gives %d"
          (name k.g v) k.stage.(v) k.time.(v) ii stage;
      if stage > !max_stage then max_stage := stage
    done;
    if k.n_stages <> !max_stage + 1 then
      add "shape" "n_stages=%d but deepest stage is %d" k.n_stages !max_stage
  end;
  List.rev !acc

(* Kernel distance, from the time array (Definition 1). *)
let dker (k : Ts_modsched.Kernel.t) (e : Ts_ddg.Ddg.edge) =
  e.distance
  + Ts_base.Intmath.div_floor k.time.(e.dst) k.ii
  - Ts_base.Intmath.div_floor k.time.(e.src) k.ii

(* Synchronisation delay (Definition 2), from the time array. *)
let sync (k : Ts_modsched.Kernel.t) ~c_reg_com (e : Ts_ddg.Ddg.edge) =
  Ts_base.Intmath.modulo k.time.(e.src) k.ii
  - Ts_base.Intmath.modulo k.time.(e.dst) k.ii
  + Ts_ddg.Ddg.latency k.g e.src + c_reg_com

let dker_violations (k : Ts_modsched.Kernel.t) =
  let acc, { add } = make () in
  Array.iter
    (fun (e : Ts_ddg.Ddg.edge) ->
      let d = dker k e in
      if d < 0 then
        add "d_ker" "%s -> %s: kernel distance %d < 0 (dist=%d)"
          (name k.g e.src) (name k.g e.dst) d e.distance)
    k.g.edges;
  List.rev !acc

(* The C_delay floor: around a register recurrence, the inter-iteration
   register dependences must cover the recurrence's latency, so the
   largest [sync - c_reg_com] among them is at least the RecII of the
   register subgraph. Free of [c_reg_com], so every kernel is checked. *)
let floor_violations (k : Ts_modsched.Kernel.t) =
  let acc, { add } = make () in
  let floor = Ts_ddg.Mii.reg_rec_ii k.g in
  if floor > 0 then begin
    let worst =
      List.fold_left
        (fun m e -> if dker k e >= 1 then max m (sync k ~c_reg_com:0 e) else m)
        0 (Ts_ddg.Ddg.reg_edges k.g)
    in
    if worst < floor then
      add "C_delay floor"
        "largest sync - c_reg_com is %d, below the register recurrence's \
         RecII %d"
        worst floor
  end;
  List.rev !acc

(* C2's preservation rule (Section 4.2): a speculated memory dependence is
   preserved when some synchronised register dependence whose producer
   issues earlier in the row already forces the consumer thread to wait at
   least [(row src + lat src - row dst) / d_ker] cycles per hop. *)
let claim_violations (k : Ts_modsched.Kernel.t) { c_delay; p_max; c_reg_com } =
  let acc, { add } = make () in
  let reg_deps =
    List.filter (fun e -> dker k e >= 1) (Ts_ddg.Ddg.reg_edges k.g)
  in
  List.iter
    (fun (e : Ts_ddg.Ddg.edge) ->
      let s = sync k ~c_reg_com e in
      if s > c_delay then
        add "C1" "%s -> %s: sync=%d exceeds the admitted C_delay=%d"
          (name k.g e.src) (name k.g e.dst) s c_delay)
    reg_deps;
  let row v = Ts_base.Intmath.modulo k.time.(v) k.ii in
  let preserved (e : Ts_ddg.Ddg.edge) =
    let need =
      float_of_int (row e.src + Ts_ddg.Ddg.latency k.g e.src - row e.dst)
      /. float_of_int (dker k e)
    in
    List.exists
      (fun (r : Ts_ddg.Ddg.edge) ->
        row r.src < row e.src && float_of_int (sync k ~c_reg_com r) >= need)
      reg_deps
  in
  let freq =
    1.0
    -. List.fold_left
         (fun acc (e : Ts_ddg.Ddg.edge) ->
           if dker k e >= 1 && not (preserved e) then acc *. (1.0 -. e.prob)
           else acc)
         1.0
         (Ts_ddg.Ddg.mem_edges k.g)
  in
  (* The scheduler admits at [p_max +. 1e-12]; leave a little more float
     headroom here so re-deriving the product in a different fold order
     cannot manufacture a spurious violation. *)
  if freq > p_max +. 1e-9 then
    add "C2" "misspeculation frequency %.6f exceeds the admitted P_max=%.6f"
      freq p_max;
  List.rev !acc

let check_kernel ?claim (k : Ts_modsched.Kernel.t) =
  match shape_violations k.g ~ii:k.ii k.time with
  | _ :: _ as vs -> vs
  | [] ->
      kernel_shape_violations k
      @ dependence_violations k.g ~ii:k.ii k.time
      @ resource_violations k.g ~ii:k.ii k.time
      @ dker_violations k
      @ floor_violations k
      @ (match claim with None -> [] | Some c -> claim_violations k c)

let check_kernel_exn ?claim k =
  match check_kernel ?claim k with
  | [] -> ()
  | vs ->
      failf "kernel of %s (ii=%d) violates %d invariant(s):\n%s"
        k.g.Ts_ddg.Ddg.name k.ii (List.length vs) (report vs)
