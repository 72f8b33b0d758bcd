type t = Ts_isa.Spmt_params.t

let f_value (p : t) ~ii ~c_delay =
  let t_lb = ii + p.c_commit + max p.c_spawn c_delay in
  let serial = max p.c_spawn (max p.c_commit c_delay) in
  max (float_of_int serial) (float_of_int t_lb /. float_of_int p.ncore)

let f_min_start (p : t) ~mii = f_value p ~ii:mii ~c_delay:(1 + p.c_reg_com)

let t_nomiss p ~ii ~c_delay ~n = f_value p ~ii ~c_delay *. float_of_int n

let p_m probs = 1.0 -. List.fold_left (fun acc pe -> acc *. (1.0 -. pe)) 1.0 probs

let misspec_penalty (p : t) ~ii ~c_delay =
  float_of_int (ii + p.c_inv - max 0 (c_delay - p.c_spawn))

let t_mis_spec p ~ii ~c_delay ~p_m ~n =
  misspec_penalty p ~ii ~c_delay *. p_m *. float_of_int n

let estimate p ~ii ~c_delay ~p_m ~n =
  t_nomiss p ~ii ~c_delay ~n +. t_mis_spec p ~ii ~c_delay ~p_m ~n

(* One cursor per II row: [cd.(r)] is the smallest [C_delay] of row
   [mii + r] not yet emitted and [head.(r)] its key ([max_int] once the
   row is exhausted). F does not decrease along a row, so the smallest
   head key is the next group's, and each row's share of that group is
   the run of cursors from its head that keep the key. *)
let f_frontier (p : t) ~mii ~ii_max ~cd_min ~cd_max =
  let scale = float_of_int p.ncore in
  let key ii cd =
    if cd > cd_max then max_int
    else int_of_float (Float.round (f_value p ~ii ~c_delay:cd *. scale))
  in
  let rows = max 0 (ii_max - mii + 1) in
  let cd = Array.make rows cd_min in
  let head = Array.init rows (fun r -> key (mii + r) cd_min) in
  let rec group () =
    let k = Array.fold_left Int.min max_int head in
    if k = max_int then Seq.Nil
    else begin
      let points = ref [] in
      for r = rows - 1 downto 0 do
        if head.(r) = k then begin
          let ii = mii + r in
          while head.(r) = k do
            cd.(r) <- cd.(r) + 1;
            head.(r) <- key ii cd.(r)
          done;
          points := (ii, cd.(r) - 1) :: !points
        end
      done;
      Seq.Cons ((float_of_int k /. scale, !points), group)
    end
  in
  group
