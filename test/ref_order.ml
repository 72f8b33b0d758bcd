(* The SMS node-ordering phase as it stood before [Ts_sms.Order] moved to
   arrays: every priority function by fixpoint relaxation, the SCC
   priorities as a separate pass, and the partition by list scans. It is
   kept as the reference the array version must agree with, the way
   [Ref_tms] is kept for the search. *)

type prio = Ts_sms.Order.prio = {
  asap : int array;
  alap : int array;
  mob : int array;
  height : int array;
  depth : int array;
}

let relax_until_fixed ~n ~what step =
  let changed = ref true in
  let rounds = ref 0 in
  while !changed do
    changed := step ();
    incr rounds;
    if !changed && !rounds > n + 1 then
      invalid_arg (Printf.sprintf "Ref_order.priorities: %s did not converge" what)
  done

let priorities (g : Ts_ddg.Ddg.t) ~ii =
  let n = Ts_ddg.Ddg.n_nodes g in
  let lat v = Ts_ddg.Ddg.latency g v in
  let asap = Array.make n 0 in
  relax_until_fixed ~n ~what:"asap" (fun () ->
      let c = ref false in
      Array.iter
        (fun (e : Ts_ddg.Ddg.edge) ->
          let cand = asap.(e.src) + lat e.src - (ii * e.distance) in
          if cand > asap.(e.dst) then begin
            asap.(e.dst) <- cand;
            c := true
          end)
        g.edges;
      !c);
  let horizon = Array.fold_left max 0 (Array.mapi (fun v a -> a + lat v) asap) in
  let alap = Array.init n (fun v -> horizon - lat v) in
  relax_until_fixed ~n ~what:"alap" (fun () ->
      let c = ref false in
      Array.iter
        (fun (e : Ts_ddg.Ddg.edge) ->
          let cand = alap.(e.dst) - lat e.src + (ii * e.distance) in
          if cand < alap.(e.src) then begin
            alap.(e.src) <- cand;
            c := true
          end)
        g.edges;
      !c);
  let mob = Array.init n (fun v -> alap.(v) - asap.(v)) in
  (* Height and depth over the acyclic distance-0 subgraph. *)
  let height = Array.make n 0 and depth = Array.make n 0 in
  relax_until_fixed ~n ~what:"height" (fun () ->
      let c = ref false in
      Array.iter
        (fun (e : Ts_ddg.Ddg.edge) ->
          if e.distance = 0 then begin
            let cand = height.(e.dst) + lat e.src in
            if cand > height.(e.src) then begin
              height.(e.src) <- cand;
              c := true
            end;
            let cand = depth.(e.src) + lat e.src in
            if cand > depth.(e.dst) then begin
              depth.(e.dst) <- cand;
              c := true
            end
          end)
        g.edges;
      !c);
  { asap; alap; mob; height; depth }

(* Reachability over all DDG edges from a seed set. *)
let reachable (g : Ts_ddg.Ddg.t) ~forward seeds =
  let n = Ts_ddg.Ddg.n_nodes g in
  let mark = Array.make n false in
  let queue = Queue.create () in
  List.iter
    (fun v ->
      if not mark.(v) then begin
        mark.(v) <- true;
        Queue.add v queue
      end)
    seeds;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let nexts =
      if forward then List.map (fun (e : Ts_ddg.Ddg.edge) -> e.dst) g.succs.(v)
      else List.map (fun (e : Ts_ddg.Ddg.edge) -> e.src) g.preds.(v)
    in
    List.iter
      (fun w ->
        if not mark.(w) then begin
          mark.(w) <- true;
          Queue.add w queue
        end)
      nexts
  done;
  mark

(* Non-trivial SCCs paired with their RecII, in decreasing RecII order
   (ties: the component containing the smallest node id first). *)
let scc_priority g =
  let comps = Ts_ddg.Scc.non_trivial g in
  let with_ii = List.map (fun c -> (c, Ts_ddg.Mii.rec_ii_of_nodes g c)) comps in
  List.stable_sort
    (fun (c1, ii1) (c2, ii2) ->
      if ii1 <> ii2 then compare ii2 ii1 else compare (List.hd c1) (List.hd c2))
    with_ii

let partition (g : Ts_ddg.Ddg.t) =
  let n = Ts_ddg.Ddg.n_nodes g in
  let sccs = scc_priority g in
  let covered = Array.make n false in
  let sets = ref [] in
  List.iter
    (fun (comp, _rec_ii) ->
      let fresh = List.filter (fun v -> not covered.(v)) comp in
      if fresh <> [] then begin
        let set =
          if List.exists Fun.id (Array.to_list covered) then begin
            (* Nodes on paths between the covered region and this SCC. *)
            let covered_seeds =
              List.filteri (fun v _ -> covered.(v)) (List.init n (fun v -> (v, ())))
              |> List.map fst
            in
            let from_covered = reachable g ~forward:true covered_seeds in
            let to_covered = reachable g ~forward:false covered_seeds in
            let from_scc = reachable g ~forward:true fresh in
            let to_scc = reachable g ~forward:false fresh in
            let on_path v =
              (from_covered.(v) && to_scc.(v)) || (from_scc.(v) && to_covered.(v))
            in
            List.filter
              (fun v -> not covered.(v) && (List.mem v fresh || on_path v))
              (List.init n Fun.id)
          end
          else fresh
        in
        List.iter (fun v -> covered.(v) <- true) set;
        sets := set :: !sets
      end)
    sccs;
  let rest = List.filter (fun v -> not covered.(v)) (List.init n Fun.id) in
  let sets = if rest = [] then !sets else rest :: !sets in
  List.rev sets

type dir = Bottom_up | Top_down

let compute_with_dirs (g : Ts_ddg.Ddg.t) ~ii =
  let n = Ts_ddg.Ddg.n_nodes g in
  let p = priorities g ~ii in
  let ordered = Array.make n false in
  let order_rev = ref [] in
  let emit ~dir v =
    ordered.(v) <- true;
    let d =
      match dir with
      | Bottom_up -> Ts_modsched.Sched.Down
      | Top_down -> Ts_modsched.Sched.Up
    in
    order_rev := (v, d) :: !order_rev
  in
  let preds v = List.map (fun (e : Ts_ddg.Ddg.edge) -> e.src) g.preds.(v) in
  let succs v = List.map (fun (e : Ts_ddg.Ddg.edge) -> e.dst) g.succs.(v) in
  let best_by key set =
    match set with
    | [] -> None
    | v0 :: rest ->
        let better a b =
          let ka = key a and kb = key b in
          if ka <> kb then ka > kb
          else if p.mob.(a) <> p.mob.(b) then p.mob.(a) < p.mob.(b)
          else a < b
        in
        Some (List.fold_left (fun acc v -> if better v acc then v else acc) v0 rest)
  in
  let process_set set =
    let in_set = Array.make n false in
    List.iter (fun v -> in_set.(v) <- true) set;
    let members () = List.filter (fun v -> in_set.(v) && not ordered.(v)) set in
    let pred_of_ordered () =
      List.sort_uniq compare
        (List.concat_map
           (fun v -> if ordered.(v) then preds v else [])
           (List.init n Fun.id))
      |> List.filter (fun v -> in_set.(v) && not ordered.(v))
    in
    let succ_of_ordered () =
      List.sort_uniq compare
        (List.concat_map
           (fun v -> if ordered.(v) then succs v else [])
           (List.init n Fun.id))
      |> List.filter (fun v -> in_set.(v) && not ordered.(v))
    in
    let start () =
      let pr = pred_of_ordered () in
      if pr <> [] then Some (pr, Bottom_up)
      else
        let su = succ_of_ordered () in
        if su <> [] then Some (su, Top_down)
        else
          match best_by (fun v -> p.asap.(v)) (members ()) with
          | Some v -> Some ([ v ], Bottom_up)
          | None -> None
    in
    let rec sweep r dir exhausted =
      match r with
      | [] ->
          if members () = [] then ()
          else begin
            (* Swap direction; if both directions yield nothing twice, the
               set has disconnected nodes left: restart from a fresh seed. *)
            let r', dir' =
              match dir with
              | Bottom_up -> (succ_of_ordered (), Top_down)
              | Top_down -> (pred_of_ordered (), Bottom_up)
            in
            if r' = [] then
              if exhausted then (
                match start () with
                | Some (r0, d0) -> sweep r0 d0 false
                | None -> ())
              else sweep [] dir' true
            else sweep r' dir' false
          end
      | _ ->
          let key = match dir with Bottom_up -> p.depth | Top_down -> p.height in
          let v =
            match best_by (fun v -> key.(v)) r with
            | Some v -> v
            | None -> assert false
          in
          emit ~dir v;
          let grow = match dir with Bottom_up -> preds v | Top_down -> succs v in
          let r =
            List.sort_uniq compare
              (List.filter
                 (fun w -> in_set.(w) && not ordered.(w))
                 (grow @ List.filter (fun w -> w <> v) r))
          in
          sweep r dir false
    in
    match start () with Some (r, d) -> sweep r d false | None -> ()
  in
  List.iter process_set (partition g);
  let order = List.rev !order_rev in
  assert (List.length order = n);
  order
