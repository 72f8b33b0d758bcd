type prio = {
  asap : int array;
  alap : int array;
  mob : int array;
  height : int array;
  depth : int array;
}

module S = Ts_modsched.Sched

(* Apply [step] to every edge until no step changes anything; at a
   recurrence-feasible II that takes at most [n + 1] rounds. *)
let relax (g : Ts_ddg.Ddg.t) ~what step =
  let changed = ref true and rounds = ref 0 in
  while !changed do
    changed := Array.fold_left (fun c e -> step e || c) false g.edges;
    incr rounds;
    if !changed && !rounds > Ts_ddg.Ddg.n_nodes g + 1 then
      invalid_arg (Printf.sprintf "Order.priorities: %s did not converge" what)
  done

(* [a.(i) <- v] when [v] is better by [cmp]; whether it was. *)
let improve cmp a i v = cmp v a.(i) && (a.(i) <- v; true)

let priorities (g : Ts_ddg.Ddg.t) ~ii =
  let n = Ts_ddg.Ddg.n_nodes g in
  let lat v = Ts_ddg.Ddg.latency g v in
  let asap = S.asap_table g ~ii in
  let horizon = Array.fold_left max 0 (Array.mapi (fun v a -> a + lat v) asap) in
  let alap = Array.init n (fun v -> horizon - lat v) in
  relax g ~what:"alap" (fun e ->
      improve ( < ) alap e.src (alap.(e.dst) - lat e.src + (ii * e.distance)));
  let mob = Array.init n (fun v -> alap.(v) - asap.(v)) in
  (* Height and depth over the acyclic distance-0 subgraph. *)
  let height = Array.make n 0 and depth = Array.make n 0 in
  relax g ~what:"height" (fun e ->
      e.distance = 0
      &&
      let h = improve ( > ) height e.src (height.(e.dst) + lat e.src) in
      improve ( > ) depth e.dst (depth.(e.src) + lat e.src) || h);
  { asap; alap; mob; height; depth }

(* Every node reachable from the [seeds] marks, forward along successor
   edges or backward along predecessor edges. *)
let reach (g : Ts_ddg.Ddg.t) ~forward seeds =
  let mark = Array.make (Array.length seeds) false in
  let rec visit v =
    if not mark.(v) then begin
      mark.(v) <- true;
      if forward then List.iter (fun (e : Ts_ddg.Ddg.edge) -> visit e.dst) g.succs.(v)
      else List.iter (fun (e : Ts_ddg.Ddg.edge) -> visit e.src) g.preds.(v)
    end
  in
  Array.iteri (fun v s -> if s then visit v) seeds;
  mark

let partition (g : Ts_ddg.Ddg.t) =
  let n = Ts_ddg.Ddg.n_nodes g in
  (* The most constrained recurrence first: decreasing RecII, ties to the
     component holding the smallest node id. *)
  let sccs =
    List.stable_sort
      (fun (c1, ii1) (c2, ii2) ->
        if ii1 <> ii2 then compare ii2 ii1 else compare (List.hd c1) (List.hd c2))
      (List.map
         (fun c -> (c, Ts_ddg.Mii.rec_ii_of_nodes g c))
         (Ts_ddg.Scc.non_trivial g))
  in
  let covered = Array.make n false in
  let uncovered where =
    List.filter (fun v -> where v && not covered.(v)) (List.init n Fun.id)
  in
  let sets =
    List.fold_left
      (fun sets (comp, _rec_ii) ->
        let scc = Array.make n false in
        List.iter (fun v -> scc.(v) <- not covered.(v)) comp;
        if not (Array.exists Fun.id scc) then sets
        else begin
          let set =
            if sets = [] then uncovered (fun v -> scc.(v))
            else begin
              (* The SCC plus the nodes on paths between it and the
                 covered region. *)
              let from_covered = reach g ~forward:true covered in
              let to_covered = reach g ~forward:false covered in
              let from_scc = reach g ~forward:true scc in
              let to_scc = reach g ~forward:false scc in
              uncovered (fun v ->
                  scc.(v)
                  || (from_covered.(v) && to_scc.(v))
                  || (from_scc.(v) && to_covered.(v)))
            end
          in
          List.iter (fun v -> covered.(v) <- true) set;
          set :: sets
        end)
      [] sccs
  in
  let rest = uncovered (fun _ -> true) in
  List.rev (if rest = [] then sets else rest :: sets)

let compute_with_dirs (g : Ts_ddg.Ddg.t) ~ii =
  let n = Ts_ddg.Ddg.n_nodes g in
  let p = priorities g ~ii in
  let ordered = Array.make n false and in_set = Array.make n false in
  let order_rev = ref [] in
  let open_ v = in_set.(v) && not ordered.(v) in
  (* A bottom-up sweep ([Down]: nodes placed as late as possible) grows
     through predecessors, a top-down one ([Up]) through successors. *)
  let grow dir v =
    match dir with
    | S.Down -> List.map (fun (e : Ts_ddg.Ddg.edge) -> e.src) g.preds.(v)
    | S.Up -> List.map (fun (e : Ts_ddg.Ddg.edge) -> e.dst) g.succs.(v)
  in
  (* The open nodes a [dir] sweep reaches from an ordered node, ascending. *)
  let frontier dir =
    let mark = Array.make n false in
    for v = 0 to n - 1 do
      if ordered.(v) then List.iter (fun w -> mark.(w) <- true) (grow dir v)
    done;
    List.filter (fun v -> mark.(v) && open_ v) (List.init n Fun.id)
  in
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
    List.iter (fun v -> in_set.(v) <- true) set;
    let members () = List.filter open_ set in
    let start () =
      match frontier S.Down with
      | _ :: _ as r -> Some (r, S.Down)
      | [] -> (
          match frontier S.Up with
          | _ :: _ as r -> Some (r, S.Up)
          | [] ->
              Option.map
                (fun v -> ([ v ], S.Down))
                (best_by (fun v -> p.asap.(v)) (members ())))
    in
    let rec sweep r dir exhausted =
      match r with
      | [] ->
          if members () <> [] then begin
            (* Swap direction; if both directions yield nothing twice, the
               set has disconnected nodes left: restart from a fresh seed. *)
            let dir' = match dir with S.Down -> S.Up | S.Up -> S.Down in
            match frontier dir' with
            | [] ->
                if exhausted then Option.iter (fun (r0, d0) -> sweep r0 d0 false) (start ())
                else sweep [] dir' true
            | r' -> sweep r' dir' false
          end
      | _ ->
          let key = match dir with S.Down -> p.depth | S.Up -> p.height in
          let v = Option.get (best_by (fun v -> key.(v)) r) in
          ordered.(v) <- true;
          order_rev := (v, dir) :: !order_rev;
          sweep (List.sort_uniq compare (List.filter open_ (grow dir v @ r))) dir false
    in
    Option.iter (fun (r, d) -> sweep r d false) (start ())
  in
  List.iter process_set (partition g);
  let order = List.rev !order_rev in
  assert (List.length order = n);
  order
