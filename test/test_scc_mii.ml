(* SCC computation and MII bounds. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_scc_chain () =
  let g = Fixtures.chain 5 in
  check_int "five singleton components" 5 (List.length (Ts_ddg.Scc.compute g));
  check_int "no non-trivial SCC" 0 (Ts_ddg.Scc.count_non_trivial g)

let test_scc_self_loop () =
  let g = Fixtures.accumulator () in
  check_int "one non-trivial SCC" 1 (Ts_ddg.Scc.count_non_trivial g);
  match Ts_ddg.Scc.non_trivial g with
  | [ [ v ] ] -> check_int "the accumulator" 1 v
  | _ -> Alcotest.fail "expected one singleton self-loop component"

let test_scc_two_components () =
  let g = Fixtures.two_scc () in
  check_int "two non-trivial SCCs" 2 (Ts_ddg.Scc.count_non_trivial g);
  let comps = Ts_ddg.Scc.non_trivial g in
  check_bool "recurrence pair present" true (List.mem [ 0; 1 ] comps)

let test_scc_motivating () =
  (* the big circuit + three self-loops *)
  let g = Fixtures.motivating () in
  check_int "four non-trivial SCCs" 4 (Ts_ddg.Scc.count_non_trivial g)

let test_scc_reverse_topological () =
  let g = Fixtures.chain 3 in
  match Ts_ddg.Scc.compute g with
  | [ [ a ]; [ b ]; [ c ] ] ->
      (* successors must appear before their predecessors *)
      check_bool "order" true (a > b && b > c)
  | _ -> Alcotest.fail "expected three singletons"

let test_component_of () =
  let g = Fixtures.two_scc () in
  let owner = Ts_ddg.Scc.component_of g in
  check_bool "recurrence nodes share a component" true (owner.(0) = owner.(1));
  check_bool "accumulator separate" true (owner.(2) <> owner.(0))

let test_res_ii_issue_width () =
  (* 9 single-cycle ALU ops on a 4-wide machine with 4 ALUs: ceil(9/4) = 3 *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  for _ = 1 to 9 do
    ignore (Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Ialu)
  done;
  let g = Ts_ddg.Ddg.Builder.build b in
  check_int "issue-width bound" 3 (Ts_ddg.Mii.res_ii g)

let test_res_ii_unit_bound () =
  (* 3 multiplies on the toy machine's single unpipelined multiplier:
     3 * busy 4 = 12 cycles of occupancy *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.toy in
  for _ = 1 to 3 do
    ignore (Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Fmul)
  done;
  let g = Ts_ddg.Ddg.Builder.build b in
  check_int "occupancy bound" 12 (Ts_ddg.Mii.res_ii g)

let test_res_ii_mem_ports () =
  (* 6 loads on 2 ports -> 3, above ceil(6/4) = 2 *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  for _ = 1 to 6 do
    ignore (Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Load)
  done;
  let g = Ts_ddg.Ddg.Builder.build b in
  check_int "memory-port bound" 3 (Ts_ddg.Mii.res_ii g)

let test_rec_ii_acyclic () =
  check_int "acyclic" 0 (Ts_ddg.Mii.rec_ii (Fixtures.chain 4));
  check_int "diamond acyclic" 0 (Ts_ddg.Mii.rec_ii (Fixtures.diamond ()))

let test_rec_ii_self_loop () =
  (* fadd accumulator: latency 3 over distance 1 *)
  check_int "self loop" 3 (Ts_ddg.Mii.rec_ii (Fixtures.accumulator ()))

let test_rec_ii_distance_two () =
  (* two fadds (3+3) over total distance 2 -> ceil(6/2) = 3 *)
  let g = Fixtures.two_scc () in
  check_int "distance-2 recurrence" 3 (Ts_ddg.Mii.rec_ii g)

let test_rec_ii_motivating () =
  let g = Fixtures.motivating () in
  check_int "paper RecII" 8 (Ts_ddg.Mii.rec_ii g);
  check_int "paper ResII" 4 (Ts_ddg.Mii.res_ii g);
  check_int "paper MII" 8 (Ts_ddg.Mii.mii g)

let test_rec_ii_of_nodes () =
  let g = Fixtures.two_scc () in
  check_int "restricted to the pair" 3 (Ts_ddg.Mii.rec_ii_of_nodes g [ 0; 1 ]);
  check_int "restricted to the self-loop" 1 (Ts_ddg.Mii.rec_ii_of_nodes g [ 2 ])

let test_feasible () =
  let g = Fixtures.accumulator () in
  check_bool "ii = rec_ii feasible" true (Ts_ddg.Mii.feasible g ~ii:3);
  check_bool "ii below rec_ii infeasible" false (Ts_ddg.Mii.feasible g ~ii:2)

let test_ldp_chain () =
  (* 4 ialu in a chain: 4 cycles *)
  check_int "chain ldp" 4 (Ts_ddg.Mii.ldp (Fixtures.chain 4))

let test_ldp_diamond () =
  (* load(3) -> fmul(4) -> store(1) = 8 *)
  check_int "diamond ldp" 8 (Ts_ddg.Mii.ldp (Fixtures.diamond ()))

let test_ldp_ignores_carried () =
  (* the accumulator's self-dep is distance 1 and must not cycle LDP *)
  check_int "acc ldp" 6 (Ts_ddg.Mii.ldp (Fixtures.accumulator ()))

let test_ii_upper_bound_schedulable () =
  let g = Fixtures.motivating () in
  check_bool "upper bound is feasible" true
    (Ts_ddg.Mii.feasible g ~ii:(Ts_ddg.Mii.ii_upper_bound g))

let prop_mii_bounds =
  QCheck.Test.make ~count:60 ~name:"mii = max(res, rec) >= 1; ldp >= max latency"
    Fixtures.arb_loop (fun arb ->
      let g = Fixtures.loop_of_arb arb in
      let res = Ts_ddg.Mii.res_ii g
      and rc = Ts_ddg.Mii.rec_ii g
      and mii = Ts_ddg.Mii.mii g in
      mii = max 1 (max res rc)
      && mii >= 1
      && Ts_ddg.Mii.ldp g
         >= Array.fold_left
              (fun acc (nd : Ts_ddg.Ddg.node) -> max acc nd.latency)
              0 g.nodes)

let prop_feasible_monotone =
  QCheck.Test.make ~count:40 ~name:"recurrence feasibility is monotone in II"
    Fixtures.arb_loop (fun arb ->
      let g = Fixtures.loop_of_arb arb in
      let rc = Ts_ddg.Mii.rec_ii g in
      (rc = 0 || not (Ts_ddg.Mii.feasible g ~ii:(rc - 1)))
      && Ts_ddg.Mii.feasible g ~ii:rc
      && Ts_ddg.Mii.feasible g ~ii:(rc + 5))

let prop_scc_partition =
  QCheck.Test.make ~count:40 ~name:"SCCs partition the nodes"
    Fixtures.arb_loop (fun arb ->
      let g = Fixtures.loop_of_arb arb in
      let comps = Ts_ddg.Scc.compute g in
      let all = List.concat comps |> List.sort compare in
      all = List.init (Ts_ddg.Ddg.n_nodes g) Fun.id)

(* Bellman-Ford as it stood before its rounds followed the kept
   subgraph: up to n + 1 rounds over every edge of the loop, by linear
   search on II. *)
let ref_rec_ii (g : Ts_ddg.Ddg.t) ~keep =
  let n = Ts_ddg.Ddg.n_nodes g in
  let feasible ii =
    let dist = Array.make n 0 in
    let rec round k =
      let changed = ref false in
      Array.iter
        (fun (e : Ts_ddg.Ddg.edge) ->
          let w = Ts_ddg.Ddg.latency g e.src - (ii * e.distance) in
          if keep e && dist.(e.src) + w > dist.(e.dst) then begin
            dist.(e.dst) <- dist.(e.src) + w;
            changed := true
          end)
        g.edges;
      (not !changed) || (k <= n && round (k + 1))
    in
    round 1
  in
  let rec first ii = if feasible ii then ii else first (ii + 1) in
  first 0

let prop_rec_ii_bounded_rounds =
  QCheck.Test.make ~count:100
    ~name:"rec_ii, reg_rec_ii, per-SCC rec_ii = the n + 1 round reference"
    Fixtures.arb_loop (fun arb ->
      let g = Fixtures.loop_of_arb arb in
      Ts_ddg.Mii.rec_ii g = ref_rec_ii g ~keep:(fun _ -> true)
      && Ts_ddg.Mii.reg_rec_ii g
         = ref_rec_ii g ~keep:(fun e -> e.Ts_ddg.Ddg.kind = Ts_ddg.Ddg.Reg)
      && List.for_all
           (fun c ->
             Ts_ddg.Mii.rec_ii_of_nodes g c
             = ref_rec_ii g ~keep:(fun (e : Ts_ddg.Ddg.edge) ->
                   List.mem e.src c && List.mem e.dst c))
           (Ts_ddg.Scc.non_trivial g))

let suite =
  [
    Alcotest.test_case "scc: chain is trivial" `Quick test_scc_chain;
    Alcotest.test_case "scc: self loop" `Quick test_scc_self_loop;
    Alcotest.test_case "scc: two components" `Quick test_scc_two_components;
    Alcotest.test_case "scc: motivating has 4" `Quick test_scc_motivating;
    Alcotest.test_case "scc: reverse topological order" `Quick test_scc_reverse_topological;
    Alcotest.test_case "scc: component_of" `Quick test_component_of;
    Alcotest.test_case "res_ii: issue width" `Quick test_res_ii_issue_width;
    Alcotest.test_case "res_ii: unpipelined unit" `Quick test_res_ii_unit_bound;
    Alcotest.test_case "res_ii: memory ports" `Quick test_res_ii_mem_ports;
    Alcotest.test_case "rec_ii: acyclic" `Quick test_rec_ii_acyclic;
    Alcotest.test_case "rec_ii: self loop" `Quick test_rec_ii_self_loop;
    Alcotest.test_case "rec_ii: distance 2" `Quick test_rec_ii_distance_two;
    Alcotest.test_case "rec_ii: motivating (paper values)" `Quick test_rec_ii_motivating;
    Alcotest.test_case "rec_ii: node subset" `Quick test_rec_ii_of_nodes;
    Alcotest.test_case "feasible: threshold" `Quick test_feasible;
    Alcotest.test_case "ldp: chain" `Quick test_ldp_chain;
    Alcotest.test_case "ldp: diamond" `Quick test_ldp_diamond;
    Alcotest.test_case "ldp: ignores carried deps" `Quick test_ldp_ignores_carried;
    Alcotest.test_case "ii_upper_bound: feasible" `Quick test_ii_upper_bound_schedulable;
    QCheck_alcotest.to_alcotest prop_mii_bounds;
    QCheck_alcotest.to_alcotest prop_feasible_monotone;
    QCheck_alcotest.to_alcotest prop_scc_partition;
    QCheck_alcotest.to_alcotest prop_rec_ii_bounded_rounds;
  ]
