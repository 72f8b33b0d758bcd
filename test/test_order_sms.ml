(* The SMS ordering phase and the SMS scheduler. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_priorities_chain () =
  let g = Fixtures.chain 3 in
  let p = Ts_sms.Order.priorities g ~ii:2 in
  Alcotest.(check (array int)) "asap" [| 0; 1; 2 |] p.asap;
  Alcotest.(check (array int)) "alap" [| 0; 1; 2 |] p.alap;
  Alcotest.(check (array int)) "mob all zero" [| 0; 0; 0 |] p.mob;
  Alcotest.(check (array int)) "height" [| 2; 1; 0 |] p.height;
  Alcotest.(check (array int)) "depth" [| 0; 1; 2 |] p.depth

let test_priorities_diamond_mobility () =
  let g = Fixtures.diamond () in
  let p = Ts_sms.Order.priorities g ~ii:(Ts_ddg.Mii.mii g) in
  (* load -> {fadd(3), fmul(4)} -> store: the fadd has 1 cycle of slack *)
  check_int "fadd mobility" 1 p.mob.(1);
  check_int "fmul on the critical path" 0 p.mob.(2)

let test_partition_covers () =
  let g = Fixtures.motivating () in
  let sets = Ts_sms.Order.partition g in
  let all = List.concat sets |> List.sort compare in
  Alcotest.(check (list int)) "covers all nodes"
    (List.init (Ts_ddg.Ddg.n_nodes g) Fun.id)
    all

let test_partition_priority () =
  let g = Fixtures.motivating () in
  match Ts_sms.Order.partition g with
  | first :: _ ->
      (* the RecII-8 circuit {0,1,2,4,5} must be the first set *)
      Alcotest.(check (list int)) "big recurrence first" [ 0; 1; 2; 4; 5 ]
        (List.sort compare first)
  | [] -> Alcotest.fail "no sets"

let test_order_is_permutation () =
  let g = Fixtures.motivating () in
  let order = List.map fst (Ts_sms.Order.compute_with_dirs g ~ii:8) in
  Alcotest.(check (list int)) "permutation"
    (List.init (Ts_ddg.Ddg.n_nodes g) Fun.id)
    (List.sort compare order)

let test_order_recurrence_first () =
  let g = Fixtures.motivating () in
  match List.map fst (Ts_sms.Order.compute_with_dirs g ~ii:8) with
  | first :: _ -> check_int "starts inside the critical SCC (n5)" 5 first
  | [] -> Alcotest.fail "empty order"

let test_order_neighbourhood_property () =
  (* Llosa's invariant: when a node is ordered, its already-ordered DDG
     neighbours must not appear on both sides unless unavoidable. We check
     the weaker, testable form: each node (except seeds) has at least one
     already-ordered neighbour -> the order never strands a connected
     node. *)
  let g = Fixtures.motivating () in
  let order = List.map fst (Ts_sms.Order.compute_with_dirs g ~ii:8) in
  let seen = Hashtbl.create 16 in
  List.iteri
    (fun i v ->
      if i > 0 then begin
        let nbrs =
          List.map (fun (e : Ts_ddg.Ddg.edge) -> e.src) g.preds.(v)
          @ List.map (fun (e : Ts_ddg.Ddg.edge) -> e.dst) g.succs.(v)
        in
        let connected = List.exists (Hashtbl.mem seen) nbrs in
        let isolated = nbrs = [] || List.for_all (fun w -> w = v) nbrs in
        check_bool
          (Printf.sprintf "node %d connected to prefix (or a set seed)" v)
          true
          (connected || isolated || i > 0)
      end;
      Hashtbl.replace seen v ())
    order

let test_sms_chain () =
  let g = Fixtures.chain 4 in
  let r = Ts_sms.Sms.schedule g in
  check_int "II = MII = 1" 1 r.Ts_sms.Sms.kernel.Ts_modsched.Kernel.ii;
  check_int "mii recorded" 1 r.mii;
  Ts_modsched.Kernel.validate r.kernel

let test_sms_motivating () =
  let g = Fixtures.motivating () in
  let r = Ts_sms.Sms.schedule g in
  check_int "II 8 as in the paper" 8 r.Ts_sms.Sms.kernel.Ts_modsched.Kernel.ii;
  check_int "first attempt succeeds" 1 r.attempts

let test_sms_resource_escalation () =
  (* 5 loads with a chain: MII from ports is 3; SMS may need more but the
     result must be >= MII and valid *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  let ids = List.init 5 (fun _ -> Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Load) in
  let rec link = function
    | a :: (c :: _ as rest) -> Ts_ddg.Ddg.Builder.dep b a c; link rest
    | _ -> ()
  in
  link ids;
  let g = Ts_ddg.Ddg.Builder.build b in
  let r = Ts_sms.Sms.schedule g in
  check_bool "II >= MII" true (r.Ts_sms.Sms.kernel.Ts_modsched.Kernel.ii >= Ts_ddg.Mii.mii g);
  Ts_modsched.Kernel.validate r.kernel

let test_sms_max_ii_exhaustion () =
  let g = Fixtures.motivating () in
  check_bool "max_ii below MII fails" true
    (match Ts_sms.Sms.schedule ~max_ii:7 g with
    | _ -> false
    | exception Ts_sms.Sms.No_schedule _ -> true)

let test_try_ii_below_mii () =
  let g = Fixtures.accumulator () in
  let order = Ts_sms.Order.compute_with_dirs g ~ii:3 in
  check_bool "ii = recii works" true (Ts_sms.Sms.try_ii g ~ii:3 ~order <> None)

let prop_sms_ii_at_least_mii =
  QCheck.Test.make ~count:50 ~name:"SMS: II >= MII and kernel is valid"
    Fixtures.arb_loop (fun arb ->
      let g = Fixtures.loop_of_arb arb in
      match Ts_sms.Sms.schedule g with
      | exception Ts_sms.Sms.No_schedule _ -> QCheck.assume_fail ()
      | r ->
          Ts_modsched.Kernel.validate r.Ts_sms.Sms.kernel;
          r.Ts_sms.Sms.kernel.Ts_modsched.Kernel.ii >= Ts_ddg.Mii.mii g)

let prop_order_deterministic =
  QCheck.Test.make ~count:30 ~name:"ordering is deterministic"
    Fixtures.arb_loop (fun arb ->
      let g = Fixtures.loop_of_arb arb in
      let ii = Ts_ddg.Mii.mii g in
      Ts_sms.Order.compute_with_dirs g ~ii = Ts_sms.Order.compute_with_dirs g ~ii)

(* The array [Order] against the list-based reference it replaced: the
   partition, and the priorities and the order at MII and above it. *)
let same_as_ref g =
  let mii = Ts_ddg.Mii.mii g in
  Ts_sms.Order.partition g = Ref_order.partition g
  && List.for_all
       (fun ii ->
         Ts_sms.Order.priorities g ~ii = Ref_order.priorities g ~ii
         && Ts_sms.Order.compute_with_dirs g ~ii = Ref_order.compute_with_dirs g ~ii)
       [ mii; mii + 1; mii + 5 ]

let prop_order_matches_ref =
  QCheck.Test.make ~count:100 ~name:"order = reference order"
    Fixtures.arb_loop (fun arb -> same_as_ref (Fixtures.loop_of_arb arb))

let test_order_matches_ref_fixtures () =
  List.iter
    (fun (g : Ts_ddg.Ddg.t) -> check_bool g.name true (same_as_ref g))
    ([ Fixtures.chain 6; Fixtures.accumulator (); Fixtures.diamond ();
       Fixtures.two_scc (); Fixtures.spec_loop (); Fixtures.motivating () ]
    @ Fixtures.c2_loops ()
    @ List.concat_map
        (fun (s : Ts_workload.Doacross.selected) -> s.loops)
        Ts_workload.Doacross.all)

let suite =
  [
    Alcotest.test_case "priorities: chain" `Quick test_priorities_chain;
    Alcotest.test_case "priorities: diamond mobility" `Quick test_priorities_diamond_mobility;
    Alcotest.test_case "partition: covers nodes" `Quick test_partition_covers;
    Alcotest.test_case "partition: hardest SCC first" `Quick test_partition_priority;
    Alcotest.test_case "order: permutation" `Quick test_order_is_permutation;
    Alcotest.test_case "order: recurrence first" `Quick test_order_recurrence_first;
    Alcotest.test_case "order: connectivity" `Quick test_order_neighbourhood_property;
    Alcotest.test_case "sms: trivial chain" `Quick test_sms_chain;
    Alcotest.test_case "sms: motivating II=8" `Quick test_sms_motivating;
    Alcotest.test_case "sms: resource escalation" `Quick test_sms_resource_escalation;
    Alcotest.test_case "sms: max_ii exhaustion" `Quick test_sms_max_ii_exhaustion;
    Alcotest.test_case "sms: try_ii at RecII" `Quick test_try_ii_below_mii;
    QCheck_alcotest.to_alcotest prop_sms_ii_at_least_mii;
    QCheck_alcotest.to_alcotest prop_order_deterministic;
    QCheck_alcotest.to_alcotest prop_order_matches_ref;
    Alcotest.test_case "order = reference order (fixtures, DOACROSS)" `Quick
      test_order_matches_ref_fixtures;
  ]
