(* Shared loop fixtures for the test suite. *)

module B = Ts_ddg.Ddg.Builder

(* n0 -> n1 -> ... -> n(k-1), all ialu, distance 0. *)
let chain ?(machine = Ts_isa.Machine.spmt_core) k =
  let b = B.create ~name:(Printf.sprintf "chain%d" k) machine in
  let ids = List.init k (fun _ -> B.add b Ts_isa.Opcode.Ialu) in
  let rec link = function
    | a :: (c :: _ as rest) ->
        B.dep b a c;
        link rest
    | _ -> ()
  in
  link ids;
  B.build b

(* One floating-point accumulator: acc += x, carried distance 1. *)
let accumulator () =
  let b = B.create ~name:"acc" Ts_isa.Machine.spmt_core in
  let x = B.add b Ts_isa.Opcode.Load in
  let acc = B.add b Ts_isa.Opcode.Fadd in
  B.dep b x acc;
  B.dep b ~dist:1 acc acc;
  B.build b

(* a -> b, a -> c, b -> d, c -> d. *)
let diamond () =
  let b = B.create ~name:"diamond" Ts_isa.Machine.spmt_core in
  let a = B.add b Ts_isa.Opcode.Load in
  let x = B.add b Ts_isa.Opcode.Fadd in
  let y = B.add b Ts_isa.Opcode.Fmul in
  let d = B.add b Ts_isa.Opcode.Store in
  B.dep b a x;
  B.dep b a y;
  B.dep b x d;
  B.dep b y d;
  B.build b

(* A two-SCC loop: a recurrence of latency 6 over distance 2 plus a
   self-loop accumulator. *)
let two_scc () =
  let b = B.create ~name:"two_scc" Ts_isa.Machine.spmt_core in
  let u = B.add b Ts_isa.Opcode.Fadd in
  let v = B.add b Ts_isa.Opcode.Fadd in
  let w = B.add b Ts_isa.Opcode.Ialu in
  B.dep b u v;
  B.dep b ~dist:2 v u;
  B.dep b ~dist:1 w w;
  B.build b

(* Store-to-load memory dependence with a probability (speculation
   candidate) alongside a register pipeline. *)
let spec_loop () =
  let b = B.create ~name:"spec" Ts_isa.Machine.spmt_core in
  let ld = B.add b Ts_isa.Opcode.Load in
  let f = B.add b Ts_isa.Opcode.Fmul in
  let st = B.add b Ts_isa.Opcode.Store in
  B.dep b ld f;
  B.dep b f st;
  B.mem_dep b ~dist:1 ~prob:0.1 st ld;
  B.build b

let motivating = Ts_workload.Motivating.ddg

(* A deterministic generated loop of moderate size. *)
let generated ?(seed = 0) ?(n_inst = 24) () =
  let rng = Ts_base.Rng.of_string (Printf.sprintf "testgen/%d" seed) in
  Ts_workload.Gen.generate rng
    { Ts_workload.Gen.default_profile with Ts_workload.Gen.n_inst }

(* QCheck arbitrary over generated loops, shrinking on the seed. *)
let arb_loop =
  QCheck.make
    ~print:(fun (seed, n) -> Printf.sprintf "loop(seed=%d, n=%d)" seed n)
    QCheck.Gen.(pair (int_bound 500) (int_range 6 40))

let loop_of_arb (seed, n_inst) = generated ~seed ~n_inst ()

(* Generated loops whose cross-iteration memory dependences carry
   profiled probabilities in 0.02-0.3, the range where the C2 threshold
   binds for the swept P_max values (0.01, 0.05, 0.25). *)
let c2_loops () =
  List.init 8 (fun i ->
      let rng = Ts_base.Rng.of_string (Printf.sprintf "c2gen/%d" i) in
      Ts_workload.Gen.generate rng
        { Ts_workload.Gen.default_profile with
          n_inst = 10 + (3 * i); mem_dep_rate = 1.0; mem_prob = (0.02, 0.3);
          mem_rec = i mod 2 = 0 })

(* A TMS result field by field, its kernel as (II, issue times): kernels
   hold the machine's closures, so [=] cannot compare them whole. *)
let tms_fields (r : Ts_tms.Tms.result) =
  ( (r.kernel.ii, r.kernel.time),
    (r.mii, r.c_delay_threshold, r.achieved_c_delay, r.p_max),
    (r.misspec, r.f_min, r.attempts, r.fell_back) )
