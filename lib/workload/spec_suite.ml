type bench = {
  name : string;
  n_loops : int;
  avg_inst : float;
  avg_mii : float;
  coverage : float;
  rec_frac : float;
  mem_prob : float * float;
  trip : int;
  fp_frac : float;
  fmul_frac : float;
}

(* Columns 2-4 from Table 2. [coverage] is a documented synthetic constant
   (the paper does not report per-benchmark loop coverage for Table 2);
   [rec_frac] encodes the paper's qualitative notes: art is
   recurrence-bound (its MII is well above #inst/width), wupwise has one
   dominant SCC, most others are resource-bound.

   [mem_prob] ranges are calibrated to the SPECfp2000 profile regime the
   paper reports (§7.9(b)): per-dependence misspeculation probabilities
   of a few 0.01%, so simulated squash rates over the suite land below
   0.1% of committed iterations (Section 5.2) while the dependences stay
   frequent enough that C2 and dependence preservation remain live. *)
let benchmarks =
  [
    { name = "wupwise"; n_loops = 16; avg_inst = 16.2; avg_mii = 4.4;
      coverage = 0.40; rec_frac = 0.35; mem_prob = (0.0001, 0.0006); trip = 400; fp_frac = 0.6; fmul_frac = 0.28 };
    { name = "swim"; n_loops = 11; avg_inst = 25.7; avg_mii = 6.0;
      coverage = 0.55; rec_frac = 0.10; mem_prob = (0.0001, 0.0006); trip = 400; fp_frac = 0.6; fmul_frac = 0.28 };
    { name = "mgrid"; n_loops = 10; avg_inst = 34.3; avg_mii = 8.3;
      coverage = 0.60; rec_frac = 0.10; mem_prob = (0.0001, 0.0006); trip = 400; fp_frac = 0.6; fmul_frac = 0.28 };
    { name = "applu"; n_loops = 41; avg_inst = 46.8; avg_mii = 11.9;
      coverage = 0.45; rec_frac = 0.20; mem_prob = (0.0001, 0.0006); trip = 400; fp_frac = 0.6; fmul_frac = 0.28 };
    { name = "mesa"; n_loops = 51; avg_inst = 24.3; avg_mii = 5.7;
      coverage = 0.30; rec_frac = 0.10; mem_prob = (0.0001, 0.0006); trip = 400; fp_frac = 0.6; fmul_frac = 0.28 };
    { name = "art"; n_loops = 10; avg_inst = 16.1; avg_mii = 7.6;
      (* art is multiplier-bound (dot-product kernels): its MII sits well
         above #inst/width without being recurrence-limited *)
      coverage = 0.45; rec_frac = 0.15; mem_prob = (0.0001, 0.0005); trip = 400;
      fp_frac = 0.85; fmul_frac = 0.70 };
    { name = "equake"; n_loops = 5; avg_inst = 43.6; avg_mii = 11.4;
      coverage = 0.60; rec_frac = 0.30; mem_prob = (0.0001, 0.0005); trip = 400; fp_frac = 0.6; fmul_frac = 0.28 };
    { name = "facerec"; n_loops = 26; avg_inst = 31.7; avg_mii = 8.0;
      coverage = 0.45; rec_frac = 0.15; mem_prob = (0.0001, 0.0006); trip = 400; fp_frac = 0.6; fmul_frac = 0.28 };
    { name = "ammp"; n_loops = 11; avg_inst = 35.6; avg_mii = 9.6;
      coverage = 0.30; rec_frac = 0.30; mem_prob = (0.0001, 0.0006); trip = 400; fp_frac = 0.6; fmul_frac = 0.28 };
    { name = "lucas"; n_loops = 24; avg_inst = 169.6; avg_mii = 42.2;
      coverage = 0.35; rec_frac = 0.30; mem_prob = (0.0001, 0.0006); trip = 200; fp_frac = 0.6; fmul_frac = 0.28 };
    { name = "fma3d"; n_loops = 170; avg_inst = 29.0; avg_mii = 7.3;
      coverage = 0.25; rec_frac = 0.15; mem_prob = (0.0001, 0.0005); trip = 400; fp_frac = 0.6; fmul_frac = 0.28 };
    { name = "sixtrack"; n_loops = 340; avg_inst = 41.2; avg_mii = 10.7;
      coverage = 0.35; rec_frac = 0.20; mem_prob = (0.0001, 0.0006); trip = 400; fp_frac = 0.6; fmul_frac = 0.28 };
    { name = "apsi"; n_loops = 63; avg_inst = 29.0; avg_mii = 7.7;
      coverage = 0.40; rec_frac = 0.20; mem_prob = (0.0001, 0.0006); trip = 400; fp_frac = 0.6; fmul_frac = 0.28 };
  ]

let find name = List.find (fun b -> b.name = name) benchmarks

let total_loops = List.fold_left (fun acc b -> acc + b.n_loops) 0 benchmarks

let loop ?probe bench index =
  Gen.schedulable ?probe
    ~key:(Printf.sprintf "spec/%s/loop%d/try%d" bench.name index)
    (fun rng ->
      (* instruction count: uniform within +-40% of the benchmark average *)
      let spread = 0.4 in
      let lo = int_of_float (bench.avg_inst *. (1.0 -. spread)) in
      let hi = int_of_float (bench.avg_inst *. (1.0 +. spread)) in
      let n_inst = max 6 (Ts_base.Rng.int_in rng lo (max lo hi)) in
      let recurrence = Ts_base.Rng.bool rng bench.rec_frac in
      let target_rec_ii =
        if recurrence then
          (* scale the benchmark's MII target to this loop's size *)
          let scaled = bench.avg_mii *. float_of_int n_inst /. bench.avg_inst in
          Some (max 2 (int_of_float (Float.round scaled)))
        else None
      in
      Gen.generate rng
        {
          Gen.default_profile with
          Gen.name = Printf.sprintf "%s_%d" bench.name index;
          n_inst;
          target_rec_ii;
          mem_prob = bench.mem_prob;
          fp_frac = bench.fp_frac;
          fmul_frac = bench.fmul_frac;
          self_loop_rate = (if recurrence then 0.10 else 0.12);
          n_extra_sccs = (if recurrence then Ts_base.Rng.int rng 2 else 0);
        })

let loop_count ?limit bench =
  match limit with None -> bench.n_loops | Some k -> max 0 (min k bench.n_loops)

let loops ?limit bench = List.init (loop_count ?limit bench) (loop bench)
