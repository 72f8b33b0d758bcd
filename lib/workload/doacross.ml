type selected = {
  bench : string;
  loops : Ts_ddg.Ddg.t list;
  coverage : float;
  trip : int;
}

let make_loop ~bench ~index ~profile () =
  Gen.schedulable
    ~key:(Printf.sprintf "doacross/%s/%d/try%d" bench index)
    (fun rng -> Gen.generate rng profile)

(* Table 3 row: 4 loops, 27 inst, 3 SCCs, MII 11, LDP 29, LC 21.6%. The
   paper notes art's selected MIIs are resource-constrained: these are
   multiply-heavy dot-product kernels, so the single multiplier sets
   ResII near 11 while the recurrences stay small. *)
let art =
  {
    bench = "art";
    loops =
      List.init 4 (fun i ->
          make_loop ~bench:"art" ~index:i
            ~profile:
              {
                Gen.default_profile with
                Gen.name = Printf.sprintf "art_sel%d" i;
                n_inst = 27;
                mem_frac = 0.25;
                fp_frac = 0.8;
                fmul_frac = 0.65;
                target_rec_ii = None;
                n_extra_sccs = 3;
                ldp_target = Some 29;
                mem_prob = (0.0001, 0.0006);
                mem_dep_rate = 1.0;
                self_loop_rate = 0.0;
              }
            ());
    coverage = 0.216;
    trip = 600;
  }

(* 1 loop, 82 inst, 3 SCCs, MII 20 (resource-bound), LDP 26, LC 58.5%.
   Speculation matters here (Section 5.2: -19% without it), so its memory
   dependences get non-trivial (but still small) probabilities. *)
let equake =
  {
    bench = "equake";
    loops =
      [
        make_loop ~bench:"equake" ~index:0
          ~profile:
            {
              Gen.default_profile with
              Gen.name = "equake_sel0";
              n_inst = 82;
              target_rec_ii = None;
              n_extra_sccs = 3;
              ldp_target = Some 26;
              mem_prob = (0.0001, 0.0005);
              mem_dep_rate = 1.0;
              self_loop_rate = 0.0;
            }
          ();
      ];
    coverage = 0.585;
    trip = 600;
  }

(* 1 loop, 102 inst, 8 SCCs, MII 62 (a big always-taken recurrence), LDP
   89, LC 33.4%. The paper notes its largest SCC is formed by flow
   dependences with probability 1; we build it from register flow
   dependences, which are always enforced. *)
let lucas =
  {
    bench = "lucas";
    loops =
      [
        make_loop ~bench:"lucas" ~index:0
          ~profile:
            {
              Gen.default_profile with
              Gen.name = "lucas_sel0";
              n_inst = 102;
              target_rec_ii = Some 58;
              n_extra_sccs = 8;
              ldp_target = Some 89;
              mem_prob = (0.0001, 0.0004);
              mem_dep_rate = 0.6;
              self_loop_rate = 0.0;
            }
          ();
      ];
    coverage = 0.334;
    trip = 400;
  }

(* 1 loop, 72 inst, 3 SCCs, MII 18 (resource-bound), LDP 34, LC 14.3%.
   Also speculation-sensitive (-21.4% without it). *)
let fma3d =
  {
    bench = "fma3d";
    loops =
      [
        make_loop ~bench:"fma3d" ~index:0
          ~profile:
            {
              Gen.default_profile with
              Gen.name = "fma3d_sel0";
              n_inst = 72;
              target_rec_ii = None;
              n_extra_sccs = 3;
              ldp_target = Some 34;
              mem_prob = (0.00006, 0.0003);
              mem_dep_rate = 1.6;
              self_loop_rate = 0.0;
            }
          ();
      ];
    coverage = 0.143;
    trip = 600;
  }

let all = [ art; equake; lucas; fma3d ]
