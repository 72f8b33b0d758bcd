type row = {
  bench : string;
  loop_speedup : float;
  program_speedup : float;
  sms_cycles : int;
  tms_cycles : int;
}

let program_speedup_of ~coverage ~loop_speedup_pct =
  let s = 1.0 +. (loop_speedup_pct /. 100.0) in
  ((1.0 /. ((coverage /. s) +. (1.0 -. coverage))) -. 1.0) *. 100.0

let compute suite =
  let sum f = List.fold_left (fun a (l : Suite.loop) -> a + (f l).Ts_spmt.Sim.cycles) 0 in
  List.map
    (fun ((bench : Ts_workload.Spec_suite.bench), loops) ->
      let sms_cycles = sum (fun l -> l.sim_sms) loops in
      let tms_cycles = sum (fun l -> l.sim_tms) loops in
      let loop_speedup =
        Ts_base.Stats.speedup_percent
          ~baseline:(float_of_int sms_cycles)
          ~improved:(float_of_int tms_cycles)
      in
      {
        bench = bench.name;
        loop_speedup;
        program_speedup =
          program_speedup_of ~coverage:bench.coverage ~loop_speedup_pct:loop_speedup;
        sms_cycles;
        tms_cycles;
      })
    suite

let averages rows =
  ( Ts_base.Stats.mean (List.map (fun r -> r.loop_speedup) rows),
    Ts_base.Stats.mean (List.map (fun r -> r.program_speedup) rows) )

let render rows =
  let open Ts_base.Tablefmt in
  let t =
    create ~title:"Figure 4: speedups of TMS over SMS (quad-core SpMT)"
      [
        ("Benchmark", Left); ("SMS cycles", Right); ("TMS cycles", Right);
        ("Loop speedup", Right); ("Program speedup", Right);
      ]
  in
  List.iter
    (fun r ->
      add_row t
        [
          r.bench; cell_int r.sms_cycles; cell_int r.tms_cycles;
          cell_pct r.loop_speedup; cell_pct r.program_speedup;
        ])
    rows;
  let lavg, pavg = averages rows in
  add_sep t;
  add_row t [ "average"; ""; ""; cell_pct lavg; cell_pct pavg ];
  render t
