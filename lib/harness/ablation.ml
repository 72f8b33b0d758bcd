type row = {
  bench : string;
  spec_gain : float;
  nospec_gain : float;
  gain_reduction : float;
  misspec_rate : float;
}

let compute ~cfg (runs : Doacross_runs.t list) =
  let params = cfg.Ts_spmt.Config.params in
  List.map
    (fun (r : Doacross_runs.t) ->
      let trip = r.sel.trip in
      let nospec_cycles =
        List.fold_left
          (fun acc { Doacross_runs.g; sms; _ } ->
            let sms = (sms, lazy (Ts_sms.Sms.swing g)) in
            let tms0 = Cached.tms ~sms ~p_max:0.0 ~params g in
            let st =
              Cached.sim ~sync_mem:true ~warmup:Defaults.warmup cfg
                tms0.Ts_tms.Tms.kernel ~trip
            in
            acc + st.Ts_spmt.Sim.cycles)
          0 r.loops
      in
      let sum f = List.fold_left (fun a l -> a + f l) 0 r.loops in
      let single = sum (fun l -> l.Doacross_runs.sim_single.Ts_spmt.Single.cycles) in
      let tms = sum (fun l -> l.Doacross_runs.sim_tms.Ts_spmt.Sim.cycles) in
      let squashes = sum (fun l -> l.Doacross_runs.sim_tms.Ts_spmt.Sim.squashes) in
      let committed = sum (fun l -> l.Doacross_runs.sim_tms.Ts_spmt.Sim.committed) in
      let spec_gain =
        Ts_base.Stats.speedup_percent ~baseline:(float_of_int single)
          ~improved:(float_of_int tms)
      in
      let nospec_gain =
        Ts_base.Stats.speedup_percent ~baseline:(float_of_int single)
          ~improved:(float_of_int nospec_cycles)
      in
      {
        bench = r.sel.bench;
        spec_gain;
        nospec_gain;
        gain_reduction =
          (if spec_gain <= 0.0 then 0.0
           else (spec_gain -. nospec_gain) /. spec_gain *. 100.0);
        misspec_rate = float_of_int squashes /. float_of_int (max 1 committed);
      })
    runs

let render rows =
  let open Ts_base.Tablefmt in
  let t =
    create
      ~title:
        "Speculation ablation (Sec 5.2): TMS gain over single-threaded, with and without data speculation"
      [
        ("Benchmark", Left); ("Gain (spec)", Right); ("Gain (no spec)", Right);
        ("Gain reduction", Right); ("Misspec rate", Right);
      ]
  in
  List.iter
    (fun r ->
      add_row t
        [
          r.bench; cell_pct r.spec_gain; cell_pct r.nospec_gain;
          cell_pct r.gain_reduction;
          Printf.sprintf "%.3f%%" (r.misspec_rate *. 100.0);
        ])
    rows;
  render t
