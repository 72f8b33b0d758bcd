module K = Ts_modsched.Kernel

type row = {
  bench : string;
  n_loops : int;
  coverage : float;
  avg_inst : float;
  avg_scc : float;
  avg_mii : float;
  avg_ldp : float;
  tms_ii : float;
  tms_maxlive : float;
  tms_c_delay : float;
}

let compute (runs : Doacross_runs.t list) =
  List.map
    (fun (r : Doacross_runs.t) ->
      let favg f = Ts_base.Stats.mean (List.map f r.loops) in
      {
        bench = r.sel.bench;
        n_loops = List.length r.loops;
        coverage = r.sel.coverage;
        avg_inst = favg (fun l -> float_of_int (Ts_ddg.Ddg.n_nodes l.Doacross_runs.g));
        avg_scc =
          favg (fun l -> float_of_int (Ts_ddg.Scc.count_non_trivial l.Doacross_runs.g));
        avg_mii = favg (fun l -> float_of_int l.Doacross_runs.sms.Ts_sms.Sms.mii);
        avg_ldp = favg (fun l -> float_of_int (Ts_ddg.Mii.ldp l.Doacross_runs.g));
        tms_ii =
          favg (fun l -> float_of_int l.Doacross_runs.tms.Ts_tms.Tms.kernel.K.ii);
        tms_maxlive =
          favg (fun l ->
              float_of_int (K.max_live l.Doacross_runs.tms.Ts_tms.Tms.kernel));
        tms_c_delay =
          favg (fun l -> float_of_int l.Doacross_runs.tms.Ts_tms.Tms.achieved_c_delay);
      })
    runs

let render rows =
  let open Ts_base.Tablefmt in
  let t =
    create ~title:"Table 3: selected DOACROSS loops and their TMS-scheduled loops"
      [
        ("Benchmark", Left); ("#Loops", Right); ("LC", Right); ("AVG #Inst", Right);
        ("AVG #SCC", Right); ("AVG MII", Right); ("AVG LDP", Right);
        ("TMS AVG II", Right); ("TMS AVG ML", Right); ("TMS AVG D", Right);
      ]
  in
  List.iter
    (fun r ->
      add_row t
        [
          r.bench; cell_int r.n_loops;
          cell_pct (r.coverage *. 100.0);
          cell_f1 r.avg_inst; cell_f1 r.avg_scc; cell_f1 r.avg_mii;
          cell_f1 r.avg_ldp; cell_f1 r.tms_ii; cell_f1 r.tms_maxlive;
          cell_f1 r.tms_c_delay;
        ])
    rows;
  render t
