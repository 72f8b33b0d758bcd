module K = Ts_modsched.Kernel

type row = {
  bench : string;
  n_loops : int;
  avg_inst : float;
  avg_mii : float;
  sms_ii : float;
  sms_maxlive : float;
  sms_c_delay : float;
  tms_ii : float;
  tms_maxlive : float;
  tms_c_delay : float;
}

let row ~params bench (loops : Suite.loop list) =
  let c_reg_com = params.Ts_isa.Spmt_params.c_reg_com in
  let favg f = Ts_base.Stats.mean (List.map (fun (l : Suite.loop) -> f l.run) loops) in
  {
    bench = bench.Ts_workload.Spec_suite.name;
    n_loops = List.length loops;
    avg_inst = favg (fun r -> float_of_int (Ts_ddg.Ddg.n_nodes r.Suite.g));
    avg_mii = favg (fun r -> float_of_int r.Suite.sms.Ts_sms.Sms.mii);
    sms_ii = favg (fun r -> float_of_int r.Suite.sms.Ts_sms.Sms.kernel.K.ii);
    sms_maxlive =
      favg (fun r -> float_of_int (K.max_live r.Suite.sms.Ts_sms.Sms.kernel));
    sms_c_delay =
      favg (fun r ->
          float_of_int (K.c_delay r.Suite.sms.Ts_sms.Sms.kernel ~c_reg_com));
    tms_ii = favg (fun r -> float_of_int r.Suite.tms.Ts_tms.Tms.kernel.K.ii);
    tms_maxlive =
      favg (fun r -> float_of_int (K.max_live r.Suite.tms.Ts_tms.Tms.kernel));
    tms_c_delay = favg (fun r -> float_of_int r.Suite.tms.Ts_tms.Tms.achieved_c_delay);
  }

let compute ~params suite = List.map (fun (bench, loops) -> row ~params bench loops) suite

let render rows =
  let open Ts_base.Tablefmt in
  let t =
    create
      ~title:
        "Table 2: SMS vs TMS, traditional modulo scheduling metrics (averages per benchmark)"
      [
        ("Benchmark", Left); ("#Loops", Right); ("AVG #Inst", Right);
        ("AVG MII", Right); ("SMS II", Right); ("SMS MaxLive", Right);
        ("SMS Cdelay", Right); ("TMS II", Right); ("TMS MaxLive", Right);
        ("TMS Cdelay", Right);
      ]
  in
  List.iter
    (fun r ->
      add_row t
        [
          r.bench; cell_int r.n_loops; cell_f1 r.avg_inst; cell_f1 r.avg_mii;
          cell_f1 r.sms_ii; cell_f1 r.sms_maxlive; cell_f1 r.sms_c_delay;
          cell_f1 r.tms_ii; cell_f1 r.tms_maxlive; cell_f1 r.tms_c_delay;
        ])
    rows;
  render t
