module K = Ts_modsched.Kernel

type row = {
  loop : string;
  variant : string;
  ii : int;
  c_delay : int;
  misspec_static : float;
  cycles_per_iter : float;
  misspec_dynamic : float;
}

let compute ~cfg =
  let params = cfg.Ts_spmt.Config.params in
  let c_reg_com = params.Ts_isa.Spmt_params.c_reg_com in
  let trip = 1500 and warmup = Defaults.warmup in
  List.concat_map
    (fun (sel : Ts_workload.Doacross.selected) ->
      match Scaling.first_loop ~where:"Schedulers.compute" sel with
      | None -> []
      | Some g ->
      let sms = Cached.sms g and ims = Cached.ims g in
      let variants =
        [
          ("sms", (fst sms).Ts_sms.Sms.kernel);
          ("ims", ims.Ts_sms.Ims.kernel);
          ("ts-sms", (Cached.tms_sweep ~sms ~params g).Ts_tms.Tms.kernel);
          ("ts-sms-c1", (Cached.tms ~sms ~p_max:1.0 ~params g).Ts_tms.Tms.kernel);
          ("ts-ims", (Cached.tms_ims ~ims ~params g).Ts_tms.Tms.kernel);
        ]
      in
      List.map
        (fun (variant, k) ->
          let st = Cached.sim ~warmup cfg k ~trip in
          {
            loop = g.Ts_ddg.Ddg.name;
            variant;
            ii = k.K.ii;
            c_delay = K.c_delay k ~c_reg_com;
            misspec_static = Ts_tms.Overheads.misspec_prob k ~c_reg_com;
            cycles_per_iter = float_of_int st.Ts_spmt.Sim.cycles /. float_of_int trip;
            misspec_dynamic = st.Ts_spmt.Sim.misspec_rate;
          })
        variants)
    Ts_workload.Doacross.all

let render rows =
  let open Ts_base.Tablefmt in
  let t =
    create
      ~title:
        "Scheduler ablation: base algorithm (SMS vs IMS) and admission conditions"
      [
        ("Loop", Left); ("Variant", Left); ("II", Right); ("C_delay", Right);
        ("P_M", Right); ("cycles/iter", Right); ("misspec", Right);
      ]
  in
  let last = ref "" in
  List.iter
    (fun r ->
      if !last <> "" && !last <> r.loop then add_sep t;
      last := r.loop;
      add_row t
        [
          r.loop; r.variant; cell_int r.ii; cell_int r.c_delay;
          Printf.sprintf "%.3f" r.misspec_static;
          cell_f2 r.cycles_per_iter;
          Printf.sprintf "%.3f%%" (r.misspec_dynamic *. 100.0);
        ])
    rows;
  render t
