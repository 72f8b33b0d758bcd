module K = Ts_modsched.Kernel
module P = Ts_isa.Placement

type row = {
  bench : string;
  ncore : int;
  sms_cpi : float;
  tms_cpi : float;
  tms_gain : float;
  model_floor : float;
}

(* An empty benchmark selection is a workload-definition bug, not a
   reason to die with a bare [Failure "hd"]: warn once (with the bench
   name) and skip the benchmark. *)
let first_loop ~where (sel : Ts_workload.Doacross.selected) =
  match sel.loops with
  | g :: _ -> Some g
  | [] ->
      Ts_resil.Warn.once
        ~key:(where ^ ".empty:" ^ sel.bench)
        (Printf.sprintf "%s: benchmark %S selected no loops; skipping" where
           sel.bench);
      None

let compute ?(ncores = [ 2; 4; 8; 16 ]) () =
  let trip = 1500 and warmup = Defaults.warmup in
  List.concat_map
    (fun (sel : Ts_workload.Doacross.selected) ->
      match first_loop ~where:"Scaling.compute" sel with
      | None -> []
      | Some g ->
          let with_swing = Cached.sms g in
          let sms = (fst with_swing).Ts_sms.Sms.kernel in
          List.map
            (fun ncore ->
              let cfg = Ts_spmt.Config.with_ncore Ts_spmt.Config.default ncore in
              let params = cfg.Ts_spmt.Config.params in
              let tms = Cached.tms_sweep ~sms:with_swing ~params g in
              let tk = tms.Ts_tms.Tms.kernel in
              let s_sms = Cached.sim ~warmup cfg sms ~trip in
              let s_tms = Cached.sim ~warmup cfg tk ~trip in
              let cpi (st : Ts_spmt.Sim.stats) =
                float_of_int st.cycles /. float_of_int trip
              in
              {
                bench = sel.bench;
                ncore;
                sms_cpi = cpi s_sms;
                tms_cpi = cpi s_tms;
                tms_gain =
                  Ts_base.Stats.speedup_percent
                    ~baseline:(float_of_int s_sms.Ts_spmt.Sim.cycles)
                    ~improved:(float_of_int s_tms.Ts_spmt.Sim.cycles);
                model_floor =
                  Ts_tms.Cost_model.f_value params ~ii:tk.K.ii
                    ~c_delay:(max 1 tms.Ts_tms.Tms.achieved_c_delay);
              })
            ncores)
    Ts_workload.Doacross.all

let render rows =
  let open Ts_base.Tablefmt in
  let t =
    create ~title:"Core-count scaling (insight: the serial C_delay floor)"
      [
        ("Benchmark", Left); ("cores", Right); ("SMS c/i", Right);
        ("TMS c/i", Right); ("TMS gain", Right); ("model floor", Right);
      ]
  in
  let last = ref "" in
  List.iter
    (fun r ->
      if !last <> "" && !last <> r.bench then add_sep t;
      last := r.bench;
      add_row t
        [
          r.bench; cell_int r.ncore; cell_f1 r.sms_cpi; cell_f1 r.tms_cpi;
          cell_pct r.tms_gain; cell_f1 r.model_floor;
        ])
    rows;
  render t

(* ---- placement × core-mix ablation (heterogeneous machines) ---------- *)

type hrow = {
  h_bench : string;
  h_mix : string;
  h_policy : P.policy;
  h_map : string;  (** one period of the compiled placement *)
  h_cpi : float;
  h_sync_stalls : int;
  h_spawn_stalls : int;
}

let default_mixes = [ "4"; "2fast+2slow" ]

let compute_hetero ?(mixes = default_mixes) ?(policies = P.all) () =
  let trip = 1500 and warmup = Defaults.warmup in
  List.concat_map
    (fun (sel : Ts_workload.Doacross.selected) ->
      match first_loop ~where:"Scaling.compute_hetero" sel with
      | None -> []
      | Some g ->
          let with_swing = Cached.sms g in
          List.concat_map
            (fun mix ->
              let params =
                match Ts_isa.Spmt_params.mix_of_string mix with
                | Ok m -> Ts_isa.Spmt_params.apply_mix Ts_isa.Spmt_params.default m
                | Error e ->
                    invalid_arg
                      (Printf.sprintf "Scaling.compute_hetero: bad mix %S (%s)"
                         mix e)
              in
              let base_cfg = { Ts_spmt.Config.default with params } in
              List.map
                (fun pol ->
                  (* Schedule against the policy's effective machine (the
                     cache keys on the effective params), then simulate
                     under the policy itself. *)
                  let eff = P.effective_params pol params in
                  let tms = Cached.tms_sweep ~sms:with_swing ~params:eff g in
                  let k = tms.Ts_tms.Tms.kernel in
                  let cfg = Ts_spmt.Config.with_placement base_cfg pol in
                  let st = Cached.sim ~warmup cfg k ~trip in
                  {
                    h_bench = sel.bench;
                    h_mix = mix;
                    h_policy = pol;
                    h_map =
                      (let s = P.seq (P.make pol params) in
                       "["
                       ^ String.concat " "
                           (List.map string_of_int (Array.to_list s))
                       ^ "]");
                    h_cpi =
                      float_of_int st.Ts_spmt.Sim.cycles /. float_of_int trip;
                    h_sync_stalls = st.Ts_spmt.Sim.sync_stall_cycles;
                    h_spawn_stalls = st.Ts_spmt.Sim.spawn_stall_cycles;
                  })
                policies)
            mixes)
    Ts_workload.Doacross.all

let render_hetero rows =
  let open Ts_base.Tablefmt in
  let t =
    create
      ~title:
        "Placement × core-mix ablation (big.LITTLE rings; TMS, P_max sweep)"
      [
        ("Benchmark", Left); ("cores", Left); ("placement", Left);
        ("map", Left); ("TMS c/i", Right); ("sync stalls", Right);
        ("spawn stalls", Right);
      ]
  in
  let last = ref "" in
  List.iter
    (fun r ->
      let key = r.h_bench ^ "/" ^ r.h_mix in
      if !last <> "" && !last <> key then add_sep t;
      last := key;
      add_row t
        [
          r.h_bench; r.h_mix; P.policy_to_string r.h_policy; r.h_map;
          cell_f1 r.h_cpi; cell_int r.h_sync_stalls; cell_int r.h_spawn_stalls;
        ])
    rows;
  render t
