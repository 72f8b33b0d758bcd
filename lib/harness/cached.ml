module K = Ts_modsched.Kernel

let code_version = 2
let store : Ts_persist.t option ref = ref None
let set_store s = store := s
let get_store () = !store

(* ---- fingerprints ---- *)

(* A DDG's machine record holds a closure, so serialise its scalar fields
   and the node/edge arrays (plain records) instead of the whole value. *)
let ddg_fp (g : Ts_ddg.Ddg.t) =
  let m = g.machine in
  Marshal.to_string
    ( g.name,
      m.Ts_isa.Machine.name,
      m.Ts_isa.Machine.issue_width,
      m.Ts_isa.Machine.fu_counts,
      m.Ts_isa.Machine.n_registers,
      g.nodes,
      g.edges )
    []

let cfg_fp (cfg : Ts_spmt.Config.t) = Marshal.to_string cfg []
let kernel_fp (k : K.t) = Marshal.to_string (k.K.ii, k.K.time) []

let key ~kind parts =
  Ts_persist.digest_hex
    (String.concat "\x00" (kind :: string_of_int code_version :: parts))

(* ---- plain schedule projections ---- *)

type sms_plain = { s_ii : int; s_time : int array; s_mii : int; s_attempts : int }

type ims_plain = {
  i_ii : int;
  i_time : int array;
  i_mii : int;
  i_attempts : int;
  i_placements : int;
}

type tms_plain = {
  t_ii : int;
  t_time : int array;
  t_mii : int;
  t_cdt : int;
  t_acd : int;
  t_pmax : float;
  t_misspec : float;
  t_fmin : float;
  t_attempts : int;
  t_fell_back : bool;
}

let sms_to_plain (r : Ts_sms.Sms.result) =
  {
    s_ii = r.kernel.K.ii;
    s_time = r.kernel.K.time;
    s_mii = r.mii;
    s_attempts = r.attempts;
  }

let sms_of_plain g (p : sms_plain) : Ts_sms.Sms.result =
  {
    kernel = K.of_times g ~ii:p.s_ii p.s_time;
    mii = p.s_mii;
    attempts = p.s_attempts;
  }

let ims_to_plain (r : Ts_sms.Ims.result) =
  {
    i_ii = r.kernel.K.ii;
    i_time = r.kernel.K.time;
    i_mii = r.mii;
    i_attempts = r.attempts;
    i_placements = r.placements;
  }

let ims_of_plain g (p : ims_plain) : Ts_sms.Ims.result =
  {
    kernel = K.of_times g ~ii:p.i_ii p.i_time;
    mii = p.i_mii;
    attempts = p.i_attempts;
    placements = p.i_placements;
  }

let tms_to_plain (r : Ts_tms.Tms.result) =
  {
    t_ii = r.kernel.K.ii;
    t_time = r.kernel.K.time;
    t_mii = r.mii;
    t_cdt = r.c_delay_threshold;
    t_acd = r.achieved_c_delay;
    t_pmax = r.p_max;
    t_misspec = r.misspec;
    t_fmin = r.f_min;
    t_attempts = r.attempts;
    t_fell_back = r.fell_back;
  }

let tms_of_plain g (p : tms_plain) : Ts_tms.Tms.result =
  {
    kernel = K.of_times g ~ii:p.t_ii p.t_time;
    mii = p.t_mii;
    c_delay_threshold = p.t_cdt;
    achieved_c_delay = p.t_acd;
    p_max = p.t_pmax;
    misspec = p.t_misspec;
    f_min = p.t_fmin;
    attempts = p.t_attempts;
    fell_back = p.t_fell_back;
  }

(* ---- cached computations ----

   [cached] is the one path from a request to the result: look the key
   up in the store, rebuild the value from its plain projection, and
   on a miss compute and store it. A reconstruction failure (stale
   entry whose times no longer validate against today's generator
   output, or an injected cached.reconstruct fault) falls back to
   recomputing and overwriting. Simulator stats are plain records
   already, so [sim] and [sim_single] pass identity projections, and
   their store hits pass the cached.reconstruct fault point too. *)

let m_reconstruct_failed =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.reconstruct_failed"

let cached ?(span = "cached.driver") ~key:k ~to_plain ~of_plain f =
  Ts_obs.Prof.span span @@ fun () ->
  let from_store =
    match Option.bind !store (fun s -> Ts_persist.find s ~key:k) with
    | None -> None
    | Some p -> (
        match
          Ts_resil.Fault.guard "cached.reconstruct";
          of_plain p
        with
        | v -> Some v
        | exception _ ->
            Ts_obs.Metrics.incr m_reconstruct_failed;
            None)
  in
  match from_store with
  | Some v -> v
  | None ->
      let v = f () in
      Option.iter (fun s -> Ts_persist.store s ~key:k (to_plain v)) !store;
      v

(* A loop SMS rejects is cached as [Error msg], so a warm run re-raises
   the rejection instead of re-running SMS on it. The swing analysis is
   built only on a miss of SMS or of a TMS search given this result. *)
let sms g =
  let swing = lazy (Ts_sms.Sms.swing g) in
  match
    cached ~span:"cached.sms"
      ~key:(key ~kind:"sms" [ ddg_fp g ])
      ~to_plain:(Result.map sms_to_plain)
      ~of_plain:(Result.map (sms_of_plain g))
      (fun () ->
        match Ts_sms.Sms.schedule ~swing g with
        | r -> Ok r
        | exception Ts_sms.Sms.No_schedule msg -> Error msg)
  with
  | Ok r -> (r, swing)
  | Error msg -> raise (Ts_sms.Sms.No_schedule msg)

let ims g =
  cached ~span:"cached.ims"
    ~key:(key ~kind:"ims" [ ddg_fp g ])
    ~to_plain:ims_to_plain
    ~of_plain:(ims_of_plain g)
    (fun () -> Ts_sms.Ims.schedule g)

let params_fp (p : Ts_isa.Spmt_params.t) = Marshal.to_string p []

let tms_sweep ?sms ~params g =
  cached ~span:"cached.tms_sweep"
    ~key:(key ~kind:"tms_sweep" [ params_fp params; ddg_fp g ])
    ~to_plain:tms_to_plain
    ~of_plain:(tms_of_plain g)
    (fun () -> Ts_tms.Tms.schedule_sweep ?sms ~params g)

let tms ?sms ?p_max ~params g =
  let pm =
    match p_max with None -> "default" | Some x -> Printf.sprintf "%h" x
  in
  cached ~span:"cached.tms"
    ~key:(key ~kind:"tms" [ pm; params_fp params; ddg_fp g ])
    ~to_plain:tms_to_plain
    ~of_plain:(tms_of_plain g)
    (fun () -> Ts_tms.Tms.schedule ?sms ?p_max ~params g)

let tms_ims ?ims ~params g =
  cached ~span:"cached.tms_ims"
    ~key:(key ~kind:"tms_ims" [ params_fp params; ddg_fp g ])
    ~to_plain:tms_to_plain
    ~of_plain:(tms_of_plain g)
    (fun () -> Ts_tms.Tms_ims.schedule ?ims ~params g)

(* [warmup] defaults to {!Defaults.warmup}, NOT 0: every harness driver
   wants the warmed measurement, and a caller that forgets the argument
   must not silently publish cold-cache numbers (a fig2 run did exactly
   that before the default was routed through the shared constant). *)
let sim ?(sync_mem = false) ?seed ?(warmup = Defaults.warmup) cfg (k : K.t)
    ~trip =
  let g = k.K.g in
  let seed = match seed with Some s -> s | None -> g.Ts_ddg.Ddg.name in
  let k' =
    key ~kind:"sim"
      [
        cfg_fp cfg;
        ddg_fp g;
        kernel_fp k;
        seed;
        string_of_bool sync_mem;
        string_of_int warmup;
        string_of_int trip;
      ]
  in
  cached ~span:"cached.sim" ~key:k' ~to_plain:Fun.id ~of_plain:Fun.id
    (fun () -> Ts_spmt.Sim.run ~seed ~sync_mem ~warmup ~fast:true cfg k ~trip)

let sim_single ?seed ?(warmup = Defaults.warmup) cfg g ~trip =
  let seed = match seed with Some s -> s | None -> g.Ts_ddg.Ddg.name in
  let k' =
    key ~kind:"single"
      [ cfg_fp cfg; ddg_fp g; seed; string_of_int warmup; string_of_int trip ]
  in
  cached ~span:"cached.sim_single" ~key:k' ~to_plain:Fun.id ~of_plain:Fun.id
    (fun () -> Ts_spmt.Single.run ~seed ~warmup cfg g ~trip)
