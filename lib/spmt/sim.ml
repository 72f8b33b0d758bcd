module K = Ts_modsched.Kernel
module Trace = Ts_obs.Trace
module J = Ts_obs.Json
module Chk = Ts_check.Invariant
module Ref = Ts_check.Ref_models

(* Simulator totals on the default metrics registry ([tsms --metrics]). *)
let m_threads = Ts_obs.Metrics.counter Ts_obs.Metrics.default "sim.threads"
let m_squashes = Ts_obs.Metrics.counter Ts_obs.Metrics.default "sim.squashes"

let m_sync_stalls =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default "sim.sync_stall_cycles"

let m_spawn_stalls =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default "sim.spawn_stall_cycles"

let m_mdt_peak = Ts_obs.Metrics.gauge Ts_obs.Metrics.default "sim.mdt_peak"

(* Steady-state fast path engagement (see [run]'s [fast]). *)
let m_fp_engaged =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default "sim.fastpath.engagements"

let m_fp_extrap =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default
    "sim.fastpath.extrapolated_threads"

let m_fp_mismatch =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default "sim.fastpath.mismatches"

type stats = {
  cycles : int;
  committed : int;
  squashes : int;
  misspec_rate : float;
  sync_stall_cycles : int;
  spawn_stall_cycles : int;
  send_recv_pairs : int;
  send_recv_cycles : int;
  communication_overhead : int;
  l1_hits : int;
  l1_misses : int;
  l2_hits : int;
  l2_misses : int;
  wb_peak : int;
  mdt_peak : int;
  stall_breakdown : ((int * int) * int) list;
}

(* One recorded thread of a fast-path detection window: everything the
   extrapolator needs to replay the thread's observable effects at a
   fixed time shift. Times are absolute (of the recorded thread); the
   extrapolated thread at the same window offset adds a multiple of the
   window period. The arrays are arena-pooled with capacity >= the run's
   node count; every reader bounds itself by the run's [n]. *)
type fp_rec = {
  mutable r_valid : bool;
  mutable r_start : int;
  mutable r_end_exec : int;
  mutable r_commit_end : int;
  mutable r_spawn : int; (* spawn-stall cycles (recorded even in warmup) *)
  mutable r_squashed : bool;
  mutable r_coin : bool; (* a probabilistic mem-dep coin touches this thread *)
  mutable r_nstalls : int;
  r_stalls : int array;
      (* RECV stalls, [r_nstalls] flat (blame, cycles, instant) triples;
         blame is [producer * n + consumer], or -1 *)
  r_finish : int array;
  r_issue : int array;
  r_lats : int array; (* per-load cache latency, the window's miss pattern *)
}

type thread_obs = {
  index : int;
  core : int;
  start : int;
  end_exec : int;
  commit_start : int;
  commit_end : int;
  squashed : bool;
}

(* ---- per-domain scratch arena ----

   Everything the per-cycle core touches per thread lives in flat [int
   array] scratch owned by a per-domain arena: the history ring is a
   struct-of-arrays (kind/shift tags plus flat [horizon * n] issue/finish
   planes), dependences are CSR index arrays, the fast path's coin
   iterations are a sorted int array, a thread's RECV stalls are flat int
   triples, finite-width issue slots are int counters, RECV-stall
   accounting is a flat [n * n] counter plane with a touched-list for
   O(touched) scrub, and the speculative-write-buffer event sweep is an
   int-keyed binary min-heap. The arena (including the caches and the
   MDT) is acquired at the top of every [run] and reused across sweep
   points on the same domain — the resident pool workers are domains, so
   a TMS sweep's thousands of simulations share one allocation.
   Capacities only grow; every loop bounds itself by the current run's
   sizes.

   Lifetime rules: an arena is owned by exactly one running [run] at a
   time ([in_use]; a re-entrant call from an [observe] hook gets a fresh
   transient arena). All scratch is scrubbed on acquire, not release, so
   a run that dies mid-flight (a [check] failure, a user hook raising)
   cannot poison the next run on that domain. Nothing in the returned
   [stats] aliases arena storage. *)
type arena = {
  mutable in_use : bool;
  mutable cap_n : int; (* capacity of every node-indexed scratch array *)
  (* per-thread scratch *)
  mutable lat_buf : int array;
  (* CSR views of the kernel's dependence structure (refilled per run) *)
  mutable by_row : int array;
  mutable loads : int array;
  mutable stores : int array;
  mutable reg_off : int array;
  mutable reg_src : int array;
  mutable reg_dk : int array;
  mutable intra_off : int array;
  mutable intra_src : int array;
  mutable coin_iters : int array; (* sorted iterations a coin redirects *)
  (* the executing thread's RECV stalls, flat triples (see [fp_rec]) *)
  mutable stall_buf : int array;
  (* finite-width issue counts, indexed by [issue - start]; zero past
     [iw_hi], the highest index touched since the last scrub (at every
     thread's start, so a run that died mid-thread poisons nothing) *)
  mutable iw_cnt : int array;
  mutable iw_hi : int;
  (* RECV-stall accumulation, flat [producer * n + consumer] *)
  mutable stall_cnt : int array;
  mutable stall_touched : int array;
  mutable stall_ntouched : int;
  (* history ring, struct-of-arrays *)
  mutable h_kind : int array; (* 0 empty / 1 real / 2 extrapolated *)
  mutable h_shift : int array;
  mutable h_rec : fp_rec array;
  mutable h_issue : int array; (* flat [slot * n + node] *)
  mutable h_finish : int array;
  (* write-buffer event min-heap; key = instant*2 + (1 iff allocation) *)
  mutable wb_heap : int array;
  mutable wb_len : int;
  (* reusable stateful models *)
  mutable cache_geom : int * int * int * int * int * int;
  mutable l1 : Cache.t array;
  mutable l2 : Cache.t;
  mdt : Mdt.t;
  (* the fast path's three detection windows (previous, current and
     signature) of [win_len] records with capacity [cap_n], or [||] *)
  mutable win_len : int;
  mutable windows : fp_rec array array;
}

let dummy_rec =
  {
    r_valid = false;
    r_start = 0;
    r_end_exec = 0;
    r_commit_end = 0;
    r_spawn = 0;
    r_squashed = false;
    r_coin = false;
    r_nstalls = 0;
    r_stalls = [||];
    r_finish = [||];
    r_issue = [||];
    r_lats = [||];
  }

let arena_create () =
  {
    in_use = false;
    cap_n = 0;
    lat_buf = [||];
    by_row = [||];
    loads = [||];
    stores = [||];
    reg_off = [| 0 |];
    reg_src = [||];
    reg_dk = [||];
    intra_off = [| 0 |];
    intra_src = [||];
    coin_iters = [||];
    stall_buf = [||];
    iw_cnt = [||];
    iw_hi = -1;
    stall_cnt = [||];
    stall_touched = [||];
    stall_ntouched = 0;
    h_kind = [||];
    h_shift = [||];
    h_rec = [||];
    h_issue = [||];
    h_finish = [||];
    wb_heap = [||];
    wb_len = 0;
    cache_geom = (0, 0, 0, 0, 0, 0);
    l1 = [||];
    l2 = Cache.create ~size:32 ~assoc:1 ~line:32;
    mdt = Mdt.create ~horizon:1;
    win_len = 0;
    windows = [||];
  }

(* Scrub on acquire (see the lifetime rules above): O(touched) for the
   stall plane, O(horizon) for the ring tags, O(1) for the heap. The issue
   counters are scrubbed per thread instead ([iw_scrub]). *)
let arena_scrub a =
  for i = 0 to a.stall_ntouched - 1 do
    a.stall_cnt.(a.stall_touched.(i)) <- 0
  done;
  a.stall_ntouched <- 0;
  a.wb_len <- 0;
  Array.fill a.h_kind 0 (Array.length a.h_kind) 0

let arena_slot : arena option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let arena_acquire () =
  let slot = Domain.DLS.get arena_slot in
  match !slot with
  | Some a when not a.in_use ->
      a.in_use <- true;
      arena_scrub a;
      a
  | held ->
      let a = arena_create () in
      if held = None then slot := Some a;
      a.in_use <- true;
      a

let arena_release a = a.in_use <- false

let grown len cur = if len <= cur then cur else max len ((2 * cur) + 8)

let arena_ensure_n a n =
  if n > a.cap_n then begin
    let c = grown n a.cap_n in
    a.cap_n <- c;
    a.lat_buf <- Array.make c 0;
    a.by_row <- Array.make c 0;
    a.loads <- Array.make c 0;
    a.stores <- Array.make c 0;
    a.reg_off <- Array.make (c + 1) 0;
    a.intra_off <- Array.make (c + 1) 0;
    (* a thread stalls at most once per node *)
    a.stall_buf <- Array.make (3 * c) 0;
    a.stall_cnt <- Array.make (c * c) 0;
    (* the windows carry node-capacity arrays: drop the stale ones *)
    a.windows <- [||]
  end

let arena_ensure_edges a ~n_reg ~n_intra =
  if n_reg > Array.length a.reg_src then begin
    a.reg_src <- Array.make (grown n_reg (Array.length a.reg_src)) 0;
    a.reg_dk <- Array.make (Array.length a.reg_src) 0
  end;
  if n_intra > Array.length a.intra_src then
    a.intra_src <- Array.make (grown n_intra (Array.length a.intra_src)) 0

let arena_ensure_coins a total =
  if total > Array.length a.coin_iters then
    a.coin_iters <- Array.make (grown total (Array.length a.coin_iters)) 0

let iw_scrub a =
  Array.fill a.iw_cnt 0 (a.iw_hi + 1) 0;
  a.iw_hi <- -1

let arena_ensure_iw a len =
  if len > Array.length a.iw_cnt then begin
    let b = Array.make (grown len (Array.length a.iw_cnt)) 0 in
    Array.blit a.iw_cnt 0 b 0 (Array.length a.iw_cnt);
    a.iw_cnt <- b
  end

let arena_ensure_hist a ~slots ~n =
  if slots > Array.length a.h_kind then begin
    a.h_kind <- Array.make slots 0;
    a.h_shift <- Array.make slots 0;
    a.h_rec <- Array.make slots dummy_rec
  end;
  if slots * n > Array.length a.h_issue then begin
    a.h_issue <- Array.make (grown (slots * n) (Array.length a.h_issue)) 0;
    a.h_finish <- Array.make (Array.length a.h_issue) 0
  end

let wb_push a key =
  let len = a.wb_len in
  if len >= Array.length a.wb_heap then begin
    let bigger = Array.make (grown (len + 1) (Array.length a.wb_heap)) 0 in
    Array.blit a.wb_heap 0 bigger 0 len;
    a.wb_heap <- bigger
  end;
  let h = a.wb_heap in
  a.wb_len <- len + 1;
  let i = ref len in
  while
    !i > 0
    &&
    let parent = (!i - 1) / 2 in
    if Array.unsafe_get h parent > key then begin
      Array.unsafe_set h !i (Array.unsafe_get h parent);
      i := parent;
      true
    end
    else false
  do
    ()
  done;
  Array.unsafe_set h !i key

let wb_pop a =
  let h = a.wb_heap in
  let top = Array.unsafe_get h 0 in
  let len = a.wb_len - 1 in
  a.wb_len <- len;
  let last = Array.unsafe_get h len in
  let i = ref 0 in
  let stop = ref false in
  while not !stop do
    let l = (2 * !i) + 1 in
    if l >= len then stop := true
    else begin
      let c =
        if l + 1 < len && Array.unsafe_get h (l + 1) < Array.unsafe_get h l
        then l + 1
        else l
      in
      if Array.unsafe_get h c < last then begin
        Array.unsafe_set h !i (Array.unsafe_get h c);
        i := c
      end
      else stop := true
    end
  done;
  Array.unsafe_set h !i last;
  top

(* The TS_SIM_TRACE / TS_SIM_TRACE_NODES env vars (removed after a
   deprecation cycle) used to dump per-thread timings to stderr. Setting
   them is now a hard error rather than a silent no-op, so an old
   debugging recipe fails loudly with a pointer at the replacement. *)
let reject_legacy_trace_env () =
  (* An empty value counts as unset: there is no unsetenv in the stdlib,
     so callers (and tests) clear the variable with [putenv var ""]. *)
  let set var =
    match Sys.getenv_opt var with Some s -> s <> "" | None -> false
  in
  if set "TS_SIM_TRACE" then
    invalid_arg
      "Sim.run: TS_SIM_TRACE has been removed; use the structured tracer \
       instead (tsms simulate --trace FILE, or --trace-format jsonl)";
  if set "TS_SIM_TRACE_NODES" then
    invalid_arg
      "Sim.run: TS_SIM_TRACE_NODES has been removed; use the structured \
       tracer instead (tsms simulate --trace FILE)"

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

(* Round-robin placement on a homogeneous machine: the paper's
   configuration, and the only one the steady-state machinery of
   [run_internal] (windows, residency) reasons about. *)
let uniform_rr cfg =
  cfg.Config.placement = Ts_isa.Placement.Round_robin
  && not (Ts_isa.Spmt_params.heterogeneous cfg.Config.params)

(* Whether a run takes the steady-state fast path (see [run_internal]):
   asked for, on the [uniform_rr] configuration, untraced, unobserved,
   and with no certain memory dependence. Every other run is the exact
   engine's, and its profile span says so. *)
let fast_path_ok ~fast ~trace ~observed cfg (g : Ts_ddg.Ddg.t) =
  fast && uniform_rr cfg
  && (not (Trace.enabled trace))
  && (not observed)
  && not
       (Array.exists
          (fun (e : Ts_ddg.Ddg.edge) ->
            e.kind = Ts_ddg.Ddg.Mem && e.prob >= 1.0)
          g.edges)

let run_internal ?seed ?plan ~sync_mem ~warmup ~check ?observe ~trace ~trace_pid
    ~fast_ok cfg (k : K.t) ~trip =
  if trip <= 0 then invalid_arg "Sim.run: trip must be positive";
  if warmup < 0 then invalid_arg "Sim.run: warmup must be non-negative";
  let total = warmup + trip in
  let g = k.K.g in
  let n = Ts_ddg.Ddg.n_nodes g in
  let p = cfg.Config.params in
  Ts_isa.Spmt_params.validate ~who:"Sim.run" p;
  let ncore = p.ncore in
  (* The compiled thread→core map; everything but [uniform_rr] runs the
     exact path. *)
  let place = Ts_isa.Placement.make cfg.Config.placement p in
  let place_period = Ts_isa.Placement.period place in
  let place_seq = Ts_isa.Placement.seq place in
  let core_of j = Array.unsafe_get place_seq (j mod place_period) in
  let uniform_rr = uniform_rr cfg in
  let core_width =
    Array.init ncore (fun i ->
        (Ts_isa.Spmt_params.core_desc p i).Ts_isa.Spmt_params.issue_width)
  in
  let core_scale =
    Array.init ncore (fun i ->
        (Ts_isa.Spmt_params.core_desc p i).Ts_isa.Spmt_params.lat_scale)
  in
  reject_legacy_trace_env ();
  let traced = Trace.enabled trace in
  if traced then begin
    for c = 0 to ncore - 1 do
      Trace.thread_name trace ~pid:trace_pid ~tid:c (Printf.sprintf "core %d" c)
    done;
    Trace.instant trace ~pid:trace_pid ~ts:0 "sim.start"
      ~args:
        ([
           ("loop", J.Str g.Ts_ddg.Ddg.name);
           ("trip", J.Int trip);
           ("warmup", J.Int warmup);
           ("ncore", J.Int ncore);
           ("ii", J.Int k.K.ii);
         ]
        @
        (* Only the non-paper machines announce their placement, so
           default-config trace goldens stay stable. *)
        (if uniform_rr then []
         else [ ("placement", J.Str (Ts_isa.Placement.describe place)) ]))
  end;
  let plan =
    match plan with Some pl -> pl | None -> Address_plan.create ?seed g
  in
  let a = arena_acquire () in
  Fun.protect ~finally:(fun () -> arena_release a) @@ fun () ->
  arena_ensure_n a n;
  (* Caches: reuse the arena's allocation when the geometry matches
     ([Cache.reset] restores the freshly-created state), else rebuild. *)
  let geom =
    (ncore, cfg.l1_size, cfg.l1_assoc, cfg.l2_size, cfg.l2_assoc, cfg.line)
  in
  if a.cache_geom <> geom then begin
    a.l1 <-
      Array.init ncore (fun _ ->
          Cache.create ~size:cfg.l1_size ~assoc:cfg.l1_assoc ~line:cfg.line);
    a.l2 <- Cache.create ~size:cfg.l2_size ~assoc:cfg.l2_assoc ~line:cfg.line;
    a.cache_geom <- geom
  end
  else begin
    Array.iter Cache.reset a.l1;
    Cache.reset a.l2
  end;
  let l1 = a.l1 and l2 = a.l2 in
  (* Shadow reference models for [check] mode, built only when checking.
     Every cache and MDT operation below goes through a wrapper that
     mirrors it onto the naive model and compares the answers; the
     wrappers are the only way the hot loop touches these structures, so
     an unchecked run is byte-identical to a checked one. The singleton
     arrays stand in for "present iff [check]" without an option match on
     the hot path. *)
  let rl1 =
    if check then
      Array.init ncore (fun _ ->
          Ref.Cache.create ~size:cfg.l1_size ~assoc:cfg.l1_assoc ~line:cfg.line)
    else [||]
  in
  let rl2 =
    if check then
      [| Ref.Cache.create ~size:cfg.l2_size ~assoc:cfg.l2_assoc ~line:cfg.line |]
    else [||]
  in
  let l1_access core addr =
    let hit = Cache.access (Array.unsafe_get l1 core) addr in
    if check then begin
      let expect = Ref.Cache.access rl1.(core) addr in
      if hit <> expect then
        Chk.failf "Sim.run: L1 (core %d) access at addr %d was a %s but the \
                   reference LRU model says %s"
          core addr
          (if hit then "hit" else "miss")
          (if expect then "hit" else "miss")
    end;
    hit
  in
  let l2_access addr =
    let hit = Cache.access l2 addr in
    if check then begin
      let expect = Ref.Cache.access rl2.(0) addr in
      if hit <> expect then
        Chk.failf "Sim.run: L2 access at addr %d was a %s but the reference \
                   LRU model says %s"
          addr
          (if hit then "hit" else "miss")
          (if expect then "hit" else "miss")
    end;
    hit
  in
  let l2_fill addr =
    Cache.fill l2 addr;
    if check then Ref.Cache.fill rl2.(0) addr
  in
  let l1_invalidate c addr =
    Cache.invalidate l1.(c) addr;
    if check then Ref.Cache.invalidate rl1.(c) addr
  in
  let check_cache_stats ~what real refm =
    if check then begin
      let h, m = Cache.stats real and h', m' = Ref.Cache.stats refm in
      if (h, m) <> (h', m') then
        Chk.failf "Sim.run: %s counted %d hits / %d misses but the reference \
                   LRU model counted %d / %d"
          what h m h' m'
    end
  in
  (* Inter-thread register dependences, grouped by consumer node. The
     lists are per-run scaffolding; the hot loop reads the CSR arrays
     flattened from them below (in identical per-consumer order). *)
  let reg_in = Array.make n [] in
  let mem_nonempty = Array.make n false in
  List.iter
    (fun (e : Ts_ddg.Ddg.edge) ->
      reg_in.(e.dst) <- (e, K.d_ker k e) :: reg_in.(e.dst))
    (K.inter_iter_reg_deps k);
  List.iter
    (fun (e : Ts_ddg.Ddg.edge) ->
      if sync_mem then reg_in.(e.dst) <- (e, K.d_ker k e) :: reg_in.(e.dst)
      else mem_nonempty.(e.dst) <- true)
    (K.inter_iter_mem_deps k);
  let intra_in = Array.make n [] in
  Array.iter
    (fun (e : Ts_ddg.Ddg.edge) ->
      if K.d_ker k e = 0 then intra_in.(e.dst) <- e :: intra_in.(e.dst))
    g.edges;
  let n_reg = Array.fold_left (fun acc l -> acc + List.length l) 0 reg_in in
  let n_intra =
    Array.fold_left (fun acc l -> acc + List.length l) 0 intra_in
  in
  arena_ensure_edges a ~n_reg ~n_intra;
  let reg_off = a.reg_off
  and reg_src = a.reg_src
  and reg_dk = a.reg_dk
  and intra_off = a.intra_off
  and intra_src = a.intra_src in
  let off = ref 0 in
  for v = 0 to n - 1 do
    reg_off.(v) <- !off;
    List.iter
      (fun ((e : Ts_ddg.Ddg.edge), dk) ->
        reg_src.(!off) <- e.src;
        reg_dk.(!off) <- dk;
        incr off)
      reg_in.(v)
  done;
  reg_off.(n) <- !off;
  off := 0;
  for v = 0 to n - 1 do
    intra_off.(v) <- !off;
    List.iter
      (fun (e : Ts_ddg.Ddg.edge) ->
        intra_src.(!off) <- e.src;
        incr off)
      intra_in.(v)
  done;
  intra_off.(n) <- !off;
  (* Nodes in issue (row) order within a thread. *)
  let by_row_l =
    List.sort
      (fun x y ->
        if k.K.row.(x) <> k.K.row.(y) then compare k.K.row.(x) k.K.row.(y)
        else compare x y)
      (List.init n Fun.id)
  in
  let by_row = a.by_row and loads = a.loads and stores = a.stores in
  List.iteri (fun i v -> by_row.(i) <- v) by_row_l;
  let n_loads = ref 0 in
  List.iter
    (fun v ->
      if (Ts_ddg.Ddg.node g v).Ts_ddg.Ddg.op = Ts_isa.Opcode.Load then begin
        loads.(!n_loads) <- v;
        incr n_loads
      end)
    by_row_l;
  let n_loads = !n_loads in
  let store_l =
    List.filter
      (fun v -> (Ts_ddg.Ddg.node g v).Ts_ddg.Ddg.op = Ts_isa.Opcode.Store)
      (List.init n Fun.id)
  in
  let n_stores = ref 0 in
  List.iter
    (fun v ->
      stores.(!n_stores) <- v;
      incr n_stores)
    store_l;
  let n_stores = !n_stores in
  let max_lookback =
    List.fold_left
      (fun acc (e : Ts_ddg.Ddg.edge) -> max acc (K.d_ker k e))
      1
      (K.inter_iter_reg_deps k @ K.inter_iter_mem_deps k)
  in
  let horizon = max ncore (max_lookback + 1) in
  arena_ensure_hist a ~slots:horizon ~n;
  let h_kind = a.h_kind
  and h_shift = a.h_shift
  and h_rec = a.h_rec
  and h_issue = a.h_issue
  and h_finish = a.h_finish in
  (* A grown history ring may carry tags from a smaller previous run past
     the slots [arena_scrub] wiped; re-wipe at the current width. *)
  Array.fill h_kind 0 (Array.length h_kind) 0;
  Mdt.clear a.mdt ~horizon:ncore;
  let mdt = a.mdt in
  let rmdt = if check then [| Ref.Mdt.create ~horizon:ncore |] else [||] in
  let mdt_record ~thread ~addr ~finish =
    Mdt.record_store mdt ~thread ~addr ~finish;
    if check then begin
      Ref.Mdt.record_store rmdt.(0) ~thread ~addr ~finish;
      if Mdt.live_entries mdt <> Ref.Mdt.live_entries rmdt.(0) then
        Chk.failf "Sim.run: after a store by thread %d at addr %d the MDT \
                   holds %d live entries but the reference model holds %d"
          thread addr (Mdt.live_entries mdt)
          (Ref.Mdt.live_entries rmdt.(0));
      if Mdt.peak_entries mdt <> Ref.Mdt.peak_entries rmdt.(0) then
        Chk.failf "Sim.run: MDT peak %d diverged from the reference model's %d"
          (Mdt.peak_entries mdt)
          (Ref.Mdt.peak_entries rmdt.(0))
    end
  in
  let mdt_conflict ~thread ~addr ~issue =
    let got = Mdt.conflict mdt ~thread ~addr ~issue in
    if check then begin
      let expect = Ref.Mdt.conflicting_store rmdt.(0) ~thread ~addr ~issue in
      let expect = match expect with None -> Mdt.no_conflict | Some f -> f in
      if got <> expect then
        Chk.failf "Sim.run: MDT conflict query (thread %d, addr %d, issue %d) \
                   answered %s but the reference model says %s"
          thread addr issue
          (if got = Mdt.no_conflict then "none" else string_of_int got)
          (if expect = Mdt.no_conflict then "none" else string_of_int expect)
    end;
    got
  in
  let mdt_retire ~upto =
    Mdt.retire mdt ~upto;
    if check then begin
      Ref.Mdt.retire rmdt.(0) ~upto;
      if Mdt.live_entries mdt <> Ref.Mdt.live_entries rmdt.(0) then
        Chk.failf "Sim.run: after retiring below thread %d the MDT holds %d \
                   live entries but the reference model holds %d"
          upto (Mdt.live_entries mdt)
          (Ref.Mdt.live_entries rmdt.(0))
    end
  in
  let pairs_per_iter = K.send_recv_pairs_per_iter k in
  (* Speculative write-buffer occupancy, tracked as an event sweep: each
     executed store allocates an entry at its issue and frees it when the
     thread's commit drains the buffer (or when a squash invalidates it).
     Later threads both issue stores and commit after earlier threads'
     *starts* but not after their *commits*, so events cannot be swept in
     thread order directly; instead they accumulate in the arena's event
     heap and are folded into the running occupancy once the sweep point
     (the newest thread's start, a monotonically non-decreasing bound
     below every future event) passes them. The heap key is
     [instant*2 + (1 iff allocation)], so releases sort before
     allocations at the same instant and a drain concurrent with an
     issue never inflates the peak. *)
  let wb_cur = ref 0 in
  let wb_peak = ref 0 in
  let wb_finalize upto =
    let bound = if upto > max_int asr 1 then max_int else upto lsl 1 in
    while a.wb_len > 0 && Array.unsafe_get a.wb_heap 0 < bound do
      let key = wb_pop a in
      let d = if key land 1 = 1 then 1 else -1 in
      wb_cur := !wb_cur + d;
      if !wb_cur > !wb_peak then wb_peak := !wb_cur
    done
  in
  let wb_stores ~base ~drain =
    for i = 0 to n_stores - 1 do
      let v = stores.(i) in
      wb_push a ((h_issue.(base + v) lsl 1) lor 1);
      wb_push a (drain lsl 1)
    done
  in
  (* accumulators *)
  let stall_add idx cycles =
    let cur = a.stall_cnt.(idx) in
    if cur = 0 then begin
      if a.stall_ntouched >= Array.length a.stall_touched then begin
        let bigger =
          Array.make (grown (a.stall_ntouched + 1) (Array.length a.stall_touched)) 0
        in
        Array.blit a.stall_touched 0 bigger 0 a.stall_ntouched;
        a.stall_touched <- bigger
      end;
      a.stall_touched.(a.stall_ntouched) <- idx;
      a.stall_ntouched <- a.stall_ntouched + 1
    end;
    a.stall_cnt.(idx) <- cur + cycles
  in
  let sync_stall = ref 0 in
  let spawn_stall = ref 0 in
  let squashes = ref 0 in
  let last_commit_end = ref 0 in
  let core_free = Array.make ncore 0 in
  let prev_spawn_base = ref (-p.c_spawn) (* thread 0 spawns at time 0 *) in
  let warm_end = ref 0 in
  (* ---- steady-state fast path (the [fast] flag) ----

     Once per-thread timing settles into a fixed point, the cycle-level
     replay repeats itself: the same RECV stalls, the same cache latency
     pattern, the same commit cadence, just shifted by a constant per
     window of threads. We detect that fixed point with two consecutive
     detection windows whose recorded timings are equal under a uniform
     shift, then stop executing threads and extrapolate their observable
     effects from the signature window. Exactness is preserved because

     - the cache-access sequence is timing-independent (addresses are a
       pure function of the iteration number and seeded coins, and the
       access order is thread-then-row order), so each extrapolated
       thread's loads are still replayed against the real caches and the
       resulting latency pattern is compared against the signature: any
       deviation (a stream wrapping its working set, an L2 eviction by a
       store fill) drops that thread back to exact execution mid-run;
     - iterations touched by a probabilistic memory-dependence coin are
       never extrapolated: the thread runs exactly and must land on its
       predicted times to keep the fast path engaged (a squash never
       matches, so misspeculation always falls back to exact replay);
     - the MDT and write-buffer bookkeeping keep running on recorded
       times, so [mdt_peak] and [wb_peak] stay cycle-exact.

     When the signature pattern is pure L1 hits, every line the loads'
     periodic streams can ever touch probes resident, and no coin remains
     ahead, even the cache replay is provably redundant (loads cannot
     miss, store fills/invalidates touch disjoint lines) and threads are
     extrapolated arithmetically.

     [fast_ok] is [fast_path_ok] of this run, decided by the caller. *)
  (* Distance-[dk] arrival cost per consumer period position. Round-robin
     keeps the legacy [dk * c_reg_com] thread-forwarding model inline (and
     bit-identical); explicit policies read the placement's physical
     ring-hop table. *)
  let comm_tbl =
    if uniform_rr then [||]
    else
      Array.init
        (place_period * (max_lookback + 1))
        (fun idx ->
          let pos = idx / (max_lookback + 1)
          and dk = idx mod (max_lookback + 1) in
          Ts_isa.Placement.comm_cycles place ~dk ~dst:pos)
  in
  (* Window length: a multiple of ncore (an offset must stay on one core
     across windows), at least the history horizon (so matching windows
     cover every lookback an extrapolated thread can make), and a multiple
     of 8 (the coarsest per-line iteration cadence of the address streams:
     strides 4/8/16 on 32-byte lines touch a new line every 8/4/2
     iterations, so streaming-phase miss patterns repeat per 8). *)
  let w_len =
    let base = 8 * ncore / gcd 8 ncore in
    base * ((horizon + base - 1) / base)
  in
  if a.win_len <> w_len then begin
    a.win_len <- w_len;
    a.windows <- [||]
  end;
  let max_stage = Array.fold_left max 0 k.K.stage in
  (* Both engines read addresses straight from [Address_plan.addr], which
     allocates nothing. [own_streams] are the nodes' affine streams, read
     by the fast path's analytic MDT. *)
  let own_streams = Array.init n (fun v -> Address_plan.stream plan ~node:v) in
  let addr_of ~node ~iter = Address_plan.addr plan ~node ~iter in
  let has_mem_in = Array.make n false in
  Array.iter
    (fun (e : Ts_ddg.Ddg.edge) ->
      if e.kind = Ts_ddg.Ddg.Mem then has_mem_in.(e.dst) <- true)
    g.edges;
  (* Iterations where a probabilistic memory-dependence coin fires on any
     incoming Mem edge (the fast path's business only): the loads they
     redirect run in threads [i, i + max_stage]. Marked over [0, total),
     then compacted in place into ascending order. *)
  let n_coin =
    if not fast_ok then 0
    else begin
      arena_ensure_coins a total;
      let ci = a.coin_iters in
      Array.fill ci 0 total 0;
      Array.iteri
        (fun idx (e : Ts_ddg.Ddg.edge) ->
          if e.kind = Ts_ddg.Ddg.Mem then
            for it = 0 to total - 1 do
              if Address_plan.realised plan ~edge_index:idx ~iter:it then
                ci.(it) <- 1
            done)
        g.edges;
      let c = ref 0 in
      for it = 0 to total - 1 do
        if ci.(it) = 1 then begin
          ci.(!c) <- it;
          incr c
        end
      done;
      !c
    end
  in
  let coin_iters = a.coin_iters in
  (* Is any coin iteration inside [lo, hi]? *)
  let coin_in lo hi =
    let x = ref 0 and b = ref n_coin in
    while !x < !b do
      let m = (!x + !b) lsr 1 in
      if Array.unsafe_get coin_iters m < lo then x := m + 1 else b := m
    done;
    !x < n_coin && Array.unsafe_get coin_iters !x <= hi
  in
  let coin_affects j = coin_in (j - max_stage) j in
  let no_coins_from j = n_coin = 0 || coin_iters.(n_coin - 1) + max_stage < j in
  (* ---- analytic MDT occupancy ----

     The MDT's record/prune/retire sequence — hence its live count and
     peak — is a pure function of thread indices: every thread records
     every store exactly once in node order (squashed or not), each store
     stream revisits an address exactly every [P_v = ws / gcd stride ws]
     iterations, and retires run on the fixed 64-thread cadence. When no
     store's address can be redirected (no Mem edge lands on a store) and
     every P_v >= horizon — so the entry from [P_v] threads back is the
     only same-address entry alive, and is always stale when overwritten —
     the live/peak trajectory can be maintained with O(1) integer updates
     per record, and the hashtable only has to hold real entries close
     enough to a coin-affected thread that a conflict query could see
     them. Everywhere else, conflict queries probe load-region addresses
     that no store ever writes and answer None off an address mismatch no
     matter what the table holds. *)
  let store_periods =
    List.filter_map
      (fun v ->
        match own_streams.(v) with
        | Some (_, stride, ws) -> Some (v, ws / gcd stride ws)
        | None -> None)
      store_l
  in
  let analytic_mdt =
    fast_ok
    && (not (List.exists (fun v -> has_mem_in.(v)) store_l))
    && List.length store_periods = n_stores
    && List.for_all (fun (_, pv) -> pv >= horizon) store_periods
  in
  let store_pv = Array.make n 0 in
  List.iter (fun (v, pv) -> store_pv.(v) <- pv) store_periods;
  (* A thread's stores must really sit in the table iff a coin-affected
     thread within [horizon] ahead could query them. *)
  let mdt_relevant t =
    n_coin > 0 && coin_in (t - max_stage) (t + horizon - 1)
  in
  let av_live = ref 0 in
  let av_peak = ref 0 in
  let av_u = ref min_int in
  (* The record of store [v] by thread [j]: +1 entry, minus the entry from
     [j - P_v] if it is still in the table (recorded, not yet retired; it
     cannot have been pruned earlier, and it is always stale now). *)
  let av_record j v =
    let t1 = j - store_pv.(v) in
    let present = t1 >= 0 && t1 >= !av_u in
    if not present then begin
      incr av_live;
      if !av_live > !av_peak then av_peak := !av_live
    end
  in
  (* The retire after thread [j]: entries below [j - horizon] leave. Store
     [v]'s live entries are exactly threads [max (j-P_v+1) (max !av_u 0)
     .. j]. *)
  let av_retire j =
    let upto = j - horizon in
    let removed = ref 0 in
    for i = 0 to n_stores - 1 do
      let lo = max (j - store_pv.(stores.(i)) + 1) (max !av_u 0) in
      removed := !removed + max 0 (upto - lo)
    done;
    av_live := !av_live - !removed;
    if upto > !av_u then av_u := upto
  in
  let rec_cap = a.cap_n in
  let fresh_rec () =
    {
      r_valid = false;
      r_start = 0;
      r_end_exec = 0;
      r_commit_end = 0;
      r_spawn = 0;
      r_squashed = false;
      r_coin = false;
      r_nstalls = 0;
      r_stalls = Array.make (3 * rec_cap) 0;
      r_finish = Array.make rec_cap 0;
      r_issue = Array.make rec_cap 0;
      r_lats = Array.make rec_cap 0;
    }
  in
  if fast_ok && Array.length a.windows = 0 then
    a.windows <- Array.init 3 (fun _ -> Array.init w_len (fun _ -> fresh_rec ()));
  let window i =
    if fast_ok then begin
      let w = a.windows.(i) in
      Array.iter (fun r -> r.r_valid <- false) w;
      w
    end
    else [||]
  in
  let wprev = ref (window 0) in
  let wcur = ref (window 1) in
  let prev_clean = ref false in
  let engaged = ref false in
  let allhit = ref false in
  let sig0 = ref (window 2) (* holds a signature once [engage_count > 0] *) in
  let sig_base = ref 0 in
  let engage_first = ref 0 in (* first extrapolation-eligible thread *)
  let delta = ref 0 in
  let sig_allhit = ref false in
  let engage_count = ref 0 in
  let extrap_count = ref 0 in
  let mismatch_count = ref 0 in
  let analytic_l1_hits = ref 0 in
  let lat_buf = a.lat_buf in
  (* Every L1 line each load's stream can touch, per (iteration mod ncore)
     residue: the stream revisits addresses with period ws / gcd(stride,
     ws), and a load's iterations on one core share a residue class. *)
  let line_sets =
    lazy
      (List.filter_map
         (fun v ->
           if (Ts_ddg.Ddg.node g v).Ts_ddg.Ddg.op <> Ts_isa.Opcode.Load then
             None
           else
             match Address_plan.stream plan ~node:v with
             | None -> Some (v, Array.make ncore [])
             | Some (base, stride, ws) ->
                 let pv = ws / gcd stride ws in
                 let l = pv * ncore / gcd pv ncore in
                 let per_res = Array.make ncore [] in
                 let seen = Hashtbl.create 64 in
                 for t = 0 to l - 1 do
                   let addr = base + (stride * t mod ws) in
                   let key = (t mod ncore, addr / cfg.line) in
                   if not (Hashtbl.mem seen key) then begin
                     Hashtbl.replace seen key ();
                     per_res.(t mod ncore) <- addr :: per_res.(t mod ncore)
                   end
                 done;
                 Some (v, per_res))
         by_row_l)
  in
  let rec all_resident c = function
    | [] -> true
    | addr :: rest -> Cache.probe l1.(c) addr && all_resident c rest
  in
  let rec resident = function
    | [] -> true
    | (v, per_res) :: rest ->
        let stage = k.K.stage.(v) in
        let ok = ref true in
        for c = 0 to ncore - 1 do
          let rr = (((c - stage) mod ncore) + ncore) mod ncore in
          if !ok && not (all_resident c per_res.(rr)) then ok := false
        done;
        !ok && resident rest
  in
  let residency_ok () = resident (Lazy.force line_sets) in
  (* Producer finish-time lookback over the history ring; [min_int] for
     "no such thread" (live-in). *)
  let past_finish_i jj v =
    if jj < 0 then min_int
    else
      let s = jj mod horizon in
      match Array.unsafe_get h_kind s with
      | 0 -> min_int
      | 1 -> Array.unsafe_get h_finish ((s * n) + v)
      | _ -> (Array.unsafe_get h_rec s).r_finish.(v) + Array.unsafe_get h_shift s
  in
  (* A store's lines can enter an L1 only through a coin-redirected load,
     and redirects only ever target the source of a memory-dependence
     edge: any other store's peer-L1 invalidates hit absent lines and are
     skipped under [fast_ok] (the L2 fill always happens — it drives L2
     evictions loads do see). *)
  let inval_needed =
    let ar = Array.make n true in
    if fast_ok then begin
      Array.fill ar 0 n false;
      Array.iter
        (fun (e : Ts_ddg.Ddg.edge) ->
          if e.kind = Ts_ddg.Ddg.Mem then ar.(e.src) <- true)
        g.edges
    end;
    ar
  in
  (* Replay this thread's load accesses against the real caches, in the
     same thread-then-row order exact execution would, leaving the
     latencies in [lat_buf]. *)
  let fill_lats j =
    let core = core_of j in
    for i = 0 to n_loads - 1 do
      let v = loads.(i) in
      let addr = addr_of ~node:v ~iter:(j - k.K.stage.(v)) in
      lat_buf.(v) <-
        (if l1_access core addr then cfg.l1_hit
         else if l2_access addr then cfg.l2_hit
         else cfg.mem_latency)
    done
  in
  (* Per-thread results, threaded through run-local cells instead of a
     freshly allocated record per thread. The thread's RECV stalls are
     the first [cur_nstalls] triples of the arena's [stall_buf], in
     chronological order. *)
  let cur_start = ref 0 in
  let cur_end = ref 0 in
  let cur_spawn = ref 0 in
  let cur_squashed = ref false in
  let cur_nstalls = ref 0 in
  let stall_buf = a.stall_buf in
  (* Execute one thread into its history-ring slot; [recv] false on
     re-execution (values present, no RECV blocks: the first attempt's
     stalls stay in [stall_buf]). [use_lats] short-circuits the load
     cache accesses with the latencies already in [lat_buf] (the caller
     replayed them); otherwise loads access the caches and the observed
     latency lands in [lat_buf]. Leaves start/end/stalls in the cells
     above. *)
  let exec_thread ~use_lats j ~base start ~recv =
    cur_start := start;
    (* Intra-thread dataflow reads default to 0 for not-yet-issued
       producers (matching a zero-initialised scratch thread), so the
       reused slot's finish plane must be wiped first. *)
    Array.fill h_finish base n 0;
    let end_exec = ref start in
    if recv then cur_nstalls := 0;
    (* Schedule replay with blocking receives: instructions issue at their
       static kernel row plus the shift accumulated by earlier RECV stalls.
       A RECV on an empty queue (Voltron's queue model) blocks the in-order
       front end, so it pushes the remainder of the thread back — the
       semantics under which Definition 2's sync(x, y) is the per-thread
       serialisation that the Section 4.2 cost model assumes. Cache misses,
       in contrast, are absorbed out-of-order (lockup-free caches): they
       delay only their dataflow consumers, via the intra-dep fold. *)
    let shift = ref 0 in
    let core = core_of j in
    let lat_scale = Array.unsafe_get core_scale core in
    let width = Array.unsafe_get core_width core in
    (* Per-cycle issue counts for finite-width cores, indexed by [issue -
       start]: every issue is at or after its thread's start, since rows
       and shifts are non-negative. *)
    iw_scrub a;
    let comm_base =
      if uniform_rr then 0 else j mod place_period * (max_lookback + 1)
    in
    for idx = 0 to n - 1 do
      let v = Array.unsafe_get by_row idx in
      let nd = Ts_ddg.Ddg.node g v in
      let sched = start + k.K.row.(v) in
      let intra_ready = ref 0 in
      for i = intra_off.(v) to intra_off.(v + 1) - 1 do
        let f = Array.unsafe_get h_finish (base + Array.unsafe_get intra_src i) in
        if f > !intra_ready then intra_ready := f
      done;
      let inter_arrival = ref 0 and blame_src = ref (-1) in
      if recv then
        for i = reg_off.(v) to reg_off.(v + 1) - 1 do
          let src = Array.unsafe_get reg_src i in
          let dk = Array.unsafe_get reg_dk i in
          let f = past_finish_i (j - dk) src in
          if f <> min_int then begin
            let arr =
              f
              +
              if uniform_rr then dk * p.c_reg_com
              else Array.unsafe_get comm_tbl (comm_base + dk)
            in
            if arr > !inter_arrival then begin
              inter_arrival := arr;
              blame_src := src
            end
          end
        done;
      let slot = sched + !shift in
      let ready = if slot > !intra_ready then slot else !intra_ready in
      if recv && !inter_arrival > ready then begin
        let cycles = !inter_arrival - ready in
        (* The blocked RECV pushes the rest of the thread back. Delays of
           several RECVs overlap rather than add — while the front end
           sits at one empty queue the other queues fill — so the
           thread-level shift is the max of the individual delays
           (measured from each instruction's own slot), exactly the
           max(C_spn, C_ci, C_delay) structure of the Section 4.2 cost
           model. *)
        if !inter_arrival - sched > !shift then shift := !inter_arrival - sched;
        let at = 3 * !cur_nstalls in
        Array.unsafe_set stall_buf at
          (if !blame_src >= 0 then (!blame_src * n) + v else -1);
        Array.unsafe_set stall_buf (at + 1) cycles;
        Array.unsafe_set stall_buf (at + 2) ready;
        incr cur_nstalls
      end;
      let issue = if ready > !inter_arrival then ready else !inter_arrival in
      (* Finite issue width (heterogeneous cores only): at most [width]
         instructions may start per cycle, so an over-subscribed cycle
         slides the instruction forward. A structural slide is absorbed
         out-of-order like a cache miss — it delays dataflow consumers
         through the finish times, not the in-order front end. *)
      let issue =
        if width = 0 then issue
        else begin
          let c = ref (issue - start) in
          while !c <= a.iw_hi && Array.unsafe_get a.iw_cnt !c >= width do
            incr c
          done;
          if !c > a.iw_hi then begin
            arena_ensure_iw a (!c + 1);
            a.iw_hi <- !c
          end;
          Array.unsafe_set a.iw_cnt !c (Array.unsafe_get a.iw_cnt !c + 1);
          start + !c
        end
      in
      let latency =
        match nd.op with
        | Ts_isa.Opcode.Load ->
            if use_lats then Array.unsafe_get lat_buf v
            else begin
              let addr = addr_of ~node:v ~iter:(j - k.K.stage.(v)) in
              let lat =
                if l1_access core addr then cfg.l1_hit
                else if l2_access addr then cfg.l2_hit
                else cfg.mem_latency
              in
              Array.unsafe_set lat_buf v lat;
              lat
            end
        | _ -> nd.latency * lat_scale
      in
      Array.unsafe_set h_issue (base + v) issue;
      let fin = issue + latency in
      Array.unsafe_set h_finish (base + v) fin;
      if fin > !end_exec then end_exec := fin
    done;
    cur_end := !end_exec;
    (* Finite issue width, re-derived from the issue plane independently
       of the counters above. *)
    if check && width > 0 then
      for x = 0 to n - 1 do
        let t = h_issue.(base + x) in
        let same = ref 0 in
        for y = 0 to n - 1 do
          if h_issue.(base + y) = t then incr same
        done;
        if !same > width then
          Chk.failf "Sim.run: thread %d issues %d instructions at cycle %d \
                     on core %d, whose issue width is %d"
            j !same t core width
      done
  in
  (* [stalls.(3i .. 3i+2)] for [i < count]: (blame, cycles, instant). *)
  let account_stalls ~core ~j stalls count =
    for i = 0 to count - 1 do
      let blame = stalls.(3 * i) and cycles = stalls.((3 * i) + 1) in
      sync_stall := !sync_stall + cycles;
      if traced then
        Trace.instant trace ~pid:trace_pid ~tid:core
          ~ts:stalls.((3 * i) + 2) "sync-stall"
          ~args:
            ([ ("thread", J.Int j); ("cycles", J.Int cycles) ]
            @
            if blame >= 0 then
              [
                ("producer", J.Int (blame / n));
                ("consumer", J.Int (blame mod n));
              ]
            else []);
      if blame >= 0 then stall_add blame cycles
    done
  in
  let emit_exec_span ~core ~j name ~ts0 ~ts1 =
    Trace.begin_span trace ~pid:trace_pid ~tid:core ~ts:ts0 name
      ~args:[ ("thread", J.Int j) ];
    Trace.end_span trace ~pid:trace_pid ~tid:core ~ts:ts1 name
  in
  (* One exactly simulated thread: the seed simulator's loop body.
     [lats] true means the fast path already replayed this thread's load
     accesses into [lat_buf]. *)
  let exact_step j ~lats =
    let measured = j >= warmup in
    let core = core_of j in
    let base = j mod horizon * n in
    let spawn_ready = !prev_spawn_base + p.c_spawn in
    let start = max spawn_ready core_free.(core) in
    let spawn_cycles = max 0 (core_free.(core) - spawn_ready) in
    cur_spawn := spawn_cycles;
    if measured && spawn_cycles > 0 then
      spawn_stall := !spawn_stall + spawn_cycles;
    exec_thread ~use_lats:lats j ~base start ~recv:true;
    if measured then account_stalls ~core ~j stall_buf !cur_nstalls;
    (* All of this thread's (and every later thread's) write-buffer events
       lie at or after [start]; older events are now final. *)
    wb_finalize start;
    (* MDT check: did any load read a location a less speculative thread
       had not yet written? A coin-free thread under [fast_ok] reads only
       its own stream regions, which no store ever writes (redirects only
       target store streams and the per-node regions are disjoint), so
       the probes are skipped — they could only answer [no_conflict]. *)
    let viol = ref Mdt.no_conflict in
    if (not fast_ok) || coin_affects j then
      for i = 0 to n_loads - 1 do
        let v = loads.(i) in
        if mem_nonempty.(v) then begin
          let addr = addr_of ~node:v ~iter:(j - k.K.stage.(v)) in
          let t_detect =
            mdt_conflict ~thread:j ~addr ~issue:h_issue.(base + v)
          in
          if t_detect > !viol then viol := t_detect
        end
      done;
    let squashed = !viol <> Mdt.no_conflict in
    if not squashed then begin
      if traced && measured then
        emit_exec_span ~core ~j "exec" ~ts0:start ~ts1:!cur_end
    end
    else begin
      let t_detect = !viol in
      if measured then incr squashes;
      let restart = t_detect + p.c_inv in
      if check && restart < t_detect + p.c_inv then
        Chk.failf "Sim.run: thread %d restarts at %d, before detection %d \
                   + invalidation overhead %d"
          j restart t_detect p.c_inv;
      (* The wasted attempt's stores sat in the buffer until the
         invalidation completed. *)
      wb_stores ~base ~drain:restart;
      if traced && measured then begin
        (* The wasted first attempt, cut off where the MDT caught the
           premature load; the re-execution follows after [c_inv]. *)
        emit_exec_span ~core ~j "exec (squashed)" ~ts0:start ~ts1:t_detect;
        Trace.instant trace ~pid:trace_pid ~tid:core ~ts:t_detect "squash"
          ~args:
            [
              ("thread", J.Int j);
              ("detected", J.Int t_detect);
              ("restart", J.Int restart);
            ]
      end;
      (* The first attempt's RECV stalls stay in [stall_buf] (the
         re-execution does not block): they were already accounted, and
         the detection-window record wants them. *)
      exec_thread ~use_lats:false j ~base restart ~recv:false;
      if traced && measured then
        emit_exec_span ~core ~j "re-exec" ~ts0:restart ~ts1:!cur_end
    end;
    if check then
      for idx = 0 to n - 1 do
        let v = by_row.(idx) in
        if h_issue.(base + v) < !cur_start then
          Chk.failf "Sim.run: thread %d issues node %d at %d, before its \
                     own start %d"
            j v h_issue.(base + v) !cur_start;
        if h_finish.(base + v) < h_issue.(base + v) then
          Chk.failf "Sim.run: thread %d finishes node %d at %d, before its \
                     issue %d"
            j v h_finish.(base + v) h_issue.(base + v)
      done;
    (* Record this thread's stores in the MDT. Under the analytic
       occupancy model the hashtable only takes the entries a
       coin-affected thread could query. *)
    let mdt_real = (not analytic_mdt) || mdt_relevant j in
    for i = 0 to n_stores - 1 do
      let v = stores.(i) in
      if analytic_mdt then av_record j v;
      if mdt_real then begin
        let addr = addr_of ~node:v ~iter:(j - k.K.stage.(v)) in
        mdt_record ~thread:j ~addr ~finish:h_finish.(base + v)
      end
    done;
    (* Sequential head-thread commit; the write buffer drains into L2 and
       invalidates stale L1 copies in the other cores. *)
    let commit_start = max !cur_end !last_commit_end in
    let commit_end = commit_start + p.c_commit in
    if check then begin
      if commit_start < !last_commit_end then
        Chk.failf "Sim.run: thread %d starts committing at %d while its \
                   predecessor commits until %d (sequential commit order \
                   violated)"
          j commit_start !last_commit_end;
      if commit_start < !cur_end then
        Chk.failf "Sim.run: thread %d starts committing at %d before it \
                   finished executing at %d"
          j commit_start !cur_end;
      if commit_end < commit_start + p.c_commit then
        Chk.failf "Sim.run: thread %d commit %d..%d is shorter than the \
                   commit overhead %d"
          j commit_start commit_end p.c_commit
    end;
    last_commit_end := commit_end;
    wb_stores ~base ~drain:commit_end;
    if j = warmup - 1 then begin
      warm_end := commit_end;
      Array.iter Cache.reset_stats l1;
      Cache.reset_stats l2;
      if check then begin
        Array.iter Ref.Cache.reset_stats rl1;
        Ref.Cache.reset_stats rl2.(0)
      end
    end;
    core_free.(core) <- commit_end;
    for i = 0 to n_stores - 1 do
      let v = stores.(i) in
      let addr = addr_of ~node:v ~iter:(j - k.K.stage.(v)) in
      l2_fill addr;
      if inval_needed.(v) then
        for c = 0 to ncore - 1 do
          if c <> core then l1_invalidate c addr
        done
    done;
    if traced && j >= warmup then begin
      Trace.begin_span trace ~pid:trace_pid ~tid:core ~ts:commit_start "commit"
        ~args:[ ("thread", J.Int j) ];
      Trace.end_span trace ~pid:trace_pid ~tid:core ~ts:commit_end "commit";
      (* Sampled occupancy: MDT entries live after this thread's stores,
         plus this thread's speculative-write-buffer footprint. *)
      if j land 31 = 0 then
        Trace.counter_sample trace ~pid:trace_pid ~ts:commit_end "occupancy"
          [
            ("mdt", float_of_int (Mdt.live_entries mdt));
            (* Write-buffer entries across all in-flight threads, as of
               this thread's start (the latest instant the event sweep has
               fully resolved). *)
            ("wb", float_of_int !wb_cur);
          ]
    end;
    (match observe with
    | Some f ->
        f
          {
            index = j;
            core;
            start = !cur_start;
            end_exec = !cur_end;
            commit_start;
            commit_end;
            squashed;
          }
    | None -> ());
    h_kind.(j mod horizon) <- 1;
    cur_squashed := squashed;
    (* Successors respawn from the (possibly re-executed) thread's start. *)
    prev_spawn_base := !cur_start;
    if j mod 64 = 63 then begin
      if analytic_mdt then begin
        av_retire j;
        (* keep the (tiny) coin-neighbourhood table pruned *)
        if n_coin > 0 then Mdt.retire mdt ~upto:(j - horizon)
      end
      else mdt_retire ~upto:(j - horizon)
    end
  in
  (* ---- fast-path machinery ---- *)
  let record j =
    let o = j mod w_len in
    let r = (!wcur).(o) in
    r.r_valid <- true;
    r.r_start <- !cur_start;
    r.r_end_exec <- !cur_end;
    r.r_commit_end <- !last_commit_end;
    r.r_spawn <- !cur_spawn;
    r.r_squashed <- !cur_squashed;
    r.r_coin <- coin_affects j;
    r.r_nstalls <- !cur_nstalls;
    Array.blit stall_buf 0 r.r_stalls 0 (3 * !cur_nstalls);
    let base = j mod horizon * n in
    Array.blit h_finish base r.r_finish 0 n;
    Array.blit h_issue base r.r_issue 0 n;
    for i = 0 to n_loads - 1 do
      let v = loads.(i) in
      r.r_lats.(v) <- lat_buf.(v)
    done
  in
  (* [b.(i) = a.(i) + d] over the run's live prefix. *)
  let shift_eq a b d =
    let ok = ref true in
    for i = 0 to n - 1 do
      if b.(i) <> a.(i) + d then ok := false
    done;
    !ok
  in
  (* The history slot at [base] against a window record, under shift. *)
  let slot_shift_eq (rarr : int array) flat base d =
    let ok = ref true in
    for i = 0 to n - 1 do
      if flat.(base + i) <> rarr.(i) + d then ok := false
    done;
    !ok
  in
  (* Same stalls, [rb]'s instants shifted by [d]. *)
  let stalls_eq ra rb d =
    ra.r_nstalls = rb.r_nstalls
    &&
    let ok = ref true in
    for i = 0 to ra.r_nstalls - 1 do
      let x = 3 * i in
      if
        ra.r_stalls.(x) <> rb.r_stalls.(x)
        || ra.r_stalls.(x + 1) <> rb.r_stalls.(x + 1)
        || rb.r_stalls.(x + 2) <> ra.r_stalls.(x + 2) + d
      then ok := false
    done;
    !ok
  in
  let window_clean w =
    let clean = ref true in
    for o = 0 to w_len - 1 do
      let r = w.(o) in
      if (not r.r_valid) || r.r_squashed || r.r_coin then clean := false
    done;
    !clean
  in
  (* Leave the engaged regime at thread [j] (which just ran exactly, with
     live write-buffer sweeping, starting at [upto]). While engaged the
     extrapolated threads' write-buffer events were skipped — the steady
     state replays the signature window's already-recorded occupancy
     trajectory, so they cannot move the peak — but the exact threads that
     follow sweep again from [upto], so re-materialise the skipped pairs
     that are still in flight. Pairs that drained before [upto] net to
     zero at every future sweep point and stay skipped. *)
  let disengage ~j ~upto =
    let t = ref (j - 1) in
    let flowing = ref true in
    while !flowing && !t >= !engage_first do
      let tt = !t in
      let r = (!sig0).(tt mod w_len) in
      let shift = (tt - !sig_base) / w_len * !delta in
      let ce = r.r_commit_end + shift in
      if ce < upto then flowing := false
      else begin
        (* coin-affected threads ran exactly: their events are already in *)
        if not (coin_affects tt) then
          for i = 0 to n_stores - 1 do
            let v = stores.(i) in
            wb_push a (((r.r_issue.(v) + shift) lsl 1) lor 1);
            wb_push a (ce lsl 1)
          done;
        decr t
      end
    done;
    engaged := false;
    allhit := false;
    prev_clean := false;
    Array.iter (fun r -> r.r_valid <- false) !wprev;
    Array.iter (fun r -> r.r_valid <- false) !wcur
  in
  let try_engage next =
    let cur_clean = window_clean !wcur in
    (if !prev_clean && cur_clean then begin
       let wp = !wprev and wc = !wcur in
       let d = wc.(0).r_start - wp.(0).r_start in
       let ok = ref (d > 0) in
       for o = 0 to w_len - 1 do
         if !ok then begin
           let rp = wp.(o) and rc = wc.(o) in
           ok :=
             rc.r_start = rp.r_start + d
             && rc.r_end_exec = rp.r_end_exec + d
             && rc.r_commit_end = rp.r_commit_end + d
             && rc.r_spawn = rp.r_spawn
             && stalls_eq rp rc d
             && shift_eq rp.r_finish rc.r_finish d
             && shift_eq rp.r_issue rc.r_issue d
             &&
             let same = ref true in
             for i = 0 to n_loads - 1 do
               let v = loads.(i) in
               if rp.r_lats.(v) <> rc.r_lats.(v) then same := false
             done;
             !same
         end
       done;
       if !ok then begin
         engaged := true;
         (* The previous engagement's signature becomes the next current
            window: by now the history ring holds only really-executed
            threads, so nothing references its records. *)
         let spare = !sig0 in
         sig0 := !wcur;
         sig_base := next - w_len;
         engage_first := next;
         delta := d;
         let all = ref true in
         for o = 0 to w_len - 1 do
           let r = wc.(o) in
           for i = 0 to n_loads - 1 do
             if r.r_lats.(loads.(i)) <> cfg.l1_hit then all := false
           done
         done;
         sig_allhit := !all;
         incr engage_count;
         wcur := spare;
         Array.iter (fun r -> r.r_valid <- false) spare;
         prev_clean := false;
         Array.iter (fun r -> r.r_valid <- false) !wprev
       end
     end);
    if not !engaged then begin
      let t = !wprev in
      wprev := !wcur;
      wcur := t;
      prev_clean := cur_clean;
      Array.iter (fun r -> r.r_valid <- false) !wcur
    end
  in
  let try_allhit next =
    if no_coins_from next && !sig_allhit && residency_ok () then allhit := true
  in
  (* Replay an extrapolation candidate's loads against the real caches and
     compare the latency pattern with the signature. Always completes the
     full access sequence so a mismatching thread can continue exactly. *)
  let replay_loads j (r : fp_rec) =
    fill_lats j;
    let diff = ref false in
    for i = 0 to n_loads - 1 do
      let v = loads.(i) in
      if lat_buf.(v) <> r.r_lats.(v) then diff := true
    done;
    !diff
  in
  (* Apply one extrapolated thread's observable effects. [fills] is false
     only in the proven all-hit regime, where store fills/invalidates
     touch lines no load can ever read (disjoint stream regions) and the
     caches are no longer consulted at all. *)
  let extrapolate j (r : fp_rec) shift ~fills =
    let core = core_of j in
    let measured = j >= warmup in
    let start = r.r_start + shift in
    let commit_end = r.r_commit_end + shift in
    if measured && r.r_spawn > 0 then spawn_stall := !spawn_stall + r.r_spawn;
    if measured then account_stalls ~core ~j r.r_stalls r.r_nstalls;
    (* No write-buffer events while engaged: the steady state repeats the
       signature window's recorded occupancy trajectory (every event
       shifts uniformly), so the peak cannot move; [disengage]
       re-materialises in-flight pairs if exact execution resumes. *)
    let mdt_real = (not analytic_mdt) || mdt_relevant j in
    for i = 0 to n_stores - 1 do
      let v = stores.(i) in
      if analytic_mdt then av_record j v;
      if mdt_real || fills then begin
        let addr = addr_of ~node:v ~iter:(j - k.K.stage.(v)) in
        if mdt_real then
          mdt_record ~thread:j ~addr ~finish:(r.r_finish.(v) + shift);
        if fills then begin
          l2_fill addr;
          if inval_needed.(v) then
            for c = 0 to ncore - 1 do
              if c <> core then l1_invalidate c addr
            done
        end
      end
    done;
    last_commit_end := commit_end;
    if j = warmup - 1 then begin
      warm_end := commit_end;
      Array.iter Cache.reset_stats l1;
      Cache.reset_stats l2
    end;
    core_free.(core) <- commit_end;
    if (not fills) && measured then
      analytic_l1_hits := !analytic_l1_hits + n_loads;
    let s = j mod horizon in
    h_kind.(s) <- 2;
    h_rec.(s) <- r;
    h_shift.(s) <- shift;
    prev_spawn_base := start;
    if j mod 64 = 63 then begin
      if analytic_mdt then begin
        av_retire j;
        if n_coin > 0 then Mdt.retire mdt ~upto:(j - horizon)
      end
      else mdt_retire ~upto:(j - horizon)
    end;
    incr extrap_count
  in
  for j = 0 to total - 1 do
    if !engaged then begin
      let o = j mod w_len in
      let shift = (j - !sig_base) / w_len * !delta in
      let r = (!sig0).(o) in
      if coin_affects j then begin
        (* A coin-touched iteration can redirect a load and squash: run it
           exactly and stay engaged only if it lands on its prediction. *)
        exact_step j ~lats:false;
        let base = j mod horizon * n in
        let same =
          (not !cur_squashed)
          && !cur_spawn = r.r_spawn
          && !cur_start = r.r_start + shift
          && !cur_end = r.r_end_exec + shift
          && !last_commit_end = r.r_commit_end + shift
          && slot_shift_eq r.r_finish h_finish base shift
          && slot_shift_eq r.r_issue h_issue base shift
        in
        if not same then disengage ~j ~upto:!cur_start
      end
      else if not !allhit then begin
        if replay_loads j r then begin
          (* The cache pattern moved (stream wrap, conflict eviction):
             finish this thread exactly — its cache accesses are already
             done and exact — and drop back to detection. *)
          incr mismatch_count;
          exact_step j ~lats:true;
          disengage ~j ~upto:!cur_start
        end
        else extrapolate j r shift ~fills:true
      end
      else extrapolate j r shift ~fills:false;
      if !engaged && (not !allhit) && (j + 1) mod w_len = 0 then
        try_allhit (j + 1)
    end
    else begin
      exact_step j ~lats:false;
      if fast_ok then begin
        record j;
        if (j + 1) mod w_len = 0 then try_engage (j + 1)
      end
    end
  done;
  wb_finalize max_int;
  if check then begin
    if !wb_cur <> 0 then
      Chk.failf "Sim.run: %d write-buffer entries never drained" !wb_cur;
    if !sync_stall < 0 then
      Chk.failf "Sim.run: negative sync stall total %d" !sync_stall;
    if !spawn_stall < 0 then
      Chk.failf "Sim.run: negative spawn stall total %d" !spawn_stall;
    if !last_commit_end < !warm_end then
      Chk.failf "Sim.run: last commit %d precedes the warmup boundary %d"
        !last_commit_end !warm_end;
    check_cache_stats ~what:"L2" l2 rl2.(0);
    Array.iteri
      (fun c l1c ->
        check_cache_stats ~what:(Printf.sprintf "L1 (core %d)" c) l1c rl1.(c))
      l1
  end;
  let l1_hits, l1_misses =
    Array.fold_left
      (fun (h, m) c ->
        let h', m' = Cache.stats c in
        (h + h', m + m'))
      (0, 0) l1
  in
  let l1_hits = l1_hits + !analytic_l1_hits in
  let l2_hits, l2_misses = Cache.stats l2 in
  let final_mdt_peak = if analytic_mdt then !av_peak else Mdt.peak_entries mdt in
  let pairs = pairs_per_iter * trip in
  (* Mirror run totals onto the default registry, in bulk, so the hot loop
     never touches a hashtable. *)
  Ts_obs.Metrics.incr ~by:trip m_threads;
  Ts_obs.Metrics.incr ~by:!squashes m_squashes;
  Ts_obs.Metrics.incr ~by:!sync_stall m_sync_stalls;
  Ts_obs.Metrics.incr ~by:!spawn_stall m_spawn_stalls;
  Ts_obs.Metrics.set_gauge m_mdt_peak (float_of_int final_mdt_peak);
  if !engage_count > 0 then
    Ts_obs.Metrics.incr ~by:!engage_count m_fp_engaged;
  if !extrap_count > 0 then Ts_obs.Metrics.incr ~by:!extrap_count m_fp_extrap;
  if !mismatch_count > 0 then
    Ts_obs.Metrics.incr ~by:!mismatch_count m_fp_mismatch;
  if traced then
    Trace.instant trace ~pid:trace_pid ~ts:!last_commit_end "sim.end"
      ~args:
        [
          ("cycles", J.Int (!last_commit_end - !warm_end));
          ("squashes", J.Int !squashes);
          ("sync_stall_cycles", J.Int !sync_stall);
        ];
  let breakdown =
    let lst = ref [] in
    for i = a.stall_ntouched - 1 downto 0 do
      let idx = a.stall_touched.(i) in
      let c = a.stall_cnt.(idx) in
      if c > 0 then lst := ((idx / n, idx mod n), c) :: !lst
    done;
    List.sort (fun (_, x) (_, y) -> compare y x) !lst
  in
  {
    cycles = !last_commit_end - !warm_end;
    committed = trip;
    squashes = !squashes;
    misspec_rate = float_of_int !squashes /. float_of_int trip;
    sync_stall_cycles = !sync_stall;
    spawn_stall_cycles = !spawn_stall;
    send_recv_pairs = pairs;
    send_recv_cycles = pairs * p.c_reg_com;
    communication_overhead = !sync_stall + (pairs * p.c_reg_com);
    l1_hits;
    l1_misses;
    l2_hits;
    l2_misses;
    wb_peak = !wb_peak;
    mdt_peak = final_mdt_peak;
    stall_breakdown = breakdown;
  }

let check_fast_vs_exact (exact : stats) (fst : stats) =
  let ck name a b =
    if a <> b then
      Chk.failf "Sim.run: fast path diverged from exact replay on %s: %d vs %d"
        name b a
  in
  ck "cycles" exact.cycles fst.cycles;
  ck "committed" exact.committed fst.committed;
  ck "squashes" exact.squashes fst.squashes;
  ck "sync_stall_cycles" exact.sync_stall_cycles fst.sync_stall_cycles;
  ck "spawn_stall_cycles" exact.spawn_stall_cycles fst.spawn_stall_cycles;
  ck "send_recv_pairs" exact.send_recv_pairs fst.send_recv_pairs;
  ck "send_recv_cycles" exact.send_recv_cycles fst.send_recv_cycles;
  ck "communication_overhead" exact.communication_overhead
    fst.communication_overhead;
  ck "l1_hits" exact.l1_hits fst.l1_hits;
  ck "l1_misses" exact.l1_misses fst.l1_misses;
  ck "l2_hits" exact.l2_hits fst.l2_hits;
  ck "l2_misses" exact.l2_misses fst.l2_misses;
  ck "wb_peak" exact.wb_peak fst.wb_peak;
  ck "mdt_peak" exact.mdt_peak fst.mdt_peak;
  if exact.misspec_rate <> fst.misspec_rate then
    Chk.failf
      "Sim.run: fast path diverged from exact replay on misspec_rate: %g vs %g"
      fst.misspec_rate exact.misspec_rate;
  if
    List.sort compare exact.stall_breakdown
    <> List.sort compare fst.stall_breakdown
  then
    Chk.failf
      "Sim.run: fast path diverged from exact replay on stall_breakdown"

(* Wall-time per [run] call and the cycle-normalised cost of the
   simulated work: ns of host time per simulated cycle, the number the
   ROADMAP 10x-sim target has to move. *)
let m_run_ms = Ts_obs.Metrics.histogram Ts_obs.Metrics.default "sim.run_ms"

let m_ns_per_cycle =
  Ts_obs.Metrics.histogram Ts_obs.Metrics.default "sim.ns_per_cycle"

let timed_internal ?seed ?plan ~sync_mem ~warmup ~check ?observe ~trace
    ~trace_pid ~fast cfg (k : K.t) ~trip =
  let fast_ok =
    fast_path_ok ~fast ~trace ~observed:(Option.is_some observe) cfg k.K.g
  in
  Ts_obs.Prof.span (if fast_ok then "sim.run.fast" else "sim.run.exact")
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let st =
    run_internal ?seed ?plan ~sync_mem ~warmup ~check ?observe ~trace
      ~trace_pid ~fast_ok cfg k ~trip
  in
  let dt = Unix.gettimeofday () -. t0 in
  Ts_obs.Metrics.observe m_run_ms (dt *. 1000.0);
  if st.cycles > 0 then
    Ts_obs.Metrics.observe m_ns_per_cycle (dt *. 1e9 /. float_of_int st.cycles);
  st

let run ?seed ?plan ?(sync_mem = false) ?(warmup = 0) ?(check = false) ?observe
    ?(trace = Trace.null) ?(trace_pid = 0) ?(fast = false) cfg (k : K.t) ~trip
    =
  if fast && check then begin
    (* Cross-validate: the exact path runs with the full invariant checks
       (and carries any trace/observe hooks), the fast path runs clean on
       the same address plan, and the two stat records must agree
       field-for-field. *)
    let plan =
      match plan with Some pl -> pl | None -> Address_plan.create ?seed k.K.g
    in
    let exact =
      timed_internal ~plan ~sync_mem ~warmup ~check:true ?observe ~trace
        ~trace_pid ~fast:false cfg k ~trip
    in
    let fst =
      timed_internal ~plan ~sync_mem ~warmup ~check:false ~trace:Trace.null
        ~trace_pid ~fast:true cfg k ~trip
    in
    check_fast_vs_exact exact fst;
    fst
  end
  else
    timed_internal ?seed ?plan ~sync_mem ~warmup ~check ?observe ~trace
      ~trace_pid ~fast cfg k ~trip

let ipc (k : K.t) (s : stats) =
  float_of_int (Ts_ddg.Ddg.n_nodes k.K.g * s.committed) /. float_of_int (max 1 s.cycles)
