module K = Ts_modsched.Kernel
module Trace = Ts_obs.Trace
module J = Ts_obs.Json
module Chk = Ts_check.Invariant
module Ref = Ts_check.Ref_models

(* Simulator totals on the default metrics registry ([tsms --metrics]). *)
let counter = Ts_obs.Metrics.counter Ts_obs.Metrics.default
let m_threads = counter "sim.threads"
let m_squashes = counter "sim.squashes"
let m_sync_stalls = counter "sim.sync_stall_cycles"
let m_spawn_stalls = counter "sim.spawn_stall_cycles"
let m_mdt_peak = Ts_obs.Metrics.gauge Ts_obs.Metrics.default "sim.mdt_peak"

(* Steady-state fast path engagement (see [run]'s [fast]). *)
let m_fp_engaged = counter "sim.fastpath.engagements"
let m_fp_extrap = counter "sim.fastpath.extrapolated_threads"
let m_fp_mismatch = counter "sim.fastpath.mismatches"

(* Threads by kind, warmup included, and the nodes of the exact ones (a
   squash's re-execution not counted again). *)
let m_exact_threads = counter "sim.exact.threads"
let m_exact_nodes = counter "sim.exact.nodes"

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
  mdt_peak : int;
  stall_breakdown : ((int * int) * int) list;
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

   The storage a run reuses from the previous run on its domain lives in
   flat [int array]s owned by a per-domain arena: the node table holds
   each (core, node)'s latency, the history ring is a struct-of-arrays
   (see [arena]), the fast path's coin iterations are a sorted int array,
   finite-width issue slots are int counters, and RECV-stall accounting
   is a flat [n * n] counter plane with a touched-list for O(touched)
   scrub. Node-sized per-run arrays (the dependence CSR, the load and
   store lists) live in the run record instead, and the memory nodes'
   streams are the address plan's own table. The arena (including the
   caches and the MDT) is acquired at the top of every [run] and reused
   across sweep points on the same domain — the resident pool workers are
   domains, so a TMS sweep's thousands of simulations share one
   allocation. Capacities only grow; every loop bounds itself by the
   current run's sizes.

   Lifetime rules: an arena is owned by exactly one running [run] at a
   time ([in_use]; a re-entrant call from an [observe] hook gets a fresh
   transient arena). All scratch is scrubbed on acquire, not release, so
   a run that dies mid-flight (a [check] failure, a user hook raising)
   cannot poison the next run on that domain. Nothing in the returned
   [stats] aliases arena storage. *)
type arena = {
  mutable in_use : bool;
  mutable cap_n : int; (* capacity of every node-indexed scratch array *)
  (* the run's node table, flat [core * n + node]: latency x lat_scale,
     or -1 for a load *)
  mutable node_lat : int array;
  mutable coin_iters : int array; (* sorted iterations a coin redirects *)
  mutable coin_keys : Bytes.t; (* [Rng.coin2_key_b it] at [8 * it] *)
  (* finite-width issue counts, indexed by [issue - start]; zero past
     [iw_hi], the highest index touched since the last scrub (at every
     thread's start, so a run that died mid-thread poisons nothing) *)
  mutable iw_cnt : int array;
  mutable iw_hi : int;
  (* RECV-stall accumulation, flat [producer * n + consumer] *)
  mutable stall_cnt : int array;
  mutable stall_touched : int array;
  mutable stall_ntouched : int;
  (* The history ring, struct-of-arrays: [ring] slots of threads, slot [j
     mod ring] for thread [j], then [win] signature slots (see [run]).
     A slot's times are those of slot [h_src] (itself for an exactly run
     thread, a signature slot for an extrapolated one, -1 for none) plus
     [h_shift]. The planes are flat [slot * n + node] ([slot * 3n] for
     the stalls, [slot * meta] for the per-thread scalars). *)
  mutable h_src : int array;
  mutable h_shift : int array;
  mutable h_issue : int array;
  mutable h_finish : int array;
  mutable h_lat : int array; (* the loads' cache latencies *)
  mutable h_stalls : int array;
      (* RECV stalls, flat (blame, cycles, instant) triples; blame is
         [producer * n + consumer], or -1 *)
  mutable h_meta : int array;
  (* reusable stateful models *)
  mutable l1_geom : int * int * int * int; (* ncore, size, assoc, line *)
  mutable l2_geom : int * int * int;
  mutable l1 : Cache.t array;
  mutable l2 : Cache.t;
  mdt : Mdt.t;
}

(* A slot's scalars in [h_meta]: start, end of execution, end of commit,
   spawn-stall cycles (recorded even in warmup) and RECV-stall count. *)
let meta = 5
let m_start = 0
let m_end = 1
let m_commit = 2
let m_spawn = 3
let m_nstalls = 4

let arena_create () =
  {
    in_use = false;
    cap_n = 0;
    node_lat = [||];
    coin_iters = [||];
    coin_keys = Bytes.empty;
    iw_cnt = [||];
    iw_hi = -1;
    stall_cnt = [||];
    stall_touched = [||];
    stall_ntouched = 0;
    h_src = [||];
    h_shift = [||];
    h_issue = [||];
    h_finish = [||];
    h_lat = [||];
    h_stalls = [||];
    h_meta = [||];
    l1_geom = (0, 0, 0, 0);
    l2_geom = (0, 0, 0);
    l1 = [||];
    l2 = Cache.create ~size:32 ~assoc:1 ~line:32;
    mdt = Mdt.create ~horizon:1;
  }

(* Scrub on acquire (see the lifetime rules above): O(touched) for the
   stall plane. The ring tags are scrubbed by [create], the issue
   counters per thread ([iw_scrub]). *)
let arena_scrub a =
  for i = 0 to a.stall_ntouched - 1 do
    a.stall_cnt.(a.stall_touched.(i)) <- 0
  done;
  a.stall_ntouched <- 0

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
    a.stall_cnt <- Array.make (c * c) 0
  end

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
  if slots > Array.length a.h_src then begin
    a.h_src <- Array.make slots (-1);
    a.h_shift <- Array.make slots 0;
    a.h_meta <- Array.make (slots * meta) 0
  end;
  if slots * n > Array.length a.h_issue then begin
    let len = grown (slots * n) (Array.length a.h_issue) in
    a.h_issue <- Array.make len 0;
    a.h_finish <- Array.make len 0;
    a.h_lat <- Array.make len 0;
    a.h_stalls <- Array.make (3 * len) 0
  end

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

(* Whether a run takes the steady-state fast path (see [drive]): asked
   for, untraced, unobserved, and with no certain memory dependence, on
   any core mix and placement. Every other run is the exact engine's,
   and its profile span says so. *)
let fast_path_ok ~fast ~trace ~observed (g : Ts_ddg.Ddg.t) =
  fast
  && (not (Trace.enabled trace))
  && (not observed)
  && not
       (Array.exists
          (fun (e : Ts_ddg.Ddg.edge) ->
            e.kind = Ts_ddg.Ddg.Mem && e.prob >= 1.0)
          g.edges)

(* ---- the run record ----

   One simulation's configuration (immutable fields, fixed at [create])
   and its mutable state. The stages below — [spawn], [execute],
   [verify], [commit] — and the fast path all read and write this one
   record; the arena holds only the storage that outlives the run. *)
type run = {
  cfg : Config.t;
  p : Ts_isa.Spmt_params.t;
  k : K.t;
  n : int;
  warmup : int;
  check : bool;
  observe : (thread_obs -> unit) option;
  trace : Trace.t;
  trace_pid : int;
  traced : bool;
  fast_ok : bool;
      (* [fast_path_ok] of this run: the fast path's coin index, analytic
         MDT, skipped invalidates and windows exist only under it *)
  a : arena;
  plan : Address_plan.t;
  streams : int array; (* [Address_plan.streams plan] *)
  place_period : int;
  place_seq : int array; (* one period of the thread→core map *)
  core_width : int array; (* issue width per core; 0 = unbounded *)
  comm_tbl : int array;
      (* distance-[dk] arrival cost of a consumer at period position
         [pos], at [pos * comm_stride + dk] *)
  comm_stride : int;
  horizon : int; (* above every register lookback *)
  win : int; (* detection window length (see [window_len]) *)
  ring : int; (* history ring slots, [2 * win]: two windows *)
  max_stage : int;
  by_row : int array; (* nodes in issue order *)
  loads : int array; (* in issue order *)
  stores : int array;
  (* the dependence CSR (see [csr]) *)
  reg_off : int array;
  reg_src : int array;
  reg_dk : int array;
  intra_off : int array;
  intra_src : int array;
  mem_nonempty : bool array; (* loads the MDT must probe *)
  inval_needed : bool array;
  (* the naive reference models, present iff [check] *)
  rl1 : Ref.Cache.t array;
  rl2 : Ref.Cache.t array;
  rmdt : Ref.Mdt.t array;
  n_coin : int; (* [a.coin_iters.(0 .. n_coin - 1)] *)
  analytic_mdt : bool;
  store_pv : int array; (* a store stream's address period, in threads *)
  core_free : int array; (* when each core's last thread committed *)
  (* run totals *)
  mutable sync_stall : int;
  mutable spawn_stall : int;
  mutable squashes : int;
  mutable last_commit_end : int;
  mutable prev_spawn_base : int; (* the previous thread's start *)
  mutable warm_end : int;
  (* the thread in the stages: its RECV stalls are the first
     [cur_nstalls] triples of its slot's [h_stalls], chronological *)
  mutable cur_start : int;
  mutable cur_end : int;
  mutable cur_spawn : int;
  mutable cur_squashed : bool;
  mutable cur_nstalls : int;
  mutable last_squash : int; (* the last thread squashed, or -1 *)
  (* analytic MDT occupancy *)
  mutable av_live : int;
  mutable av_peak : int;
  mutable av_u : int; (* entries of threads below this are retired *)
  (* fast path: the detection windows are the ring's two halves, and the
     signature is slots [ring .. ring + win - 1] once [engage_count > 0] *)
  mutable prev_clean : bool;
  mutable clean_from : int; (* windows before it hold stale slots *)
  mutable engaged : bool;
  mutable sig_base : int;
  mutable delta : int;
  mutable engage_count : int;
  mutable extrap_count : int;
  mutable mismatch_count : int;
}

let core_of s j = Array.unsafe_get s.place_seq (j mod s.place_period)

(* The address memory node [v] touches in thread [j]. [own]: no coin
   redirects the thread's accesses ([own_addrs]), so a non-negative
   iteration reads the node's own stream, wrapped by mask. A negative
   prologue iteration keeps [Address_plan]'s [mod], which differs there. *)
let[@inline] thread_addr s ~own v j =
  let it = j - Array.unsafe_get s.k.K.stage v in
  if own && it >= 0 then
    let st = s.streams and b = 3 * v in
    Array.unsafe_get st b
    + (Array.unsafe_get st (b + 1) * it land Array.unsafe_get st (b + 2))
  else Address_plan.addr s.plan ~node:v ~iter:it

(* ---- checked model access ----

   Every cache and MDT operation goes through these wrappers. Under
   [check] each mirrors onto the naive reference model and compares the
   answers; they are the only way the stages touch these structures, so
   an unchecked run is byte-identical to a checked one. The singleton
   reference arrays stand in for "present iff [check]" without an option
   match on the hot path. [cache_access]'s [cache] is core [i]'s L1
   mirrored by [refs = rl1], or the L2 ([refs = rl2], [i = 0]). *)
let cache_access s cache refs i addr =
  let hit = Cache.access cache addr in
  if s.check then begin
    let expect = Ref.Cache.access refs.(i) addr in
    if hit <> expect then
      Chk.failf "Sim.run: %s access at addr %d was a %s but the reference \
                 LRU model says %s"
        (if refs == s.rl2 then "L2" else Printf.sprintf "L1 (core %d)" i)
        addr
        (if hit then "hit" else "miss")
        (if expect then "hit" else "miss")
  end;
  hit

let l2_fill s addr =
  Cache.fill s.a.l2 addr;
  if s.check then Ref.Cache.fill s.rl2.(0) addr

let l1_invalidate s c addr =
  Cache.invalidate s.a.l1.(c) addr;
  if s.check then Ref.Cache.invalidate s.rl1.(c) addr

let check_cache_stats ~what real refm =
  let h, m = Cache.stats real and h', m' = Ref.Cache.stats refm in
  if (h, m) <> (h', m') then
    Chk.failf "Sim.run: %s counted %d hits / %d misses but the reference \
               LRU model counted %d / %d"
      what h m h' m'

(* Under [check], after [what ()]: the MDT's live and peak entry counts
   against the reference model's. *)
let check_mdt s what =
  let mdt = s.a.mdt and rmdt = s.rmdt.(0) in
  if Mdt.live_entries mdt <> Ref.Mdt.live_entries rmdt then
    Chk.failf "Sim.run: after %s the MDT holds %d live entries but the \
               reference model holds %d"
      (what ()) (Mdt.live_entries mdt) (Ref.Mdt.live_entries rmdt);
  if Mdt.peak_entries mdt <> Ref.Mdt.peak_entries rmdt then
    Chk.failf "Sim.run: MDT peak %d diverged from the reference model's %d"
      (Mdt.peak_entries mdt) (Ref.Mdt.peak_entries rmdt)

let mdt_record s ~thread ~addr ~finish =
  Mdt.record_store s.a.mdt ~thread ~addr ~finish;
  if s.check then begin
    Ref.Mdt.record_store s.rmdt.(0) ~thread ~addr ~finish;
    check_mdt s (fun () ->
        Printf.sprintf "a store by thread %d at addr %d" thread addr)
  end

let mdt_conflict s ~thread ~addr ~issue =
  let got = Mdt.conflict s.a.mdt ~thread ~addr ~issue in
  if s.check then begin
    let expect =
      Ref.Mdt.conflicting_store s.rmdt.(0) ~thread ~addr ~issue
      |> Option.value ~default:Mdt.no_conflict
    in
    if got <> expect then
      Chk.failf "Sim.run: MDT conflict query (thread %d, addr %d, issue %d) \
                 answered %s but the reference model says %s"
        thread addr issue
        (if got = Mdt.no_conflict then "none" else string_of_int got)
        (if expect = Mdt.no_conflict then "none" else string_of_int expect)
  end;
  got

let mdt_retire s ~upto =
  Mdt.retire s.a.mdt ~upto;
  if s.check then begin
    Ref.Mdt.retire s.rmdt.(0) ~upto;
    check_mdt s (fun () -> Printf.sprintf "retiring below thread %d" upto)
  end

(* A load's latency in thread [j] on [core]: its access through the real
   L1, then L2. The one load path of both engines. *)
let[@inline] load_latency s ~core ~own j v =
  let addr = thread_addr s ~own v j in
  if cache_access s (Array.unsafe_get s.a.l1 core) s.rl1 core addr then
    s.cfg.l1_hit
  else if cache_access s s.a.l2 s.rl2 0 addr then s.cfg.l2_hit
  else s.cfg.mem_latency

(* ---- run setup ---- *)

(* Caches: reuse the arena's allocation when the geometry matches
   ([Cache.reset] restores the freshly-created state), else rebuild. The
   shared L2 does not depend on the core count, so a sweep over machines
   keeps it. *)
let arena_caches a (cfg : Config.t) ncore =
  let l1_geom = (ncore, cfg.l1_size, cfg.l1_assoc, cfg.line) in
  if a.l1_geom <> l1_geom then begin
    a.l1 <-
      Array.init ncore (fun _ ->
          Cache.create ~size:cfg.l1_size ~assoc:cfg.l1_assoc ~line:cfg.line);
    a.l1_geom <- l1_geom
  end
  else Array.iter Cache.reset a.l1;
  let l2_geom = (cfg.l2_size, cfg.l2_assoc, cfg.line) in
  if a.l2_geom <> l2_geom then begin
    a.l2 <- Cache.create ~size:cfg.l2_size ~assoc:cfg.l2_assoc ~line:cfg.line;
    a.l2_geom <- l2_geom
  end
  else Cache.reset a.l2

(* The run's node table (see [arena]). *)
let arena_node_lat a (g : Ts_ddg.Ddg.t) (p : Ts_isa.Spmt_params.t) ~n =
  if p.ncore * n > Array.length a.node_lat then
    a.node_lat <- Array.make (grown (p.ncore * n) (Array.length a.node_lat)) 0;
  for v = 0 to n - 1 do
    let nd = Ts_ddg.Ddg.node g v in
    for c = 0 to p.ncore - 1 do
      let scale = (Ts_isa.Spmt_params.core_desc p c).Ts_isa.Spmt_params.lat_scale in
      a.node_lat.((c * n) + v) <-
        (if nd.op = Ts_isa.Opcode.Load then -1 else nd.latency * scale)
    done
  done

(* The kernel's dependence structure, in two passes over the edges:
   - inter-thread register dependences (and, under [sync_mem], memory
     ones) as a CSR by consumer: consumer [v]'s entries are [off.(v) ..
     off.(v+1) - 1] of [src] and [dk], the last register edge first and
     the memory edges ahead of them (a RECV stall blames the first
     latest producer, so the order is part of the result);
   - intra-thread ones likewise, by [d_ker = 0];
   - the loads whose incoming memory dependences are speculated;
   - the stores whose peer-L1 invalidates are needed (see [create]);
   - the deepest inter-thread lookback, at least 1. *)
let deps (k : K.t) ~sync_mem ~fast_ok ~n =
  let edges = k.K.g.edges in
  let reg_off = Array.make (n + 1) 0 and intra_off = Array.make (n + 1) 0 in
  let mem_nonempty = Array.make n false in
  let inval_needed = Array.make n (not fast_ok) in
  let lookback = ref 1 in
  let synced (e : Ts_ddg.Ddg.edge) = e.kind = Ts_ddg.Ddg.Reg || sync_mem in
  Array.iter
    (fun (e : Ts_ddg.Ddg.edge) ->
      let dk = K.d_ker k e in
      if e.kind = Ts_ddg.Ddg.Mem then inval_needed.(e.src) <- true;
      if dk = 0 then intra_off.(e.dst) <- intra_off.(e.dst) + 1
      else if dk >= 1 then begin
        if dk > !lookback then lookback := dk;
        if synced e then reg_off.(e.dst) <- reg_off.(e.dst) + 1
        else mem_nonempty.(e.dst) <- true
      end)
    edges;
  (* counts to end offsets; the fill below steps each one back down *)
  for v = 1 to n do
    reg_off.(v) <- reg_off.(v) + reg_off.(v - 1);
    intra_off.(v) <- intra_off.(v) + intra_off.(v - 1)
  done;
  let reg_src = Array.make reg_off.(n) 0 and reg_dk = Array.make reg_off.(n) 0 in
  let intra_src = Array.make intra_off.(n) 0 in
  let fill kind =
    Array.iter
      (fun (e : Ts_ddg.Ddg.edge) ->
        let dk = K.d_ker k e in
        if dk = 0 && kind = Ts_ddg.Ddg.Reg then begin
          intra_off.(e.dst) <- intra_off.(e.dst) - 1;
          intra_src.(intra_off.(e.dst)) <- e.src
        end
        else if dk >= 1 && e.kind = kind && synced e then begin
          reg_off.(e.dst) <- reg_off.(e.dst) - 1;
          reg_src.(reg_off.(e.dst)) <- e.src;
          reg_dk.(reg_off.(e.dst)) <- dk
        end)
      edges
  in
  fill Ts_ddg.Ddg.Reg;
  fill Ts_ddg.Ddg.Mem;
  (* now [off.(v)] is consumer [v]'s start; [off.(n)] was never moved *)
  ( (reg_off, reg_src, reg_dk),
    (intra_off, intra_src),
    mem_nonempty,
    inval_needed,
    !lookback )

(* Nodes in issue (row) order within a thread (a counting sort by row,
   ties in node order), the loads in that order, and the stores in node
   order. *)
let nodes (k : K.t) ~n =
  let row = k.K.row and op v = (Ts_ddg.Ddg.node k.K.g v).Ts_ddg.Ddg.op in
  let at = Array.make (k.K.ii + 1) 0 in
  Array.iter (fun r -> at.(r + 1) <- at.(r + 1) + 1) row;
  for r = 1 to k.K.ii do
    at.(r) <- at.(r) + at.(r - 1)
  done;
  let by_row = Array.make n 0 in
  for v = 0 to n - 1 do
    by_row.(at.(row.(v))) <- v;
    at.(row.(v)) <- at.(row.(v)) + 1
  done;
  let only o a = Array.of_list (List.filter (fun v -> op v = o) (Array.to_list a)) in
  (by_row, only Ts_isa.Opcode.Load by_row, only Ts_isa.Opcode.Store (Array.init n Fun.id))

(* Iterations where a probabilistic memory-dependence coin fires on any
   incoming Mem edge (the fast path's business only): the loads they
   redirect run in threads [i, i + max_stage]. Marked over [0, total),
   then compacted in place into ascending order in [a.coin_iters].
   Returns their count. Each mark is [Address_plan.realised]'s coin,
   rolled by [Rng.coin2_keyed] from the edge's key and the iteration's,
   which the arena keeps across runs (they depend on nothing else); an
   iteration already marked rolls no further coin. *)
let mark_coins a plan (g : Ts_ddg.Ddg.t) ~total =
  arena_ensure_coins a total;
  let known = Bytes.length a.coin_keys / 8 in
  if total > known then begin
    let b = Bytes.create (8 * grown total known) in
    Bytes.blit a.coin_keys 0 b 0 (8 * known);
    for it = known to (Bytes.length b / 8) - 1 do
      Bytes.set_int64_ne b (8 * it) (Ts_base.Rng.coin2_key_b it)
    done;
    a.coin_keys <- b
  end;
  let ci = a.coin_iters and keys = a.coin_keys in
  Array.fill ci 0 total 0;
  let root = Address_plan.root plan in
  Array.iteri
    (fun idx (e : Ts_ddg.Ddg.edge) ->
      if e.kind = Ts_ddg.Ddg.Mem then begin
        let ka = Ts_base.Rng.coin2_key_a root idx in
        for it = e.distance to total - 1 do
          if
            ci.(it) = 0
            && (e.prob >= 1.0
               || Ts_base.Rng.coin2_keyed ka (Bytes.get_int64_ne keys (8 * it)) e.prob)
          then ci.(it) <- 1
        done
      end)
    g.edges;
  let c = ref 0 in
  for it = 0 to total - 1 do
    if ci.(it) = 1 then begin
      ci.(!c) <- it;
      incr c
    end
  done;
  !c

(* ---- analytic MDT occupancy ----

   The MDT's record/prune/retire sequence — hence its live count and
   peak — is a pure function of thread indices: every thread records
   every store exactly once in node order (squashed or not), each store
   stream revisits an address exactly every [P_v = ws / gcd stride ws]
   iterations, and retires run on the fixed 64-thread cadence. When no
   store's address can be redirected (no Mem edge lands on a store) and
   thread [j]'s record of store [v] always prunes the entry from [j -
   P_v] if it is still in the table, the live/peak trajectory can be
   maintained with O(1) integer updates per record, and the hashtable
   only has to hold real entries close enough to a coin-affected thread
   that a conflict query could see them. Everywhere else, conflict
   queries probe load-region addresses that no store ever writes and
   answer None off an address mismatch no matter what the table holds.
   The prune needs [P_v >= ncore] (the MDT's horizon), and one address:
   a prologue thread [t < stage v] whose iteration is in [(-P_v, 0)]
   stores below the stream's base, so the first retire past it, the
   first [j = 63 mod 64] above [t + horizon], must come before thread
   [t + P_v]. Returns whether the model applies, and [P_v] per store. *)
let analytic_mdt_plan st (k : K.t) ~fast_ok ~n ~stores ~ncore ~horizon =
  let store_pv = Array.make n 0 in
  let ok = ref fast_ok in
  for i = 0 to Array.length stores - 1 do
    let v = stores.(i) in
    let ws = st.((3 * v) + 2) + 1 and stage = k.K.stage.(v) in
    let pv = ws / gcd st.((3 * v) + 1) ws in
    store_pv.(v) <- pv;
    if pv < ncore then ok := false;
    for t = max 0 (stage - pv + 1) to stage - 1 do
      if (t + horizon + 1) lor 63 >= t + pv then ok := false
    done
  done;
  Array.iter
    (fun (e : Ts_ddg.Ddg.edge) ->
      if
        e.kind = Ts_ddg.Ddg.Mem
        && (Ts_ddg.Ddg.node k.K.g e.dst).Ts_ddg.Ddg.op = Ts_isa.Opcode.Store
      then ok := false)
    k.K.g.edges;
  (!ok, store_pv)

(* The trace's per-core track names and its ["sim.start"] marker. *)
let trace_start s place ~trip =
  for c = 0 to s.p.ncore - 1 do
    Trace.thread_name s.trace ~pid:s.trace_pid ~tid:c
      (Printf.sprintf "core %d" c)
  done;
  Trace.instant s.trace ~pid:s.trace_pid ~ts:0 "sim.start"
    ~args:
      ([
         ("loop", J.Str s.k.K.g.Ts_ddg.Ddg.name);
         ("trip", J.Int trip);
         ("warmup", J.Int s.warmup);
         ("ncore", J.Int s.p.ncore);
         ("ii", J.Int s.k.K.ii);
       ]
      @
      (* Only the non-paper machines announce their placement, so
         default-config trace goldens stay stable. *)
      if
        s.cfg.placement = Ts_isa.Placement.Round_robin
        && not (Ts_isa.Spmt_params.heterogeneous s.p)
      then []
      else [ ("placement", J.Str (Ts_isa.Placement.describe place)) ])

(* The fast path's detection window length. A window is a multiple of
   the placement period (an offset must stay on one core,
   at one period position, across windows; a core's previous thread is
   then at most a window back), at least the history horizon (so
   matching windows cover every lookback an extrapolated thread can
   make), and a multiple of 8 (the coarsest per-line iteration cadence of
   the address streams: strides 4/8/16 on 32-byte lines touch a new line
   every 8/4/2 iterations, so streaming-phase miss patterns repeat per
   8). Round-robin's period is [ncore]. *)
let window_len ~period ~horizon =
  let base = 8 * period / gcd 8 period in
  base * ((horizon + base - 1) / base)

let create ?seed ?plan ~sync_mem ~warmup ~check ?observe ~trace ~trace_pid
    ~fast_ok cfg (k : K.t) ~trip a =
  if trip <= 0 then invalid_arg "Sim.run: trip must be positive";
  if warmup < 0 then invalid_arg "Sim.run: warmup must be non-negative";
  Ts_isa.Spmt_params.validate ~who:"Sim.run" cfg.Config.params;
  let g = k.K.g in
  let n = Ts_ddg.Ddg.n_nodes g in
  let p = cfg.Config.params in
  let ncore = p.ncore in
  let total = warmup + trip in
  let place = Ts_isa.Placement.make cfg.Config.placement p in
  let place_period = Ts_isa.Placement.period place in
  let plan =
    match plan with Some pl -> pl | None -> Address_plan.create ?seed g
  in
  arena_ensure_n a n;
  arena_caches a cfg ncore;
  let ( (reg_off, reg_src, reg_dk),
        (intra_off, intra_src),
        mem_nonempty,
        inval_needed,
        max_lookback ) =
    deps k ~sync_mem ~fast_ok ~n
  in
  let by_row, loads, stores = nodes k ~n in
  (* a stall blames a synchronised dependence, one of the CSR's entries *)
  if Array.length a.stall_touched < Array.length reg_src then
    a.stall_touched <- Array.make (Array.length reg_src) 0;
  let comm_stride = max_lookback + 1 in
  let horizon = max ncore comm_stride in
  let win = window_len ~period:place_period ~horizon in
  arena_ensure_hist a ~slots:(3 * win) ~n;
  Array.fill a.h_src 0 (2 * win) (-1);
  Mdt.clear a.mdt ~horizon:ncore;
  let streams = Address_plan.streams plan in
  let analytic_mdt, store_pv =
    analytic_mdt_plan streams k ~fast_ok ~n ~stores ~ncore ~horizon
  in
  let place_seq = Ts_isa.Placement.seq place in
  arena_node_lat a g p ~n;
  let ref_cache size assoc = Ref.Cache.create ~size ~assoc ~line:cfg.line in
  let s =
    {
      cfg;
      p;
      k;
      n;
      warmup;
      check;
      observe;
      trace;
      trace_pid;
      traced = Trace.enabled trace;
      fast_ok;
      a;
      plan;
      streams;
      place_period;
      place_seq;
      core_width =
        Array.init ncore (fun i ->
            (Ts_isa.Spmt_params.core_desc p i).Ts_isa.Spmt_params.issue_width);
      comm_tbl =
        Array.init (place_period * comm_stride) (fun idx ->
            Ts_isa.Placement.comm_cycles place ~dk:(idx mod comm_stride)
              ~dst:(idx / comm_stride));
      comm_stride;
      horizon;
      win;
      ring = 2 * win;
      max_stage = Array.fold_left max 0 k.K.stage;
      by_row;
      loads;
      stores;
      reg_off;
      reg_src;
      reg_dk;
      intra_off;
      intra_src;
      mem_nonempty;
      (* A store's lines can enter an L1 only through a coin-redirected
         load, and redirects only ever target the source of a
         memory-dependence edge: any other store's peer-L1 invalidates
         hit absent lines and are skipped under [fast_ok] (the L2 fill
         always happens — it drives L2 evictions loads do see). *)
      inval_needed;
      rl1 =
        (if check then
           Array.init ncore (fun _ -> ref_cache cfg.l1_size cfg.l1_assoc)
         else [||]);
      rl2 = (if check then [| ref_cache cfg.l2_size cfg.l2_assoc |] else [||]);
      rmdt = (if check then [| Ref.Mdt.create ~horizon:ncore |] else [||]);
      n_coin = (if fast_ok then mark_coins a plan g ~total else 0);
      analytic_mdt;
      store_pv;
      core_free = Array.make ncore 0;
      sync_stall = 0;
      spawn_stall = 0;
      squashes = 0;
      last_commit_end = 0;
      prev_spawn_base = -p.c_spawn (* thread 0 spawns at time 0 *);
      warm_end = 0;
      cur_start = 0;
      cur_end = 0;
      cur_spawn = 0;
      cur_squashed = false;
      cur_nstalls = 0;
      last_squash = -1;
      av_live = 0;
      av_peak = 0;
      av_u = min_int;
      prev_clean = false;
      clean_from = 0;
      engaged = false;
      sig_base = 0;
      delta = 0;
      engage_count = 0;
      extrap_count = 0;
      mismatch_count = 0;
    }
  in
  if s.traced then trace_start s place ~trip;
  s

(* ---- shared bookkeeping ---- *)

(* Is any coin iteration inside [lo, hi]? *)
let coin_in s lo hi =
  let ci = s.a.coin_iters and nc = s.n_coin in
  let x = ref 0 and b = ref nc in
  while !x < !b do
    let m = (!x + !b) lsr 1 in
    if Array.unsafe_get ci m < lo then x := m + 1 else b := m
  done;
  !x < nc && Array.unsafe_get ci !x <= hi

let coin_affects s j = coin_in s (j - s.max_stage) j

(* Under [fast_ok], a thread no coin affects reads and writes only its
   nodes' own stream addresses ([mark_coins] holds every iteration where
   a memory dependence fires). *)
let own_addrs s j = s.fast_ok && not (coin_affects s j)

(* A thread's stores must really sit in the MDT iff a coin-affected
   thread within [horizon] ahead could query them. *)
let mdt_relevant s t =
  s.n_coin > 0 && coin_in s (t - s.max_stage) (t + s.horizon - 1)

(* The analytic record of store [v] by thread [j]: +1 entry, minus the
   entry from [j - P_v] if it is still in the table (recorded, not yet
   retired; it cannot have been pruned earlier, and it is always stale
   now). *)
let av_record s j v =
  let t1 = j - s.store_pv.(v) in
  let present = t1 >= 0 && t1 >= s.av_u in
  if not present then begin
    s.av_live <- s.av_live + 1;
    if s.av_live > s.av_peak then s.av_peak <- s.av_live
  end

(* The analytic retire after thread [j]: entries below [j - horizon]
   leave. Store [v]'s live entries are exactly threads [max (j-P_v+1)
   (max av_u 0) .. j]. *)
let av_retire s j =
  let upto = j - s.horizon in
  let removed = ref 0 in
  for i = 0 to Array.length s.stores - 1 do
    let lo = max (j - s.store_pv.(s.stores.(i)) + 1) (max s.av_u 0) in
    removed := !removed + max 0 (upto - lo)
  done;
  s.av_live <- s.av_live - !removed;
  if upto > s.av_u then s.av_u <- upto

(* Node [v]'s finish time in the thread at history-ring [slot], whose
   times are those of slot [src] (see [arena]). *)
let[@inline] slot_finish a ~n ~src slot v =
  Array.unsafe_get a.h_finish ((src * n) + v) + Array.unsafe_get a.h_shift slot

let stall_add a idx cycles =
  let cur = a.stall_cnt.(idx) in
  if cur = 0 then begin
    a.stall_touched.(a.stall_ntouched) <- idx;
    a.stall_ntouched <- a.stall_ntouched + 1
  end;
  a.stall_cnt.(idx) <- cur + cycles

(* The first [count] RECV stalls of history slot [slot], charged to
   thread [j]. *)
let account_stalls s ~core ~j slot count =
  let stalls = s.a.h_stalls and at = 3 * s.n * slot in
  for i = 0 to count - 1 do
    let x = at + (3 * i) in
    let blame = stalls.(x) and cycles = stalls.(x + 1) in
    s.sync_stall <- s.sync_stall + cycles;
    if s.traced then
      Trace.instant s.trace ~pid:s.trace_pid ~tid:core
        ~ts:stalls.(x + 2) "sync-stall"
        ~args:
          ([ ("thread", J.Int j); ("cycles", J.Int cycles) ]
          @
          if blame >= 0 then
            [
              ("producer", J.Int (blame / s.n));
              ("consumer", J.Int (blame mod s.n));
            ]
          else []);
    if blame >= 0 then stall_add s.a blame cycles
  done

let stall_breakdown s =
  let a = s.a in
  let lst = ref [] in
  for i = a.stall_ntouched - 1 downto 0 do
    let idx = a.stall_touched.(i) in
    let c = a.stall_cnt.(idx) in
    if c > 0 then lst := ((idx / s.n, idx mod s.n), c) :: !lst
  done;
  List.sort (fun (_, x) (_, y) -> compare y x) !lst

let emit_exec_span s ~core ~j name ~ts0 ~ts1 =
  Trace.begin_span s.trace ~pid:s.trace_pid ~tid:core ~ts:ts0 name
    ~args:[ ("thread", J.Int j) ];
  Trace.end_span s.trace ~pid:s.trace_pid ~tid:core ~ts:ts1 name

(* ---- stage 1: spawn ----

   Thread [j] starts once its predecessor's spawn has reached it
   ([c_spawn] after that thread's start) and its core is free (the core's
   previous thread has committed). Spawn-stall cycles — the wait for the
   core — count from [warmup] on. *)
let spawn s j =
  let core = core_of s j in
  let spawn_ready = s.prev_spawn_base + s.p.c_spawn in
  let start = max spawn_ready s.core_free.(core) in
  let spawn_cycles = max 0 (s.core_free.(core) - spawn_ready) in
  s.cur_spawn <- spawn_cycles;
  if j >= s.warmup && spawn_cycles > 0 then
    s.spawn_stall <- s.spawn_stall + spawn_cycles;
  start

(* Finite issue width, re-derived from the issue plane independently of
   [execute]'s counters. *)
let check_issue_width s j ~base ~core ~width =
  let h_issue = s.a.h_issue in
  for x = 0 to s.n - 1 do
    let t = h_issue.(base + x) in
    let same = ref 0 in
    for y = 0 to s.n - 1 do
      if h_issue.(base + y) = t then incr same
    done;
    if !same > width then
      Chk.failf "Sim.run: thread %d issues %d instructions at cycle %d on \
                 core %d, whose issue width is %d"
        j !same t core width
  done

(* ---- stage 2: execute ----

   Thread [j] from [start] into its history-ring slot: issue
   plus SEND/RECV. [recv] false on re-execution (values present, no RECV
   blocks: the first attempt's stalls stay in the slot); a first
   attempt accounts its stalls from [warmup] on. [use_lats] takes the
   load latencies already in the slot's [h_lat] (the fast path replayed
   them); otherwise loads access the caches and the latency lands there.
   Leaves start, end and the stall count in the run's [cur_*] fields. *)
let execute s j ~start ~recv ~use_lats =
  let a = s.a and n = s.n and k = s.k and ring = s.ring in
  let jslot = j mod ring in
  let base = jslot * n in
  let h_src = a.h_src and h_issue = a.h_issue and h_finish = a.h_finish in
  let by_row = s.by_row and h_lat = a.h_lat and h_stalls = a.h_stalls in
  let reg_off = s.reg_off and reg_src = s.reg_src and reg_dk = s.reg_dk in
  let intra_off = s.intra_off and intra_src = s.intra_src in
  let comm_tbl = s.comm_tbl in
  s.cur_start <- start;
  (* Intra-thread dataflow reads default to 0 for not-yet-issued
     producers (matching a zero-initialised scratch thread), so the
     reused slot's finish plane must be wiped first. *)
  Array.fill h_finish base n 0;
  let end_exec = ref start in
  if recv then s.cur_nstalls <- 0;
  (* Schedule replay with blocking receives: instructions issue at their
     static kernel row plus the shift accumulated by earlier RECV stalls.
     A RECV on an empty queue (Voltron's queue model) blocks the in-order
     front end, so it pushes the remainder of the thread back — the
     semantics under which Definition 2's sync(x, y) is the per-thread
     serialisation that the Section 4.2 cost model assumes. Cache misses,
     in contrast, are absorbed out-of-order (lockup-free caches): they
     delay only their dataflow consumers, via the intra-dep fold. *)
  let shift = ref 0 in
  let core = core_of s j in
  let node_lat = a.node_lat and lat_base = core * n in
  let own = own_addrs s j in
  let width = Array.unsafe_get s.core_width core in
  (* Per-cycle issue counts for finite-width cores, indexed by [issue -
     start]: every issue is at or after its thread's start, since rows
     and shifts are non-negative. *)
  iw_scrub a;
  let comm_base = j mod s.place_period * s.comm_stride in
  for idx = 0 to n - 1 do
    let v = Array.unsafe_get by_row idx in
    let sched = start + Array.unsafe_get k.K.row v in
    let intra_ready = ref 0 in
    for i = Array.unsafe_get intra_off v to Array.unsafe_get intra_off (v + 1) - 1 do
      let f = Array.unsafe_get h_finish (base + Array.unsafe_get intra_src i) in
      if f > !intra_ready then intra_ready := f
    done;
    let inter_arrival = ref 0 and blame_src = ref (-1) in
    if recv then
      for i = Array.unsafe_get reg_off v to Array.unsafe_get reg_off (v + 1) - 1 do
        let src = Array.unsafe_get reg_src i in
        let dk = Array.unsafe_get reg_dk i in
        (* thread [j - dk]'s ring slot, [dk < horizon <= ring]; none for
           a live-in *)
        let slot = if jslot >= dk then jslot - dk else jslot - dk + ring in
        let from = if j < dk then -1 else Array.unsafe_get h_src slot in
        if from >= 0 then begin
          let arr =
            slot_finish a ~n ~src:from slot src
            + Array.unsafe_get comm_tbl (comm_base + dk)
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
      let at = (3 * base) + (3 * s.cur_nstalls) in
      Array.unsafe_set h_stalls at
        (if !blame_src >= 0 then (!blame_src * n) + v else -1);
      Array.unsafe_set h_stalls (at + 1) cycles;
      Array.unsafe_set h_stalls (at + 2) ready;
      s.cur_nstalls <- s.cur_nstalls + 1
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
      let l = Array.unsafe_get node_lat (lat_base + v) in
      if l >= 0 then l
      else if use_lats then Array.unsafe_get h_lat (base + v)
      else begin
        let lat = load_latency s ~core ~own j v in
        Array.unsafe_set h_lat (base + v) lat;
        lat
      end
    in
    Array.unsafe_set h_issue (base + v) issue;
    let fin = issue + latency in
    Array.unsafe_set h_finish (base + v) fin;
    if fin > !end_exec then end_exec := fin
  done;
  s.cur_end <- !end_exec;
  if s.check && width > 0 then check_issue_width s j ~base ~core ~width;
  if recv && j >= s.warmup then
    account_stalls s ~core ~j jslot s.cur_nstalls

(* ---- stage 3: verify ----

   The MDT check: did any load read a location a less speculative thread
   had not yet written? Returns the latest detection instant, or
   [Mdt.no_conflict]. A coin-free thread under [fast_ok] reads only its
   own stream regions, which no store ever writes (redirects only target
   store streams and the per-node regions are disjoint), so the probes
   are skipped — they could only answer [no_conflict]. *)
let mdt_probe s j =
  let viol = ref Mdt.no_conflict in
  if (not s.fast_ok) || coin_affects s j then
    for i = 0 to Array.length s.loads - 1 do
      let v = s.loads.(i) in
      if s.mem_nonempty.(v) then begin
        let t_detect =
          mdt_conflict s ~thread:j ~addr:(thread_addr s ~own:false v j)
            ~issue:s.a.h_issue.((j mod s.ring * s.n) + v)
        in
        if t_detect > !viol then viol := t_detect
      end
    done;
  !viol

(* Probe the MDT; on a premature load, squash the thread and re-execute it
   [c_inv] after the detection. *)
let verify s j =
  let core = core_of s j and measured = j >= s.warmup in
  let start = s.cur_start in
  let base = j mod s.ring * s.n in
  let t_detect = mdt_probe s j in
  let squashed = t_detect <> Mdt.no_conflict in
  if squashed then s.last_squash <- j;
  if not squashed then begin
    if s.traced && measured then
      emit_exec_span s ~core ~j "exec" ~ts0:start ~ts1:s.cur_end
  end
  else begin
    if measured then s.squashes <- s.squashes + 1;
    let restart = t_detect + s.p.c_inv in
    if s.check && restart < t_detect + s.p.c_inv then
      Chk.failf "Sim.run: thread %d restarts at %d, before detection %d + \
                 invalidation overhead %d"
        j restart t_detect s.p.c_inv;
    if s.traced && measured then begin
      (* The wasted first attempt, cut off where the MDT caught the
         premature load; the re-execution follows after [c_inv]. *)
      emit_exec_span s ~core ~j "exec (squashed)" ~ts0:start ~ts1:t_detect;
      Trace.instant s.trace ~pid:s.trace_pid ~tid:core ~ts:t_detect "squash"
        ~args:
          [
            ("thread", J.Int j);
            ("detected", J.Int t_detect);
            ("restart", J.Int restart);
          ]
    end;
    (* The first attempt's RECV stalls stay in the slot (the
       re-execution does not block): they were already accounted, and
       the detection window wants them. *)
    execute s j ~start:restart ~recv:false ~use_lats:false;
    if s.traced && measured then
      emit_exec_span s ~core ~j "re-exec" ~ts0:restart ~ts1:s.cur_end
  end;
  s.cur_squashed <- squashed;
  if s.check then
    for v = 0 to s.n - 1 do
      let issue = s.a.h_issue.(base + v) and fin = s.a.h_finish.(base + v) in
      if issue < s.cur_start then
        Chk.failf "Sim.run: thread %d issues node %d at %d, before its own \
                   start %d"
          j v issue s.cur_start;
      if fin < issue then
        Chk.failf "Sim.run: thread %d finishes node %d at %d, before its \
                   issue %d"
          j v fin issue
    done

(* ---- stage 4: commit ----

   Sequential head-thread commit, shared by exactly executed and
   extrapolated threads. [from] is the signature slot an extrapolated
   thread replays at [shift]; an exact thread passes -1, its times
   already in its history slot and the run's [cur_*] fields, and leaves
   its scalars in the slot's [h_meta] for the detection windows. The
   thread's stores enter the MDT (under the analytic occupancy model the
   table only takes the entries a coin-affected thread could query), drain
   into L2 and invalidate stale copies in the other cores' L1s. *)
let commit s j ~from ~shift =
  let a = s.a in
  let core = core_of s j in
  let exact = from < 0 in
  let slot = j mod s.ring in
  let src = if exact then slot else from in
  a.h_src.(slot) <- src;
  a.h_shift.(slot) <- shift;
  let start = if exact then s.cur_start else a.h_meta.((from * meta) + m_start) + shift in
  let commit_end =
    if not exact then a.h_meta.((from * meta) + m_commit) + shift
    else begin
      let commit_start = max s.cur_end s.last_commit_end in
      let commit_end = commit_start + s.p.c_commit in
      if s.check then begin
        if commit_start < s.last_commit_end then
          Chk.failf "Sim.run: thread %d starts committing at %d while its \
                     predecessor commits until %d (sequential commit order \
                     violated)"
            j commit_start s.last_commit_end;
        if commit_start < s.cur_end then
          Chk.failf "Sim.run: thread %d starts committing at %d before it \
                     finished executing at %d"
            j commit_start s.cur_end;
        if commit_end < commit_start + s.p.c_commit then
          Chk.failf "Sim.run: thread %d commit %d..%d is shorter than the \
                     commit overhead %d"
            j commit_start commit_end s.p.c_commit
      end;
      let m = slot * meta in
      a.h_meta.(m + m_start) <- s.cur_start;
      a.h_meta.(m + m_end) <- s.cur_end;
      a.h_meta.(m + m_commit) <- commit_end;
      a.h_meta.(m + m_spawn) <- s.cur_spawn;
      a.h_meta.(m + m_nstalls) <- s.cur_nstalls;
      commit_end
    end
  in
  let mdt_real = (not s.analytic_mdt) || mdt_relevant s j in
  let own = Array.length s.stores > 0 && own_addrs s j in
  for i = 0 to Array.length s.stores - 1 do
    let v = s.stores.(i) in
    if s.analytic_mdt then av_record s j v;
    let addr = thread_addr s ~own v j in
    if mdt_real then
      mdt_record s ~thread:j ~addr ~finish:(slot_finish a ~n:s.n ~src slot v);
    l2_fill s addr;
    if s.inval_needed.(v) then
      for c = 0 to s.p.ncore - 1 do
        if c <> core then l1_invalidate s c addr
      done
  done;
  s.last_commit_end <- commit_end;
  s.core_free.(core) <- commit_end;
  (* Successors respawn from the (possibly re-executed) thread's start. *)
  s.prev_spawn_base <- start;
  if j = s.warmup - 1 then begin
    s.warm_end <- commit_end;
    Array.iter Cache.reset_stats a.l1;
    Cache.reset_stats a.l2;
    Array.iter Ref.Cache.reset_stats s.rl1;
    Array.iter Ref.Cache.reset_stats s.rl2
  end;
  if s.traced && j >= s.warmup then begin
    Trace.begin_span s.trace ~pid:s.trace_pid ~tid:core
      ~ts:(commit_end - s.p.c_commit) "commit"
      ~args:[ ("thread", J.Int j) ];
    Trace.end_span s.trace ~pid:s.trace_pid ~tid:core ~ts:commit_end "commit";
    (* Sampled occupancy: MDT entries live after this thread's stores. *)
    if j land 31 = 0 then
      Trace.counter_sample s.trace ~pid:s.trace_pid ~ts:commit_end "occupancy"
        [ ("mdt", float_of_int (Mdt.live_entries a.mdt)) ]
  end;
  if j mod 64 = 63 then begin
    if s.analytic_mdt then av_retire s j;
    (* the analytic model keeps only the (tiny) coin-neighbourhood table *)
    if (not s.analytic_mdt) || s.n_coin > 0 then
      mdt_retire s ~upto:(j - s.horizon)
  end

(* One exactly simulated thread through the four stages. [lats] true
   means the fast path already replayed its load accesses into its
   slot's [h_lat]. *)
let exact_step s j ~lats =
  let start = spawn s j in
  execute s j ~start ~recv:true ~use_lats:lats;
  verify s j;
  commit s j ~from:(-1) ~shift:0;
  match s.observe with
  | Some f ->
      f
        {
          index = j;
          core = core_of s j;
          start = s.cur_start;
          end_exec = s.cur_end;
          commit_start = s.last_commit_end - s.p.c_commit;
          commit_end = s.last_commit_end;
          squashed = s.cur_squashed;
        }
  | None -> ()

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
   - the MDT bookkeeping keeps running on recorded times, so [mdt_peak]
     stays cycle-exact. *)

(* [p.(b + i) = p.(a + i) + d] for [i < len]. *)
let shifted p a b d len =
  let ok = ref true and i = ref 0 in
  while !ok && !i < len do
    ok := Array.unsafe_get p (b + !i) = Array.unsafe_get p (a + !i) + d;
    incr i
  done;
  !ok

(* The thread in slot [sb] is the one in slot [sa] shifted by [d]: the
   same spawn stall, and every time (start, end, commit, per-node issue
   and finish) [d] later. *)
let same_timing s sa sb d =
  let m = s.a.h_meta and ma = sa * meta and mb = sb * meta and n = s.n in
  m.(mb + m_start) = m.(ma + m_start) + d
  && m.(mb + m_end) = m.(ma + m_end) + d
  && m.(mb + m_commit) = m.(ma + m_commit) + d
  && m.(mb + m_spawn) = m.(ma + m_spawn)
  && shifted s.a.h_finish (sa * n) (sb * n) d n
  && shifted s.a.h_issue (sa * n) (sb * n) d n

(* Same stalls, [sb]'s instants shifted by [d]. *)
let stalls_eq s sa sb d =
  let m = s.a.h_meta and st = s.a.h_stalls in
  let count = m.((sa * meta) + m_nstalls) in
  count = m.((sb * meta) + m_nstalls)
  &&
  let xa = 3 * s.n * sa and xb = 3 * s.n * sb in
  let ok = ref true and i = ref 0 in
  while !ok && !i < count do
    let x = 3 * !i in
    ok :=
      st.(xa + x) = st.(xb + x)
      && st.(xa + x + 1) = st.(xb + x + 1)
      && st.(xb + x + 2) = st.(xa + x + 2) + d;
    incr i
  done;
  !ok

let lats_eq s sa sb =
  let lat = s.a.h_lat and ba = sa * s.n and bb = sb * s.n in
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length s.loads do
    let v = s.loads.(!i) in
    ok := lat.(ba + v) = lat.(bb + v);
    incr i
  done;
  !ok

(* The window ending before thread [next] ran in full since the last
   disengage, with no squash and no coin. *)
let window_clean s next =
  let first = next - s.win in
  first >= s.clean_from
  && s.last_squash < first
  && not (coin_in s (first - s.max_stage) (next - 1))

(* The ring's two windows, the previous one from slot [prev] and the
   current one from [cur], are equal at the shift [d]: load latencies
   first (where most failed comparisons differ), then times and stalls,
   up to the first difference. *)
let windows_match s ~prev ~cur d =
  let ok = ref (d > 0) and o = ref 0 in
  while !ok && !o < s.win do
    ok := lats_eq s (prev + !o) (cur + !o);
    incr o
  done;
  o := 0;
  while !ok && !o < s.win do
    let sa = prev + !o and sb = cur + !o in
    ok := same_timing s sa sb d && stalls_eq s sa sb d;
    incr o
  done;
  !ok

(* Ring slot [src] into signature slot [dst]. *)
let copy_slot s ~src ~dst =
  let a = s.a and n = s.n in
  for v = 0 to n - 1 do
    a.h_issue.((dst * n) + v) <- a.h_issue.((src * n) + v);
    a.h_finish.((dst * n) + v) <- a.h_finish.((src * n) + v);
    a.h_lat.((dst * n) + v) <- a.h_lat.((src * n) + v)
  done;
  for i = 0 to (3 * a.h_meta.((src * meta) + m_nstalls)) - 1 do
    a.h_stalls.((3 * n * dst) + i) <- a.h_stalls.((3 * n * src) + i)
  done;
  for f = 0 to meta - 1 do
    a.h_meta.((dst * meta) + f) <- a.h_meta.((src * meta) + f)
  done

(* Leave the engaged regime at thread [j], which just ran exactly. *)
let disengage s ~j =
  s.engaged <- false;
  s.prev_clean <- false;
  s.clean_from <- j

(* At a window boundary, before thread [next]: engage when the previous
   and current windows are clean and the current one repeats the previous
   one at a positive shift. The current window becomes the signature:
   both windows ran exactly, so no ring slot refers to the old one. *)
let try_engage s next =
  let cur_clean = window_clean s next in
  let cur = (next - s.win) mod s.ring in
  let prev = s.win - cur in
  let d = s.a.h_meta.((cur * meta) + m_start) - s.a.h_meta.((prev * meta) + m_start) in
  if s.prev_clean && cur_clean && windows_match s ~prev ~cur d then begin
    s.engaged <- true;
    s.sig_base <- next - s.win;
    s.delta <- d;
    for o = 0 to s.win - 1 do
      copy_slot s ~src:(cur + o) ~dst:(s.ring + o)
    done;
    s.engage_count <- s.engage_count + 1;
    s.prev_clean <- false
  end
  else s.prev_clean <- cur_clean

(* Replay an extrapolation candidate's loads against the real caches, in
   the same thread-then-row order exact execution would, leaving the
   latencies in its slot's [h_lat], and compare them with signature slot
   [from]'s. Always completes the full access sequence so a mismatching
   thread can continue exactly. *)
let replay_loads s j from =
  let core = core_of s j and lat = s.a.h_lat in
  let base = j mod s.ring * s.n and sbase = from * s.n in
  let diff = ref false in
  for i = 0 to Array.length s.loads - 1 do
    let v = s.loads.(i) in
    (* [engaged_step] replays only threads no coin affects *)
    let l = load_latency s ~core ~own:true j v in
    lat.(base + v) <- l;
    if l <> lat.(sbase + v) then diff := true
  done;
  !diff

(* One extrapolated thread: signature slot [from]'s spawn stall and RECV
   stalls, then the shared [commit] at [shift]. *)
let extrapolate s j from shift =
  if j >= s.warmup then begin
    let spawn = s.a.h_meta.((from * meta) + m_spawn) in
    if spawn > 0 then s.spawn_stall <- s.spawn_stall + spawn;
    account_stalls s ~core:(core_of s j) ~j from
      s.a.h_meta.((from * meta) + m_nstalls)
  end;
  commit s j ~from ~shift;
  s.extrap_count <- s.extrap_count + 1

(* Thread [j] while engaged on the signature window. *)
let engaged_step s j =
  let from = s.ring + (j mod s.win) (* its window offset's signature *) in
  let shift = (j - s.sig_base) / s.win * s.delta in
  if coin_affects s j then begin
    (* A coin-touched iteration can redirect a load and squash: run it
       exactly and stay engaged only if it lands on its prediction. *)
    exact_step s j ~lats:false;
    if s.cur_squashed || not (same_timing s from (j mod s.ring) shift) then
      disengage s ~j
  end
  else if replay_loads s j from then begin
    (* The cache pattern moved (stream wrap, conflict eviction): finish
       this thread exactly — its cache accesses are already done and
       exact — and drop back to detection. *)
    s.mismatch_count <- s.mismatch_count + 1;
    exact_step s j ~lats:true;
    disengage s ~j
  end
  else extrapolate s j from shift

let drive s ~trip =
  for j = 0 to s.warmup + trip - 1 do
    if s.engaged then engaged_step s j
    else begin
      exact_step s j ~lats:false;
      if s.fast_ok && (j + 1) mod s.win = 0 then try_engage s (j + 1)
    end
  done

(* ---- the run's result ---- *)

let finish s ~trip =
  let a = s.a in
  if s.check then begin
    if s.sync_stall < 0 then
      Chk.failf "Sim.run: negative sync stall total %d" s.sync_stall;
    if s.spawn_stall < 0 then
      Chk.failf "Sim.run: negative spawn stall total %d" s.spawn_stall;
    if s.last_commit_end < s.warm_end then
      Chk.failf "Sim.run: last commit %d precedes the warmup boundary %d"
        s.last_commit_end s.warm_end;
    check_cache_stats ~what:"L2" a.l2 s.rl2.(0);
    Array.iteri
      (fun c l1c ->
        check_cache_stats ~what:(Printf.sprintf "L1 (core %d)" c) l1c s.rl1.(c))
      a.l1
  end;
  let l1_hits, l1_misses =
    Array.fold_left
      (fun (h, m) c ->
        let h', m' = Cache.stats c in
        (h + h', m + m'))
      (0, 0) a.l1
  in
  let l2_hits, l2_misses = Cache.stats a.l2 in
  let mdt_peak = if s.analytic_mdt then s.av_peak else Mdt.peak_entries a.mdt in
  let pairs = K.send_recv_pairs_per_iter s.k * trip in
  (* Mirror run totals onto the default registry, in bulk, so the hot loop
     never touches a hashtable. *)
  Ts_obs.Metrics.incr ~by:trip m_threads;
  Ts_obs.Metrics.incr ~by:s.squashes m_squashes;
  Ts_obs.Metrics.incr ~by:s.sync_stall m_sync_stalls;
  Ts_obs.Metrics.incr ~by:s.spawn_stall m_spawn_stalls;
  Ts_obs.Metrics.max_gauge m_mdt_peak (float_of_int mdt_peak);
  Ts_obs.Metrics.incr ~by:s.engage_count m_fp_engaged;
  Ts_obs.Metrics.incr ~by:s.extrap_count m_fp_extrap;
  Ts_obs.Metrics.incr ~by:s.mismatch_count m_fp_mismatch;
  let exact = s.warmup + trip - s.extrap_count in
  Ts_obs.Metrics.incr ~by:exact m_exact_threads;
  Ts_obs.Metrics.incr ~by:(exact * s.n) m_exact_nodes;
  let cycles = s.last_commit_end - s.warm_end in
  if s.traced then
    Trace.instant s.trace ~pid:s.trace_pid ~ts:s.last_commit_end "sim.end"
      ~args:
        [
          ("cycles", J.Int cycles);
          ("squashes", J.Int s.squashes);
          ("sync_stall_cycles", J.Int s.sync_stall);
        ];
  let c_reg_com = s.p.c_reg_com in
  {
    cycles;
    committed = trip;
    squashes = s.squashes;
    misspec_rate = float_of_int s.squashes /. float_of_int trip;
    sync_stall_cycles = s.sync_stall;
    spawn_stall_cycles = s.spawn_stall;
    send_recv_pairs = pairs;
    send_recv_cycles = pairs * c_reg_com;
    communication_overhead = s.sync_stall + (pairs * c_reg_com);
    l1_hits;
    l1_misses;
    l2_hits;
    l2_misses;
    mdt_peak;
    stall_breakdown = stall_breakdown s;
  }

let run_internal ?seed ?plan ~sync_mem ~warmup ~check ?observe ~trace
    ~trace_pid ~fast_ok cfg k ~trip =
  reject_legacy_trace_env ();
  let a = arena_acquire () in
  Fun.protect ~finally:(fun () -> arena_release a) @@ fun () ->
  let s =
    create ?seed ?plan ~sync_mem ~warmup ~check ?observe ~trace ~trace_pid
      ~fast_ok cfg k ~trip a
  in
  drive s ~trip;
  finish s ~trip

module Stage = struct
  type t = run

  let create ?plan ?(sync_mem = false) ?(warmup = 0) ?(fast = false) cfg k ~trip =
    let fast_ok = fast_path_ok ~fast ~trace:Trace.null ~observed:false k.K.g in
    create ?plan ~sync_mem ~warmup ~check:false ~trace:Trace.null ~trace_pid:0
      ~fast_ok cfg k ~trip (arena_create ())

  let base s j = j mod s.ring * s.n
  let spawn = spawn
  let execute s j ~start = execute s j ~start ~recv:true ~use_lats:false
  let verify = verify
  let commit s j = commit s j ~from:(-1) ~shift:0
  let start s = s.cur_start
  let issue s j v = s.a.h_issue.(base s j + v)
  let finish s j v = s.a.h_finish.(base s j + v)
  let last_commit_end s = s.last_commit_end
  let addr s v j = thread_addr s ~own:(own_addrs s j) v j
  let spawn_stall_cycles s = s.spawn_stall
  let stall_breakdown = stall_breakdown
  let l1 s c = s.a.l1.(c)
  let l2 s = s.a.l2
  let coin_iters s = Array.sub s.a.coin_iters 0 s.n_coin
end

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
    fast_path_ok ~fast ~trace ~observed:(Option.is_some observe) k.K.g
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
