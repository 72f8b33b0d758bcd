(* Ts_persist (the on-disk result store) and the Cached layer over it:
   roundtrips, corruption tolerance, key versioning, stores left by older
   binaries, and the end-to-end guarantee that caching never
   changes results (cold = warm = uncached), with the simulator fast path
   agreeing with exact execution on fuzzed loops. *)

module P = Ts_persist
module Cached = Ts_harness.Cached

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let with_store f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tsms-test-persist-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      let rec rm p =
        if Sys.file_exists p then
          if Sys.is_directory p then begin
            Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
            Sys.rmdir p
          end
          else Sys.remove p
      in
      rm dir)
    (fun () -> f (P.open_store ~dir))

(* objects/<shard>/<key>.bin — the documented layout, relied on here to
   corrupt entries in place. *)
let object_path store key =
  Filename.concat
    (Filename.concat (Filename.concat (P.dir store) "objects") (String.sub key 0 2))
    (key ^ ".bin")

let test_roundtrip () =
  with_store (fun s ->
      let key = P.digest_hex "roundtrip" in
      check_bool "miss before store" true ((P.find s ~key : int option) = None);
      let v = ("payload", 42, [ 1.5; -3.0 ]) in
      P.store s ~key v;
      check_bool "hit after store" true (P.find s ~key = Some v);
      check_bool "other key still misses" true
        ((P.find s ~key:(P.digest_hex "other") : int option) = None))

let clobber path f =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (f s);
  close_out oc

let test_corruption_is_a_miss () =
  with_store (fun s ->
      let key = P.digest_hex "corrupt" in
      P.store s ~key [ 1; 2; 3 ];
      let path = object_path s key in
      (* Flip a payload byte: digest check fails, entry is dropped. *)
      clobber path (fun body ->
          let b = Bytes.of_string body in
          let i = Bytes.length b - 1 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
          Bytes.to_string b);
      check_bool "garbled entry misses" true
        ((P.find s ~key : int list option) = None);
      check_bool "garbled entry deleted" false (Sys.file_exists path);
      (* Truncation likewise. *)
      P.store s ~key [ 1; 2; 3 ];
      clobber path (fun body -> String.sub body 0 (String.length body / 2));
      check_bool "truncated entry misses" true
        ((P.find s ~key : int list option) = None);
      (* And the store still works after both. *)
      P.store s ~key [ 4 ];
      check_bool "recovers" true (P.find s ~key = Some [ 4 ]))

let test_version_in_key_invalidates () =
  (* Cached stamps code_version into every key; this is the mechanism. *)
  with_store (fun s ->
      let key_v n = P.digest_hex (Printf.sprintf "sim\x00%d\x00inputs" n) in
      P.store s ~key:(key_v Cached.code_version) "old result";
      check_bool "same version hits" true
        (P.find s ~key:(key_v Cached.code_version) = Some "old result");
      check_bool "bumped version misses" true
        ((P.find s ~key:(key_v (Cached.code_version + 1)) : string option) = None))

(* A store written by an older binary may hold a journals/ directory next
   to its entries: reopening it must ignore that and keep every entry
   warm. *)
let test_old_store_still_hits () =
  with_store (fun s ->
      let key = P.digest_hex "old-store" in
      P.store s ~key "entry";
      let jdir = Filename.concat (P.dir s) "journals" in
      Sys.mkdir jdir 0o755;
      let oc = open_out_bin (Filename.concat jdir "fig4.j") in
      output_string oc "tsj1 stray journal left by an older binary\n";
      close_out oc;
      let hits () =
        Ts_obs.Metrics.counter_value
          (Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.hits")
      in
      let h0 = hits () in
      let reopened = P.open_store ~dir:(P.dir s) in
      check_bool "entry still found" true (P.find reopened ~key = Some "entry");
      check_int "counted as a hit" 1 (hits () - h0))

(* --- the Cached layer: caching must never change results --- *)

let sim_setup () =
  let g = Ts_workload.Motivating.ddg () in
  let cfg = Ts_spmt.Config.default in
  let params = cfg.Ts_spmt.Config.params in
  let tms = (Ts_tms.Tms.schedule_sweep ~params g).Ts_tms.Tms.kernel in
  (g, cfg, params, tms)

(* Kernels carry closures (the machine's describe function), so compare
   their marshal-safe projection: (ii, issue times). *)
let k_plain (k : Ts_modsched.Kernel.t) = (k.ii, k.time)

let test_cached_cold_warm_uncached_equal () =
  let g, cfg, params, _ = sim_setup () in
  let saved = Cached.get_store () in
  Fun.protect
    ~finally:(fun () -> Cached.set_store saved)
    (fun () ->
      Cached.set_store None;
      let run () =
        let tms = Cached.tms_sweep ~params g in
        let sms = Cached.sms g in
        ( k_plain tms.Ts_tms.Tms.kernel,
          k_plain sms.Ts_sms.Sms.kernel,
          Cached.sim ~warmup:64 cfg tms.Ts_tms.Tms.kernel ~trip:256 )
      in
      let uncached = run () in
      with_store (fun s ->
          Cached.set_store (Some s);
          let cold = run () in
          let warm = run () in
          check_bool "cold = uncached" true (cold = uncached);
          check_bool "warm = uncached" true (warm = uncached)))

let test_cached_reconstruction_guard () =
  (* A stored schedule that no longer fits its loop (here: a kernel for a
     different DDG colliding on... nothing — we corrupt the entry payload
     to valid marshal of wrong shape) must be recomputed, not returned. *)
  let g, _cfg, params, _ = sim_setup () in
  let saved = Cached.get_store () in
  Fun.protect
    ~finally:(fun () -> Cached.set_store saved)
    (fun () ->
      with_store (fun s ->
          Cached.set_store (Some s);
          let r1 = Cached.tms_sweep ~params g in
          (* Overwrite every object with a marshalled value of the wrong
             type: find will either fail the digest, or reconstruction
             will reject it — both must fall back to recomputation. *)
          let objects = Filename.concat (P.dir s) "objects" in
          Array.iter
            (fun shard ->
              let sd = Filename.concat objects shard in
              Array.iter
                (fun f ->
                  let key = Filename.chop_suffix f ".bin" in
                  P.store s ~key (( "bogus", [| 3 |] ) : string * int array))
                (Sys.readdir sd))
            (Sys.readdir objects);
          let r2 = Cached.tms_sweep ~params g in
          check_bool "recomputed result identical" true
            (k_plain r1.Ts_tms.Tms.kernel = k_plain r2.Ts_tms.Tms.kernel
            && r1.Ts_tms.Tms.misspec = r2.Ts_tms.Tms.misspec)))

let test_fast_path_equals_exact_on_fuzz_seeds () =
  let cfg = Ts_spmt.Config.default in
  let params = cfg.Ts_spmt.Config.params in
  for seed = 0 to 4 do
    let g = Ts_fuzz.Fuzz.loop_for_seed seed in
    let k = (Ts_tms.Tms.schedule_sweep ~params g).Ts_tms.Tms.kernel in
    let plan = Ts_spmt.Address_plan.create g in
    let exact = Ts_spmt.Sim.run ~plan ~warmup:32 ~fast:false cfg k ~trip:200 in
    let fast = Ts_spmt.Sim.run ~plan ~warmup:32 ~fast:true cfg k ~trip:200 in
    check_bool (Printf.sprintf "seed %d: fast = exact" seed) true (exact = fast)
  done

(* --- multi-domain store safety ---

   Under the resident pool every worker shares one pid, so the tempfile
   name disambiguator must be atomic: pre-fix, two domains storing
   concurrently could write the same tmp file and rename a torn mix.
   Hammer both the distinct-key and the same-key paths and require zero
   degradations and intact entries. *)

let test_concurrent_store_distinct_keys () =
  with_store (fun s ->
      let degraded0 =
        Ts_obs.Metrics.counter_value
          (Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.degraded")
      in
      let n_dom = 4 and per = 50 in
      let doms =
        List.init n_dom (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to per - 1 do
                  P.store s ~key:(P.digest_hex (Printf.sprintf "cc-%d-%d" d i)) (d, i)
                done))
      in
      List.iter Domain.join doms;
      for d = 0 to n_dom - 1 do
        for i = 0 to per - 1 do
          check_bool
            (Printf.sprintf "entry %d/%d intact" d i)
            true
            (P.find s ~key:(P.digest_hex (Printf.sprintf "cc-%d-%d" d i)) = Some (d, i))
        done
      done;
      check_int "no degradations" degraded0
        (Ts_obs.Metrics.counter_value
           (Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.degraded")))

let test_concurrent_store_same_key () =
  with_store (fun s ->
      let degraded0 =
        Ts_obs.Metrics.counter_value
          (Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.degraded")
      in
      let key = P.digest_hex "contended" in
      let n_dom = 4 and per = 100 in
      let doms =
        List.init n_dom (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to per - 1 do
                  P.store s ~key (d, i)
                done))
      in
      List.iter Domain.join doms;
      (match (P.find s ~key : (int * int) option) with
      | Some (d, i) ->
          check_bool "winner is one of the stored values" true
            (d >= 0 && d < n_dom && i >= 0 && i < per)
      | None -> Alcotest.fail "contended entry lost");
      check_int "no degradations under same-key contention" degraded0
        (Ts_obs.Metrics.counter_value
           (Ts_obs.Metrics.counter Ts_obs.Metrics.default "persist.degraded")))

(* --- warmup default: harness, CLI and wire must agree --- *)

let test_sim_default_warmup_matches_cli () =
  let g, cfg, _params, k = sim_setup () in
  let saved = Cached.get_store () in
  Fun.protect
    ~finally:(fun () -> Cached.set_store saved)
    (fun () ->
      Cached.set_store None;
      check_int "shared default is the documented 512" 512
        Ts_harness.Defaults.warmup;
      (* [Cached.sim] with the argument omitted must measure exactly what
         an explicit [Defaults.warmup] run measures — the fig2 driver
         once published cold-cache numbers because the default was 0. *)
      let via_harness = Cached.sim cfg k ~trip:256 in
      let direct =
        Ts_spmt.Sim.run ~seed:g.Ts_ddg.Ddg.name ~sync_mem:false
          ~warmup:Ts_harness.Defaults.warmup ~fast:true cfg k ~trip:256
      in
      check_bool "harness default = explicit Defaults.warmup" true
        (via_harness = direct);
      (* The daemon's wire default for a request omitting "warmup" is the
         same shared constant. *)
      let j =
        Ts_obs.Json.Obj
          [
            ("id", Ts_obs.Json.Int 1);
            ("op", Ts_obs.Json.Str "simulate");
            ("ddg", Ts_obs.Json.Str "unparsed-at-this-layer");
          ]
      in
      match Ts_serve.Protocol.request_of_json j with
      | Ok { Ts_serve.Protocol.op = Ts_serve.Protocol.Simulate a; _ } ->
          check_int "wire default = Defaults.warmup" Ts_harness.Defaults.warmup
            a.Ts_serve.Protocol.warmup
      | Ok _ -> Alcotest.fail "simulate request parsed to a different op"
      | Error e -> Alcotest.failf "simulate request rejected: %s" e)

(* --- cached hits must never share mutable state --- *)

let test_cached_hits_share_no_mutable_state () =
  let g, _cfg, params, _ = sim_setup () in
  let saved = Cached.get_store () in
  Fun.protect
    ~finally:(fun () ->
      Cached.set_store saved;
      Cached.set_lru None)
    (fun () ->
      with_store (fun s ->
          Cached.set_store (Some s);
          Cached.set_lru (Some 32);
          let pristine = k_plain (Cached.tms_sweep ~params g).Ts_tms.Tms.kernel in
          (* 4 workers hammer the same cache entry and scribble over every
             kernel they get back: if either tier (LRU front, store)
             handed out a shared mutable array, a later fetch would see
             the scribbles. *)
          let doms =
            List.init 4 (fun d ->
                Domain.spawn (fun () ->
                    for i = 0 to 49 do
                      let k = (Cached.tms_sweep ~params g).Ts_tms.Tms.kernel in
                      if k_plain k <> pristine then
                        failwith
                          (Printf.sprintf
                             "domain %d iteration %d: cached hit returned \
                              scribbled state"
                             d i);
                      let scribble (a : int array) =
                        Array.fill a 0 (Array.length a) ((d * 1000) + i)
                      in
                      scribble k.Ts_modsched.Kernel.time;
                      scribble k.Ts_modsched.Kernel.row;
                      scribble k.Ts_modsched.Kernel.stage
                    done))
          in
          List.iter Domain.join doms;
          check_bool "entry still pristine after the hammer" true
            (k_plain (Cached.tms_sweep ~params g).Ts_tms.Tms.kernel = pristine)))

(* --- the in-memory LRU front --- *)

let test_lru_basics () =
  let l : int P.Lru.t = P.Lru.create ~capacity:3 () in
  check_int "capacity" 3 (P.Lru.capacity l);
  check_bool "miss on empty" true (P.Lru.find l "a" = None);
  P.Lru.put l "a" 1;
  P.Lru.put l "b" 2;
  P.Lru.put l "c" 3;
  check_bool "hit after put" true (P.Lru.find l "a" = Some 1);
  (* "a" was just refreshed, so "b" is now least recently used. *)
  P.Lru.put l "d" 4;
  check_bool "LRU entry evicted" true (P.Lru.find l "b" = None);
  check_bool "refreshed entry survives" true (P.Lru.find l "a" = Some 1);
  check_int "capacity bound holds" 3 (P.Lru.length l);
  P.Lru.put l "a" 10;
  check_bool "put replaces in place" true (P.Lru.find l "a" = Some 10);
  check_int "replace does not grow" 3 (P.Lru.length l);
  P.Lru.clear l;
  check_int "clear empties" 0 (P.Lru.length l);
  check_bool "capacity >= 1 enforced" true
    (match P.Lru.create ~capacity:0 () with
    | (_ : int P.Lru.t) -> false
    | exception Invalid_argument _ -> true)

(* Model-based property: random put/find traffic against a naive
   reference implementation, comparing contents and exact eviction
   order at every step. *)
let test_lru_matches_model () =
  let cap = 4 in
  let l : int P.Lru.t = P.Lru.create ~capacity:cap () in
  (* model: (key, value) list, MRU first *)
  let model = ref [] in
  let model_find k =
    match List.assoc_opt k !model with
    | None -> None
    | Some v ->
        model := (k, v) :: List.remove_assoc k !model;
        Some v
  in
  let model_put k v =
    model := (k, v) :: List.remove_assoc k !model;
    if List.length !model > cap then
      model := List.filteri (fun i _ -> i < cap) !model
  in
  let st = ref 0x2545F491 in
  let rand m = st := (!st * 1103515245 + 12345) land 0x3FFFFFFF; !st mod m in
  for step = 1 to 2000 do
    let k = Printf.sprintf "k%d" (rand 7) in
    if rand 2 = 0 then begin
      let v = rand 1000 in
      P.Lru.put l k v;
      model_put k v
    end
    else begin
      let got = P.Lru.find l k and expect = model_find k in
      if got <> expect then
        Alcotest.failf "step %d: find %s diverged from model" step k
    end;
    if P.Lru.keys_mru_first l <> List.map fst !model then
      Alcotest.failf "step %d: recency order diverged from model" step;
    if P.Lru.length l > cap then Alcotest.failf "step %d: capacity exceeded" step
  done

let test_lru_domain_safety () =
  let l : int P.Lru.t = P.Lru.create ~capacity:64 () in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 0 to 999 do
              let k = Printf.sprintf "k%d" ((d * 37 + i) mod 128) in
              if i land 1 = 0 then P.Lru.put l k i else ignore (P.Lru.find l k)
            done))
  in
  List.iter Domain.join doms;
  check_bool "capacity bound under contention" true (P.Lru.length l <= 64);
  (* The intrusive list is still consistent: walkable and put/find work. *)
  check_int "key walk matches length" (P.Lru.length l)
    (List.length (P.Lru.keys_mru_first l));
  P.Lru.put l "after" 1;
  check_bool "still usable" true (P.Lru.find l "after" = Some 1)

let suite =
  [
    Alcotest.test_case "store roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "concurrent stores, distinct keys" `Quick
      test_concurrent_store_distinct_keys;
    Alcotest.test_case "concurrent stores, same key" `Quick
      test_concurrent_store_same_key;
    Alcotest.test_case "lru basics + eviction order" `Quick test_lru_basics;
    Alcotest.test_case "lru matches reference model" `Quick test_lru_matches_model;
    Alcotest.test_case "lru domain safety" `Quick test_lru_domain_safety;
    Alcotest.test_case "corruption is a miss" `Quick test_corruption_is_a_miss;
    Alcotest.test_case "version bump invalidates" `Quick test_version_in_key_invalidates;
    Alcotest.test_case "old store with stray journals still hits" `Quick
      test_old_store_still_hits;
    Alcotest.test_case "cached: cold = warm = uncached" `Quick
      test_cached_cold_warm_uncached_equal;
    Alcotest.test_case "cached: bad entry recomputed" `Quick
      test_cached_reconstruction_guard;
    Alcotest.test_case "cached: default warmup = CLI/wire warmup" `Quick
      test_sim_default_warmup_matches_cli;
    Alcotest.test_case "cached: hits share no mutable state" `Quick
      test_cached_hits_share_no_mutable_state;
    Alcotest.test_case "sim: fast = exact on fuzz seeds" `Slow
      test_fast_path_equals_exact_on_fuzz_seeds;
  ]
