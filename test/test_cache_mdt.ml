(* Cache model and MDT. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_cache_cold_miss_then_hit () =
  let c = Ts_spmt.Cache.create ~size:1024 ~assoc:2 ~line:32 in
  check_bool "cold miss" false (Ts_spmt.Cache.access c 0x100);
  check_bool "hit" true (Ts_spmt.Cache.access c 0x100);
  check_bool "same line hits" true (Ts_spmt.Cache.access c 0x11f);
  check_bool "next line misses" false (Ts_spmt.Cache.access c 0x120)

let test_cache_lru_eviction () =
  (* 2-way set: 3 conflicting lines evict the least recently used *)
  let c = Ts_spmt.Cache.create ~size:256 ~assoc:2 ~line:32 in
  (* 4 sets; lines 0, 4, 8 map to set 0 *)
  ignore (Ts_spmt.Cache.access c 0);
  ignore (Ts_spmt.Cache.access c (4 * 32));
  ignore (Ts_spmt.Cache.access c (8 * 32));
  check_bool "line 0 evicted" false (Ts_spmt.Cache.probe c 0);
  check_bool "line 4*32 kept" true (Ts_spmt.Cache.probe c (4 * 32))

let test_cache_lru_touch () =
  let c = Ts_spmt.Cache.create ~size:256 ~assoc:2 ~line:32 in
  ignore (Ts_spmt.Cache.access c 0);
  ignore (Ts_spmt.Cache.access c (4 * 32));
  ignore (Ts_spmt.Cache.access c 0);
  (* reuse line 0 *)
  ignore (Ts_spmt.Cache.access c (8 * 32));
  check_bool "line 0 survives (recently used)" true (Ts_spmt.Cache.probe c 0);
  check_bool "line 4*32 evicted" false (Ts_spmt.Cache.probe c (4 * 32))

let test_cache_invalidate_and_fill () =
  let c = Ts_spmt.Cache.create ~size:1024 ~assoc:2 ~line:32 in
  Ts_spmt.Cache.fill c 0x200;
  check_bool "filled" true (Ts_spmt.Cache.probe c 0x200);
  Ts_spmt.Cache.invalidate c 0x200;
  check_bool "invalidated" false (Ts_spmt.Cache.probe c 0x200);
  (* invalidate of absent line is a no-op *)
  Ts_spmt.Cache.invalidate c 0x9999

let test_cache_stats () =
  let c = Ts_spmt.Cache.create ~size:1024 ~assoc:2 ~line:32 in
  ignore (Ts_spmt.Cache.access c 0);
  ignore (Ts_spmt.Cache.access c 0);
  ignore (Ts_spmt.Cache.access c 64);
  check_bool "stats" true (Ts_spmt.Cache.stats c = (1, 2));
  Ts_spmt.Cache.reset_stats c;
  check_bool "reset" true (Ts_spmt.Cache.stats c = (0, 0));
  check_bool "content survives reset" true (Ts_spmt.Cache.probe c 0)

let test_cache_bad_geometry () =
  check_bool "non power of two" true
    (match Ts_spmt.Cache.create ~size:1000 ~assoc:2 ~line:32 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "too small" true
    (match Ts_spmt.Cache.create ~size:32 ~assoc:2 ~line:32 with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The MRU-ordered sets against the naive reference: every answer of a
   script of operations on both must agree. [`A] accesses, [`P] probes,
   [`F] fills and [`I] invalidates a line. *)
let replay c r script =
  List.iteri
    (fun i (op, line) ->
      let addr = line * 32 in
      let what = Printf.sprintf "step %d (line %d)" i line in
      match op with
      | `A ->
          check_bool what
            (Ts_check.Ref_models.Cache.access r addr)
            (Ts_spmt.Cache.access c addr)
      | `P ->
          check_bool what
            (Ts_check.Ref_models.Cache.probe r addr)
            (Ts_spmt.Cache.probe c addr)
      | `F ->
          Ts_spmt.Cache.fill c addr;
          Ts_check.Ref_models.Cache.fill r addr
      | `I ->
          Ts_spmt.Cache.invalidate c addr;
          Ts_check.Ref_models.Cache.invalidate r addr)
    script;
  check_bool "stats" true (Ts_spmt.Cache.stats c = Ts_check.Ref_models.Cache.stats r)

let mirrored ~size ~assoc script =
  let c = Ts_spmt.Cache.create ~size ~assoc ~line:32 in
  replay c (Ts_check.Ref_models.Cache.create ~size ~assoc ~line:32) script;
  c

(* [reset] clears only the sets that took a block since the last one: a
   cache reset after random accesses, fills and invalidates must answer
   the next random script as a fresh reference model does. Every third
   script only fills, so a set that a fill alone dirtied must be cleared
   too. *)
let test_cache_reset_dirty_sets () =
  let rng = Ts_base.Rng.of_string "cache-reset" in
  List.iter
    (fun (size, assoc) ->
      let c = Ts_spmt.Cache.create ~size ~assoc ~line:32 in
      for round = 0 to 59 do
        let script =
          List.init 24 (fun _ ->
              let op =
                if round mod 3 = 2 then `F
                else Ts_base.Rng.pick rng [| `A; `A; `P; `F; `I |]
              in
              (op, Ts_base.Rng.int rng 24))
        in
        replay c (Ts_check.Ref_models.Cache.create ~size ~assoc ~line:32) script;
        Ts_spmt.Cache.reset c
      done)
    [ (256, 2); (128, 1); (512, 4) ]

(* An invalidated way keeps its age: a miss still evicts the least recent
   way, and the empty one goes only once it is the least recent. Lines 0,
   4, 8 and 12 share set 0 of a 2-way, 4-set cache. *)
let test_cache_invalid_way_ages () =
  let c =
    mirrored ~size:256 ~assoc:2
      [ (`A, 0); (`A, 4); (`I, 4); (`A, 8); (`P, 0); (`A, 12); (`P, 8) ]
  in
  check_bool "line 0, least recent, was evicted before the empty way" false
    (Ts_spmt.Cache.probe c 0);
  check_bool "the empty way went next, so line 8 stays" true
    (Ts_spmt.Cache.probe c (8 * 32));
  check_bool "line 12 resident" true (Ts_spmt.Cache.probe c (12 * 32))

(* Direct-mapped: every conflict evicts, and a fill or an invalidate
   acts on the one way. Lines 0 and 4 share set 0 of a 4-set cache. *)
let test_cache_direct_mapped () =
  let c =
    mirrored ~size:128 ~assoc:1
      [
        (`A, 0); (`A, 0); (`A, 4); (`P, 0); (`A, 1); (`F, 0); (`P, 4);
        (`A, 0); (`I, 0); (`A, 0); (`P, 1);
      ]
  in
  check_bool "stats" true (Ts_spmt.Cache.stats c = (2, 4));
  check_bool "line 0 resident" true (Ts_spmt.Cache.probe c 0)

(* A fill of a resident block makes it the most recent: the next miss
   evicts the other way. *)
let test_cache_fill_promotes () =
  let c = mirrored ~size:256 ~assoc:2 [ (`A, 0); (`A, 4); (`F, 0); (`A, 8) ] in
  check_bool "filled line 0 kept" true (Ts_spmt.Cache.probe c 0);
  check_bool "line 4 evicted" false (Ts_spmt.Cache.probe c (4 * 32));
  check_bool "a fill counts nothing" true (Ts_spmt.Cache.stats c = (0, 3))

let prop_cache_hit_after_access =
  QCheck.Test.make ~count:200 ~name:"immediately after access, probe hits"
    QCheck.(small_int)
    (fun addr ->
      let c = Ts_spmt.Cache.create ~size:4096 ~assoc:4 ~line:32 in
      ignore (Ts_spmt.Cache.access c addr);
      Ts_spmt.Cache.probe c addr)

(* --- MDT --- *)

let no_conflict = Ts_spmt.Mdt.no_conflict

let test_mdt_conflict_detection () =
  let m = Ts_spmt.Mdt.create ~horizon:4 in
  Ts_spmt.Mdt.record_store m ~thread:5 ~addr:0x40 ~finish:100;
  (* a load in thread 6 issued before the store completed: conflict at 100 *)
  check_bool "conflict" true
    (Ts_spmt.Mdt.conflict m ~thread:6 ~addr:0x40 ~issue:90 = 100);
  (* issued after completion: no conflict *)
  check_bool "ordered" true
    (Ts_spmt.Mdt.conflict m ~thread:6 ~addr:0x40 ~issue:101 = no_conflict);
  (* different address: no conflict *)
  check_bool "other addr" true
    (Ts_spmt.Mdt.conflict m ~thread:6 ~addr:0x44 ~issue:90 = no_conflict)

let test_mdt_horizon () =
  let m = Ts_spmt.Mdt.create ~horizon:4 in
  Ts_spmt.Mdt.record_store m ~thread:1 ~addr:0x40 ~finish:100;
  (* thread 6 is more than horizon away: thread 1 committed long ago *)
  check_bool "out of window" true
    (Ts_spmt.Mdt.conflict m ~thread:6 ~addr:0x40 ~issue:0 = no_conflict)

let test_mdt_less_speculative_only () =
  let m = Ts_spmt.Mdt.create ~horizon:4 in
  Ts_spmt.Mdt.record_store m ~thread:7 ~addr:0x40 ~finish:100;
  (* a store by a MORE speculative thread never squashes an older one *)
  check_bool "younger store ignored" true
    (Ts_spmt.Mdt.conflict m ~thread:6 ~addr:0x40 ~issue:0 = no_conflict)

let test_mdt_latest_finish () =
  let m = Ts_spmt.Mdt.create ~horizon:8 in
  Ts_spmt.Mdt.record_store m ~thread:1 ~addr:0x40 ~finish:50;
  Ts_spmt.Mdt.record_store m ~thread:2 ~addr:0x40 ~finish:80;
  check_bool "latest completion wins" true
    (Ts_spmt.Mdt.conflict m ~thread:4 ~addr:0x40 ~issue:10 = 80)

let test_mdt_retire () =
  let m = Ts_spmt.Mdt.create ~horizon:8 in
  Ts_spmt.Mdt.record_store m ~thread:1 ~addr:0x40 ~finish:50;
  Ts_spmt.Mdt.retire m ~upto:2;
  check_bool "retired" true
    (Ts_spmt.Mdt.conflict m ~thread:3 ~addr:0x40 ~issue:0 = no_conflict)

let test_mdt_peak () =
  let m = Ts_spmt.Mdt.create ~horizon:8 in
  Ts_spmt.Mdt.record_store m ~thread:1 ~addr:1 ~finish:1;
  Ts_spmt.Mdt.record_store m ~thread:1 ~addr:2 ~finish:1;
  check_int "peak" 2 (Ts_spmt.Mdt.peak_entries m)

let test_mdt_live_count_drops_horizon_expired () =
  (* Regression: [record_store] prunes entries that fell out of the
     horizon, and the live count must drop with them. It used to grow by
     one per store regardless of pruning, so long runs reported an MDT
     occupancy that drifted arbitrarily far above the real table size. *)
  let m = Ts_spmt.Mdt.create ~horizon:2 in
  Ts_spmt.Mdt.record_store m ~thread:1 ~addr:0x40 ~finish:10;
  Ts_spmt.Mdt.record_store m ~thread:2 ~addr:0x40 ~finish:20;
  check_int "both within horizon" 2 (Ts_spmt.Mdt.live_entries m);
  (* thread 5 is 4 past thread 1 and 3 past thread 2: both expire *)
  Ts_spmt.Mdt.record_store m ~thread:5 ~addr:0x40 ~finish:50;
  check_int "expired entries leave the live count" 1
    (Ts_spmt.Mdt.live_entries m);
  check_int "peak saw the crowded moment" 2 (Ts_spmt.Mdt.peak_entries m)

let test_mdt_out_of_order_rejected () =
  let m = Ts_spmt.Mdt.create ~horizon:4 in
  Ts_spmt.Mdt.record_store m ~thread:5 ~addr:0x40 ~finish:10;
  Ts_spmt.Mdt.record_store m ~thread:5 ~addr:0x48 ~finish:12;
  check_bool "an earlier thread after a later one is rejected" true
    (match Ts_spmt.Mdt.record_store m ~thread:4 ~addr:0x40 ~finish:9 with
    | () -> false
    | exception Invalid_argument _ -> true);
  Ts_spmt.Mdt.clear m ~horizon:4;
  Ts_spmt.Mdt.record_store m ~thread:0 ~addr:0x40 ~finish:1;
  check_int "clear restarts the order" 1 (Ts_spmt.Mdt.live_entries m)

(* --- differential properties against the Ts_check reference models --- *)

(* Deterministic op streams from Ts_base.Rng: each QCheck case is a seed. *)

(* The reference model's answer in [Mdt.conflict]'s terms. *)
let ref_conflict refm ~thread ~addr ~issue =
  match Ts_check.Ref_models.Mdt.conflicting_store refm ~thread ~addr ~issue with
  | None -> Ts_spmt.Mdt.no_conflict
  | Some f -> f

(* Two rounds on one table, [clear]ed in between (the arena reuse path),
   each against a fresh reference model: 96 addresses and 2,400 ops per
   round, so the pooled table's entry pool, address index and free list
   all grow and recycle. *)
let prop_mdt_matches_reference =
  QCheck.Test.make ~count:60 ~name:"MDT matches the naive reference model"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Ts_base.Rng.of_string (Printf.sprintf "test-mdt/%d" seed) in
      let real = Ts_spmt.Mdt.create ~horizon:1 in
      let ok = ref true in
      for _round = 1 to 2 do
        let horizon = 1 + Ts_base.Rng.int rng 8 in
        Ts_spmt.Mdt.clear real ~horizon;
        let refm = Ts_check.Ref_models.Mdt.create ~horizon in
        let thread = ref horizon in
        for step = 1 to 2400 do
          let addr = 8 * Ts_base.Rng.int rng 96 in
          (match Ts_base.Rng.int rng 16 with
          | 0 | 1 | 2 | 3 | 4 | 5 | 6 ->
              let finish = (10 * step) + Ts_base.Rng.int rng 30 in
              Ts_spmt.Mdt.record_store real ~thread:!thread ~addr ~finish;
              Ts_check.Ref_models.Mdt.record_store refm ~thread:!thread ~addr
                ~finish
          | 7 | 8 | 9 | 10 ->
              let issue = (10 * step) - Ts_base.Rng.int rng 100 in
              if
                Ts_spmt.Mdt.conflict real ~thread:!thread ~addr ~issue
                <> ref_conflict refm ~thread:!thread ~addr ~issue
              then ok := false
          | 11 ->
              let upto = !thread - horizon + Ts_base.Rng.int_in rng (-2) 2 in
              Ts_spmt.Mdt.retire real ~upto;
              Ts_check.Ref_models.Mdt.retire refm ~upto
          | _ -> thread := !thread + 1 + Ts_base.Rng.int rng 2);
          if
            Ts_spmt.Mdt.live_entries real
            <> Ts_check.Ref_models.Mdt.live_entries refm
            || Ts_spmt.Mdt.peak_entries real
               <> Ts_check.Ref_models.Mdt.peak_entries refm
          then ok := false
        done
      done;
      !ok)

(* The pooled table under a load no property case is guaranteed to
   reach: hundreds of live entries over a hundred addresses per thread
   (pool and index growth), retires that hand entries back to the free
   list, and a [clear] whose next run reuses everything. *)
let test_mdt_pool_growth_and_reuse () =
  let real = Ts_spmt.Mdt.create ~horizon:4 in
  let run ~horizon ~threads =
    Ts_spmt.Mdt.clear real ~horizon;
    let refm = Ts_check.Ref_models.Mdt.create ~horizon in
    for j = 0 to threads - 1 do
      for s = 0 to 99 do
        let addr = 8 * (((j * 37) + (s * 11)) mod 150) in
        let finish = (10 * j) + s in
        Ts_spmt.Mdt.record_store real ~thread:j ~addr ~finish;
        Ts_check.Ref_models.Mdt.record_store refm ~thread:j ~addr ~finish;
        if
          Ts_spmt.Mdt.conflict real ~thread:j ~addr ~issue:0
          <> ref_conflict refm ~thread:j ~addr ~issue:0
        then Alcotest.failf "thread %d addr %d: conflict query diverged" j addr
      done;
      if j mod 8 = 7 then begin
        Ts_spmt.Mdt.retire real ~upto:(j - horizon);
        Ts_check.Ref_models.Mdt.retire refm ~upto:(j - horizon)
      end;
      check_int
        (Printf.sprintf "live after thread %d" j)
        (Ts_check.Ref_models.Mdt.live_entries refm)
        (Ts_spmt.Mdt.live_entries real)
    done;
    check_int "peak" (Ts_check.Ref_models.Mdt.peak_entries refm)
      (Ts_spmt.Mdt.peak_entries real)
  in
  run ~horizon:4 ~threads:40;
  check_bool "the pool outgrew its initial 64 entries" true
    (Ts_spmt.Mdt.peak_entries real > 64);
  run ~horizon:2 ~threads:40

let prop_cache_matches_reference =
  QCheck.Test.make ~count:60
    ~name:"cache matches the reference model (incl. fill/invalidate)"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Ts_base.Rng.of_string (Printf.sprintf "test-cache/%d" seed) in
      let assoc = Ts_base.Rng.pick rng [| 1; 2; 4; 8 |] in
      let size = Ts_base.Rng.pick rng [| 256; 1024; 4096 |] and line = 32 in
      let real = Ts_spmt.Cache.create ~size ~assoc ~line in
      let refm = Ts_check.Ref_models.Cache.create ~size ~assoc ~line in
      let ok = ref true in
      for _ = 1 to 600 do
        let addr = line * Ts_base.Rng.int rng (3 * size / line) in
        (match Ts_base.Rng.int rng 8 with
        | 0 | 1 | 2 | 3 ->
            if
              Ts_spmt.Cache.access real addr
              <> Ts_check.Ref_models.Cache.access refm addr
            then ok := false
        | 4 | 5 ->
            if
              Ts_spmt.Cache.probe real addr
              <> Ts_check.Ref_models.Cache.probe refm addr
            then ok := false
        | 6 ->
            Ts_spmt.Cache.fill real addr;
            Ts_check.Ref_models.Cache.fill refm addr
        | _ ->
            Ts_spmt.Cache.invalidate real addr;
            Ts_check.Ref_models.Cache.invalidate refm addr);
        if Ts_spmt.Cache.stats real <> Ts_check.Ref_models.Cache.stats refm then
          ok := false
      done;
      !ok)

let suite =
  [
    Alcotest.test_case "cache: cold miss then hit" `Quick test_cache_cold_miss_then_hit;
    Alcotest.test_case "cache: LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache: LRU touch order" `Quick test_cache_lru_touch;
    Alcotest.test_case "cache: invalidate and fill" `Quick test_cache_invalidate_and_fill;
    Alcotest.test_case "cache: stats and reset" `Quick test_cache_stats;
    Alcotest.test_case "cache: bad geometry" `Quick test_cache_bad_geometry;
    Alcotest.test_case "cache: reset clears the sets taken" `Quick
      test_cache_reset_dirty_sets;
    Alcotest.test_case "cache: an invalidated way ages" `Quick
      test_cache_invalid_way_ages;
    Alcotest.test_case "cache: direct-mapped" `Quick test_cache_direct_mapped;
    Alcotest.test_case "cache: fill promotes a resident block" `Quick
      test_cache_fill_promotes;
    QCheck_alcotest.to_alcotest prop_cache_hit_after_access;
    Alcotest.test_case "mdt: conflict detection" `Quick test_mdt_conflict_detection;
    Alcotest.test_case "mdt: horizon" `Quick test_mdt_horizon;
    Alcotest.test_case "mdt: ordering direction" `Quick test_mdt_less_speculative_only;
    Alcotest.test_case "mdt: latest finish" `Quick test_mdt_latest_finish;
    Alcotest.test_case "mdt: retire" `Quick test_mdt_retire;
    Alcotest.test_case "mdt: peak entries" `Quick test_mdt_peak;
    Alcotest.test_case "mdt: live count drops expired entries" `Quick
      test_mdt_live_count_drops_horizon_expired;
    Alcotest.test_case "mdt: out-of-order record rejected" `Quick
      test_mdt_out_of_order_rejected;
    Alcotest.test_case "mdt: pool growth and reuse" `Quick
      test_mdt_pool_growth_and_reuse;
    QCheck_alcotest.to_alcotest prop_mdt_matches_reference;
    QCheck_alcotest.to_alcotest prop_cache_matches_reference;
  ]
