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

(* packs/<name>.pack — the documented layout, relied on here to corrupt
   records in place. *)
let packs root =
  let d = Filename.concat root "packs" in
  Sys.readdir d |> Array.to_list |> List.sort compare
  |> List.map (Filename.concat d)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* The records of a pack body, by the documented header
   "tsp2 <key> <digest> <len>\n": key, payload offset, payload length. *)
let records body =
  let rec go p acc =
    match String.index_from_opt body p '\n' with
    | None -> List.rev acc
    | Some nl -> (
        match String.split_on_char ' ' (String.sub body p (nl - p)) with
        | [ _; key; _; len ] ->
            let len = int_of_string len in
            go (nl + 1 + len) ((key, nl + 1, len) :: acc)
        | _ -> Alcotest.fail "unparseable pack header")
  in
  go 0 []

let pack_keys root =
  List.concat_map
    (fun pack -> List.map (fun (key, _, _) -> key) (records (read_file pack)))
    (packs root)

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
  let s = read_file path in
  let oc = open_out_bin path in
  output_string oc (f s);
  close_out oc

(* Each case writes [key] and then [after] into a pack of its own,
   corrupts that pack, and reads through fresh handles, which read the
   pack from disk: the entry misses, nothing raises, and storing the
   entry again supersedes the corrupt record. *)
let test_corruption_is_a_miss () =
  with_store (fun s ->
      let root = P.dir s in
      let case what ~after_hits corrupt =
        let key = P.digest_hex (what ^ "/key")
        and after = P.digest_hex (what ^ "/after") in
        let before = packs root in
        let w = P.open_store ~dir:root in
        P.store w ~key [ 1; 2; 3 ];
        P.store w ~key:after "after";
        let pack = List.find (fun p -> not (List.mem p before)) (packs root) in
        clobber pack corrupt;
        let r = P.open_store ~dir:root in
        check_bool (what ^ ": entry misses") true
          ((P.find r ~key : int list option) = None);
        check_bool (what ^ ": the record after it") after_hits
          (P.find r ~key:after = Some "after");
        P.store r ~key [ 4 ];
        check_bool (what ^ ": a re-store supersedes") true
          (P.find (P.open_store ~dir:root) ~key = Some [ 4 ])
      in
      (* A flipped payload byte fails the digest: that record is skipped
         and the scan goes on. *)
      case "flipped" ~after_hits:true (fun body ->
          let _, off, _ = List.hd (records body) in
          let b = Bytes.of_string body in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 1));
          Bytes.to_string b);
      (* Truncation mid-payload leaves an incomplete record, and nothing
         after it. *)
      case "truncated" ~after_hits:false (fun body ->
          let _, off, len = List.hd (records body) in
          String.sub body 0 (off + (len / 2)));
      (* A header that does not parse ends the scan of its pack. *)
      case "garbled" ~after_hits:false (fun body ->
          "tsp9" ^ String.sub body 4 (String.length body - 4)))

let test_version_in_key_invalidates () =
  (* Cached stamps code_version into every key; this is the mechanism. *)
  with_store (fun s ->
      let key_v n = P.digest_hex (Printf.sprintf "sim\x00%d\x00inputs" n) in
      P.store s ~key:(key_v Cached.code_version) "old result";
      check_bool "same version hits" true
        (P.find s ~key:(key_v Cached.code_version) = Some "old result");
      check_bool "bumped version misses" true
        ((P.find s ~key:(key_v (Cached.code_version + 1)) : string option) = None))

(* A store written by older binaries may hold a journals/ directory and
   an objects/ directory of one-file entries next to its packs:
   reopening it must ignore both and keep every entry warm. *)
let test_old_store_still_hits () =
  with_store (fun s ->
      let key = P.digest_hex "old-store" in
      P.store s ~key "entry";
      let stray dir file body =
        let d = Filename.concat (P.dir s) dir in
        Sys.mkdir d 0o755;
        let oc = open_out_bin (Filename.concat d file) in
        output_string oc body;
        close_out oc
      in
      stray "journals" "fig4.j" "tsj1 stray journal left by an older binary\n";
      stray "objects" (key ^ ".bin") "tsp1 one-file entry left by an older binary\n";
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
        let sms = fst (Cached.sms g) in
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

(* The swing analysis is built only on a miss. On a store that a cold
   pass filled, a second pass hits SMS and the TMS sweep, so the lazy
   analysis [Cached.sms] hands out is never forced: the warm
   path builds no order. The cold pass forces its own once, shared by
   SMS and TMS. *)
let test_cached_warm_builds_no_swing () =
  let g, _cfg, params, _ = sim_setup () in
  let saved = Cached.get_store () in
  Fun.protect
    ~finally:(fun () -> Cached.set_store saved)
    (fun () ->
      with_store (fun s ->
          Cached.set_store (Some s);
          let ((_, cold_swing) as cold_sms) = Cached.sms g in
          check_bool "a cold SMS builds the analysis" true (Lazy.is_val cold_swing);
          let cold = Ts_harness.Suite.schedule_loop ~sms:cold_sms ~params g in
          let count name = Ts_obs.Metrics.(counter_value (counter default name)) in
          let runs () = (count "sms.schedules", count "tms.schedules") in
          let before = runs () in
          let warm_sms = Cached.sms g in
          let warm = Ts_harness.Suite.schedule_loop ~sms:warm_sms ~params g in
          check_bool "warm: no analysis" false (Lazy.is_val (snd warm_sms));
          let unprobed = Ts_harness.Suite.schedule_loop ~params g in
          check_bool "warm: no SMS, no TMS" true (runs () = before);
          check_bool "warm = cold" true
            (List.for_all
               (fun (r : Ts_harness.Suite.loop_run) ->
                 k_plain r.sms.kernel = k_plain cold.sms.kernel
                 && Fixtures.tms_fields r.tms = Fixtures.tms_fields cold.tms)
               [ warm; unprobed ])))

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
          (* Overwrite every entry with a marshalled value of the wrong
             type: find will either fail the digest, or reconstruction
             will reject it — both must fall back to recomputation. *)
          List.iter
            (fun key -> P.store s ~key (("bogus", [| 3 |]) : string * int array))
            (pack_keys (P.dir s));
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

(* Two handles on one directory: [b] has indexed the store before [a]
   writes, and its miss refresh finds [a]'s records, both in a pack it
   has not seen and in the tail that pack grew afterwards. *)
let test_two_handles () =
  with_store (fun a ->
      let b = P.open_store ~dir:(P.dir a) in
      let k1 = P.digest_hex "two-1" and k2 = P.digest_hex "two-2" in
      check_bool "b misses before a stores" true
        ((P.find b ~key:k1 : string option) = None);
      P.store a ~key:k1 "one";
      check_bool "b finds a's new pack" true (P.find b ~key:k1 = Some "one");
      P.store a ~key:k2 "two";
      check_bool "b finds the pack's new tail" true (P.find b ~key:k2 = Some "two"))

(* The same, once the store has been still for longer than the second a
   listing is not trusted: a miss then re-lists only because a new pack
   changed the directory's mtime, or because a known pack grew. *)
let test_two_handles_settled () =
  with_store (fun a ->
      let b = P.open_store ~dir:(P.dir a) in
      P.store a ~key:(P.digest_hex "settled-0") "zero";
      let k1 = P.digest_hex "settled-1" and k2 = P.digest_hex "settled-2" in
      check_bool "b misses before a stores" true
        ((P.find b ~key:k1 : string option) = None);
      Unix.sleepf 1.1;
      check_bool "b misses on a settled store" true
        ((P.find b ~key:k1 : string option) = None);
      P.store a ~key:k1 "one";
      check_bool "b finds a's grown pack" true (P.find b ~key:k1 = Some "one");
      let c = P.open_store ~dir:(P.dir a) in
      Unix.sleepf 1.1;
      check_bool "b misses again" true ((P.find b ~key:k2 : string option) = None);
      P.store c ~key:k2 "two";
      check_bool "b finds c's new pack" true (P.find b ~key:k2 = Some "two"))

(* 4 domains store and find on one handle: each finds its own entry right
   after storing it, and a neighbour's entry either absent or whole. *)
let test_concurrent_store_and_find () =
  with_store (fun s ->
      let n_dom = 4 and per = 50 in
      let key d i = P.digest_hex (Printf.sprintf "sf-%d-%d" d i) in
      let doms =
        List.init n_dom (fun d ->
            Domain.spawn (fun () ->
                let bad = ref 0 in
                for i = 0 to per - 1 do
                  P.store s ~key:(key d i) (d, i);
                  if P.find s ~key:(key d i) <> Some (d, i) then incr bad;
                  let d' = (d + 1) mod n_dom in
                  match P.find s ~key:(key d' i) with
                  | None -> ()
                  | Some v -> if v <> (d', i) then incr bad
                done;
                !bad))
      in
      check_int "every find saw its own entry or a whole one" 0
        (List.fold_left (fun acc d -> acc + Domain.join d) 0 doms);
      let fresh = P.open_store ~dir:(P.dir s) in
      for d = 0 to n_dom - 1 do
        for i = 0 to per - 1 do
          if P.find fresh ~key:(key d i) <> Some (d, i) then
            Alcotest.failf "entry %d/%d missing from a fresh handle" d i
        done
      done)

(* A loop SMS rejects is stored as a rejection: the cold and the warm
   call both raise [No_schedule], and the warm one runs no SMS. The
   first draw of sixtrack's loop 32 is one the suite generator redraws. *)
let test_cached_sms_rejection () =
  let rejected =
    let first = ref None in
    let probe g =
      if Option.is_none !first then first := Some g;
      Ts_sms.Sms.schedule g
    in
    let module Spec = Ts_workload.Spec_suite in
    ignore (Spec.loop ~probe (Spec.find "sixtrack") 32);
    Option.get !first
  in
  (* A rejection counts its II attempts, not a schedule. *)
  let attempts () =
    Ts_obs.Metrics.counter_value
      (Ts_obs.Metrics.counter Ts_obs.Metrics.default "sms.attempts")
  in
  let rejects () =
    match Cached.sms rejected with
    | _ -> false
    | exception Ts_sms.Sms.No_schedule _ -> true
  in
  let saved = Cached.get_store () in
  Fun.protect
    ~finally:(fun () -> Cached.set_store saved)
    (fun () ->
      with_store (fun s ->
          Cached.set_store (Some s);
          let n0 = attempts () in
          check_bool "cold call rejects" true (rejects ());
          let n1 = attempts () in
          check_bool "cold call runs SMS" true (n1 > n0);
          Cached.set_store (Some (P.open_store ~dir:(P.dir s)));
          check_bool "warm call rejects" true (rejects ());
          check_int "warm call runs no SMS" n1 (attempts ())))

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
    ~finally:(fun () -> Cached.set_store saved)
    (fun () ->
      with_store (fun s ->
          Cached.set_store (Some s);
          let pristine = k_plain (Cached.tms_sweep ~params g).Ts_tms.Tms.kernel in
          (* 4 workers hammer the same cache entry and scribble over every
             kernel they get back: if a store hit handed out a shared
             mutable array, a later fetch would see the scribbles. *)
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

let suite =
  [
    Alcotest.test_case "store roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "concurrent stores, distinct keys" `Quick
      test_concurrent_store_distinct_keys;
    Alcotest.test_case "concurrent stores, same key" `Quick
      test_concurrent_store_same_key;
    Alcotest.test_case "concurrent domains store and find" `Quick
      test_concurrent_store_and_find;
    Alcotest.test_case "two handles see each other's stores" `Quick test_two_handles;
    Alcotest.test_case "two handles see each other's stores, settled" `Slow
      test_two_handles_settled;
    Alcotest.test_case "corruption is a miss" `Quick test_corruption_is_a_miss;
    Alcotest.test_case "version bump invalidates" `Quick test_version_in_key_invalidates;
    Alcotest.test_case "old store with stray journals still hits" `Quick
      test_old_store_still_hits;
    Alcotest.test_case "cached: cold = warm = uncached" `Quick
      test_cached_cold_warm_uncached_equal;
    Alcotest.test_case "cached: warm run builds no swing analysis" `Quick
      test_cached_warm_builds_no_swing;
    Alcotest.test_case "cached: bad entry recomputed" `Quick
      test_cached_reconstruction_guard;
    Alcotest.test_case "cached: SMS rejections are stored" `Quick
      test_cached_sms_rejection;
    Alcotest.test_case "cached: default warmup = CLI/wire warmup" `Quick
      test_sim_default_warmup_matches_cli;
    Alcotest.test_case "cached: hits share no mutable state" `Quick
      test_cached_hits_share_no_mutable_state;
    Alcotest.test_case "sim: fast = exact on fuzz seeds" `Slow
      test_fast_path_equals_exact_on_fuzz_seeds;
  ]
