(* ts_serve: the wire protocol (framing roundtrips, torn reads, bounded
   rejection of oversized frames, malformed JSON answered structurally)
   and the daemon end to end, in-process over a unix socket: schedule
   responses identical to a direct run, simulate stats with a pinned
   member list and a direct run's cycles, repeats served as one store
   hit, shed-load under flood, and graceful shutdown. *)

module Pr = Ts_serve.Protocol
module Server = Ts_serve.Server
module Client = Ts_serve.Client
module J = Ts_obs.Json
module Cached = Ts_harness.Cached

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let cval name =
  Ts_obs.Metrics.counter_value
    (Ts_obs.Metrics.counter Ts_obs.Metrics.default name)

let has_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let dotprod_ddg =
  "loop dotprod\n\
   machine spmt\n\
   node lda   load\n\
   node ldb   load\n\
   node mul   fmul\n\
   node acc   fadd\n\
   node adr1  ialu\n\
   node adr2  ialu\n\
   node st    store\n\
   edge adr1 lda reg 0\n\
   edge adr2 ldb reg 0\n\
   edge lda mul reg 0\n\
   edge ldb mul reg 0\n\
   edge mul acc reg 0\n\
   edge acc acc reg 1\n\
   edge acc st reg 0\n\
   edge adr1 adr1 reg 1\n\
   edge adr2 adr2 reg 1\n\
   edge st lda mem 1 0.01\n"

(* ---- protocol framing -------------------------------------------------- *)

let test_frame_roundtrip () =
  let d = Pr.decoder () in
  Pr.feed d (Pr.encode_frame "hello");
  check_bool "one frame" true (Pr.next d = Some "hello");
  check_bool "then empty" true (Pr.next d = None);
  Pr.feed d (Pr.encode_frame "");
  check_bool "empty payload is a frame" true (Pr.next d = Some "");
  check_int "decoder drained" 0 (Pr.buffered d)

let test_torn_reads () =
  (* Byte-at-a-time delivery: no frame until the last byte arrives. *)
  let payload = "{\"id\":1,\"op\":\"ping\"}" in
  let wire = Pr.encode_frame payload in
  let d = Pr.decoder () in
  String.iteri
    (fun i ch ->
      Pr.feed d (String.make 1 ch);
      if i < String.length wire - 1 then
        check_bool
          (Printf.sprintf "no frame after %d/%d bytes" (i + 1) (String.length wire))
          true (Pr.next d = None))
    wire;
  check_bool "frame complete on final byte" true (Pr.next d = Some payload)

let test_many_frames_one_chunk () =
  (* Several frames plus a torn tail in a single feed. *)
  let f1 = Pr.encode_frame "one" and f2 = Pr.encode_frame "two" in
  let f3 = Pr.encode_frame "three" in
  let head = String.sub f3 0 5 in
  let tail = String.sub f3 5 (String.length f3 - 5) in
  let d = Pr.decoder () in
  Pr.feed d (f1 ^ f2 ^ head);
  check_bool "first" true (Pr.next d = Some "one");
  check_bool "second" true (Pr.next d = Some "two");
  check_bool "third not yet" true (Pr.next d = None);
  Pr.feed d tail;
  check_bool "third after tail" true (Pr.next d = Some "three")

let test_oversized_prefix_bounded () =
  let d = Pr.decoder ~max_frame:1024 () in
  (* A header announcing 256 MiB: must be rejected from the 4 header
     bytes alone, before any payload-sized buffer exists. *)
  let announced = 256 * 1024 * 1024 in
  let hdr = Bytes.create 4 in
  Bytes.set_uint8 hdr 0 ((announced lsr 24) land 0xff);
  Bytes.set_uint8 hdr 1 ((announced lsr 16) land 0xff);
  Bytes.set_uint8 hdr 2 ((announced lsr 8) land 0xff);
  Bytes.set_uint8 hdr 3 (announced land 0xff);
  Pr.feed d (Bytes.to_string hdr);
  (match Pr.next d with
  | exception Pr.Frame_too_large n -> check_int "announced size reported" announced n
  | _ -> Alcotest.fail "oversized prefix accepted");
  check_bool "allocation bounded (only the header is held)" true (Pr.buffered d < 64);
  (* Sticky: the stream is unrecoverable, later calls keep raising. *)
  Pr.feed d "garbage";
  (match Pr.next d with
  | exception Pr.Frame_too_large _ -> ()
  | _ -> Alcotest.fail "poisoned decoder yielded a frame");
  check_bool "encode_frame refuses the same size" true
    (match Pr.encode_frame (String.make 1 'x') with
    | _ -> true (* small payloads fine; the limit check is on length *)
    | exception Invalid_argument _ -> false)

let test_request_json_roundtrip () =
  let req =
    {
      Pr.id = 42;
      op =
        Pr.Schedule
          { Pr.ddg = dotprod_ddg; cores = (8, [||]);
            placement = Ts_isa.Placement.Round_robin; p_max = Some 0.05;
            unroll = 2 };
      max_retries = Some 1;
      deadline_ms = Some 500;
    }
  in
  match Pr.request_of_json (Pr.request_to_json req) with
  | Ok r -> check_bool "roundtrip preserves the request" true (r = req)
  | Error e -> Alcotest.failf "roundtrip failed: %s" e

let test_request_json_hetero () =
  (* A heterogeneous machine + explicit placement survive the wire
     ("cores" goes out as the mix string, "placement" as the policy
     name), and out-of-range or malformed machines are rejected at
     decode time — the trust boundary, not the simulator. *)
  let mix =
    match Ts_isa.Spmt_params.mix_of_string "2fast+2slow" with
    | Ok m -> m
    | Error e -> Alcotest.failf "mix rejected: %s" e
  in
  let req =
    {
      Pr.id = 7;
      op =
        Pr.Simulate
          { Pr.s_ddg = dotprod_ddg; s_cores = mix;
            s_placement = Ts_isa.Placement.Locality; trip = 300;
            warmup = 64 };
      max_retries = None;
      deadline_ms = None;
    }
  in
  (match Pr.request_of_json (Pr.request_to_json req) with
  | Ok r -> check_bool "hetero roundtrip" true (r = req)
  | Error e -> Alcotest.failf "hetero roundtrip failed: %s" e);
  let decode members =
    Pr.request_of_json
      (J.Obj
         ([ ("id", J.Int 1); ("op", J.Str "simulate");
            ("ddg", J.Str dotprod_ddg) ]
         @ members))
  in
  (match decode [ ("cores", J.Str "2fast+2slow") ] with
  | Ok { Pr.op = Pr.Simulate a; _ } ->
      check_bool "mix string accepted" true (a.Pr.s_cores = mix)
  | Ok _ -> Alcotest.fail "parsed to a different op"
  | Error e -> Alcotest.failf "mix string rejected: %s" e);
  List.iter
    (fun (what, members) ->
      match decode members with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" what)
    [
      ("cores = 0", [ ("cores", J.Int 0) ]);
      ("cores = 65", [ ("cores", J.Int 65) ]);
      ("cores = \"banana\"", [ ("cores", J.Str "banana") ]);
      ("placement = \"bogus\"", [ ("placement", J.Str "bogus") ]);
    ]

(* ---- in-process daemon ------------------------------------------------- *)

let fresh_dir () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "tsms-test-serve-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

let with_server ?(max_inflight = 2) ?(queue_depth = 8) ?(store = false) f =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "s.sock" in
  if store then
    Cached.set_store (Some (Ts_persist.open_store ~dir:(Filename.concat dir "cache")));
  let cfg =
    {
      (Server.default_config (Server.Unix_sock sock)) with
      Server.max_inflight;
      queue_depth;
      drain_timeout_s = 30.0;
    }
  in
  let t = Server.create cfg in
  let d = Domain.spawn (fun () -> Server.run t) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      Domain.join d;
      Cached.set_store None;
      rm dir)
    (fun () -> f (Server.bound_addr t))

let sched_req ?(id = 1) ?p_max () =
  {
    Pr.id;
    op =
      Pr.Schedule
        { Pr.ddg = dotprod_ddg; cores = (4, [||]);
          placement = Ts_isa.Placement.Round_robin; p_max; unroll = 1 };
    max_retries = None;
    deadline_ms = None;
  }

let expect_ok what = function
  | Ok resp when Pr.response_ok resp -> resp
  | Ok resp ->
      Alcotest.failf "%s: server error %s" what (J.to_string resp)
  | Error msg -> Alcotest.failf "%s: transport error %s" what msg

let test_e2e_schedule_matches_direct () =
  with_server @@ fun addr ->
  let resp = expect_ok "schedule" (Client.round_trip addr (sched_req ())) in
  let g = Ts_ddg.Parse.of_string dotprod_ddg in
  let params = Ts_isa.Spmt_params.default in
  let direct = Ts_tms.Tms.schedule_sweep ~params g in
  let kj = Option.get (J.member "kernel" resp) in
  check_int "same II" direct.Ts_tms.Tms.kernel.Ts_modsched.Kernel.ii
    (Option.get (Option.bind (J.member "ii" kj) J.to_int));
  let time =
    match J.member "time" kj with
    | Some (J.List xs) -> List.map (fun x -> Option.get (J.to_int x)) xs
    | _ -> Alcotest.fail "no kernel.time"
  in
  check_bool "same row assignment" true
    (time = Array.to_list direct.Ts_tms.Tms.kernel.Ts_modsched.Kernel.time);
  let sj = Option.get (J.member "search" resp) in
  check_int "same attempts" direct.Ts_tms.Tms.attempts
    (Option.get (Option.bind (J.member "attempts" sj) J.to_int));
  (* The reconstructed kernel revalidates against the same DDG. *)
  let k =
    Ts_modsched.Kernel.of_times g
      ~ii:(Option.get (Option.bind (J.member "ii" kj) J.to_int))
      (Array.of_list time)
  in
  check_int "reconstructed kernel agrees" direct.Ts_tms.Tms.kernel.Ts_modsched.Kernel.ii
    k.Ts_modsched.Kernel.ii

(* A simulate response's [stats] carries exactly these members, and its
   cycles are what a direct run of the same kernel and trip counts. *)
let test_e2e_simulate_stats () =
  with_server @@ fun addr ->
  let trip = 300 and warmup = 64 in
  let req =
    {
      Pr.id = 1;
      op =
        Pr.Simulate
          { Pr.s_ddg = dotprod_ddg; s_cores = (4, [||]);
            s_placement = Ts_isa.Placement.Round_robin; trip; warmup };
      max_retries = None;
      deadline_ms = None;
    }
  in
  let resp = expect_ok "simulate" (Client.round_trip addr req) in
  let stats =
    match J.member "stats" resp with
    | Some (J.Obj members) -> members
    | _ -> Alcotest.fail "no stats object"
  in
  Alcotest.(check (list string))
    "stats members"
    [
      "cycles"; "cycles_per_iter"; "committed"; "squashes"; "misspec_rate";
      "sync_stall_cycles"; "spawn_stall_cycles"; "send_recv_pairs"; "mdt_peak";
    ]
    (List.map fst stats);
  let g = Ts_ddg.Parse.of_string dotprod_ddg in
  let k = (Ts_tms.Tms.schedule_sweep ~params:Ts_isa.Spmt_params.default g)
            .Ts_tms.Tms.kernel in
  let direct = Ts_spmt.Sim.run ~warmup Ts_spmt.Config.default k ~trip in
  check_int "cycles = Sim.run's" direct.Ts_spmt.Sim.cycles
    (Option.get (Option.bind (List.assoc_opt "cycles" stats) J.to_int))

let test_e2e_repeat_served_from_store () =
  with_server ~store:true @@ fun addr ->
  let r1 = expect_ok "first" (Client.round_trip addr (sched_req ())) in
  let hits0 = cval "persist.hits"
  and miss0 = cval "persist.misses"
  and stores0 = cval "persist.stores" in
  let r2 = expect_ok "second" (Client.round_trip addr (sched_req ())) in
  check_bool "responses identical" true (J.to_string r1 = J.to_string r2);
  check_int "exactly one store hit" (hits0 + 1) (cval "persist.hits");
  check_int "no store miss on the repeat" miss0 (cval "persist.misses");
  check_int "no store write on the repeat" stores0 (cval "persist.stores")

let test_e2e_malformed_json_structured_error () =
  with_server @@ fun addr ->
  let path = match addr with Server.Unix_sock p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  Pr.write_frame fd "{this is not json";
  let resp =
    match Pr.read_frame fd with
    | Some payload -> Result.get_ok (J.parse payload)
    | None -> Alcotest.fail "connection died on malformed JSON"
  in
  check_bool "structured error" true (not (Pr.response_ok resp));
  (match Pr.response_error resp with
  | Some ("parse_error", _) -> ()
  | other ->
      Alcotest.failf "expected parse_error, got %s"
        (match other with Some (c, _) -> c | None -> "no error object"));
  (* Framing is still in sync: the connection keeps working. *)
  Pr.write_frame fd (J.to_string (Pr.request_to_json
    { Pr.id = 9; op = Pr.Ping; max_retries = None; deadline_ms = None }));
  (match Pr.read_frame fd with
  | Some payload ->
      let r = Result.get_ok (J.parse payload) in
      check_bool "ping still answered" true (Pr.response_ok r);
      check_bool "with its id" true (Pr.response_id r = Some 9)
  | None -> Alcotest.fail "connection dead after structured error")

let test_e2e_oversized_frame_answered_then_closed () =
  with_server @@ fun addr ->
  let path = match addr with Server.Unix_sock p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  let announced = 512 * 1024 * 1024 in
  let hdr = Bytes.create 4 in
  Bytes.set_uint8 hdr 0 ((announced lsr 24) land 0xff);
  Bytes.set_uint8 hdr 1 ((announced lsr 16) land 0xff);
  Bytes.set_uint8 hdr 2 ((announced lsr 8) land 0xff);
  Bytes.set_uint8 hdr 3 (announced land 0xff);
  ignore (Unix.write fd hdr 0 4);
  (match Pr.read_frame fd with
  | Some payload ->
      let r = Result.get_ok (J.parse payload) in
      (match Pr.response_error r with
      | Some ("parse_error", msg) ->
          check_bool "message names the limit" true (has_sub ~sub:"exceeds" msg)
      | _ -> Alcotest.fail "expected a parse_error response")
  | None -> Alcotest.fail "no error response before close");
  (* ... and then the stream closes (EOF), because framing is gone. *)
  check_bool "connection closed after oversized frame" true
    (match Pr.read_frame fd with
    | None -> true
    | Some _ -> false
    | exception End_of_file -> true)

let test_e2e_flood_sheds_never_crashes () =
  with_server ~max_inflight:1 ~queue_depth:0 @@ fun addr ->
  (* Hold every dispatched request inflight long enough for the rest of
     the pipelined flood to arrive — without this the compute path is
     fast enough (warm caches, arena simulator) to drain requests as
     quickly as the client writes them and nothing overflows. *)
  (match Ts_resil.Fault.parse "serve.request@*:slow300" with
  | Ok plan -> Ts_resil.Fault.arm plan
  | Error e -> Alcotest.failf "fault plan: %s" e);
  Fun.protect ~finally:Ts_resil.Fault.disarm @@ fun () ->
  let c = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let n = 6 in
  (* Pipeline n compute requests back to back on one connection; with one
     execution slot and no queue, the loop must shed the overflow. *)
  let fd_reqs =
    List.init n (fun i ->
        J.to_string (Pr.request_to_json (sched_req ~id:(i + 1) ())))
  in
  (* Use the raw protocol to pipeline without waiting. *)
  let path = match addr with Server.Unix_sock p -> p | _ -> assert false in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX path);
  List.iter (Pr.write_frame fd) fd_reqs;
  let responses = ref [] in
  for _ = 1 to n do
    match Pr.read_frame fd with
    | Some payload -> responses := Result.get_ok (J.parse payload) :: !responses
    | None -> Alcotest.fail "connection died mid-flood"
  done;
  let oks = List.filter Pr.response_ok !responses in
  let sheds =
    List.filter
      (fun r -> match Pr.response_error r with Some ("shed_load", _) -> true | _ -> false)
      !responses
  in
  check_int "every request answered" n (List.length !responses);
  check_bool "some succeeded" true (List.length oks >= 1);
  check_bool "overflow was shed" true (List.length sheds >= 1);
  check_int "nothing lost or double-answered" n
    (List.length oks + List.length sheds);
  (* Control ops are never shed: the flooded server still answers. *)
  match Client.request c (Pr.request_to_json
    { Pr.id = 99; op = Pr.Health; max_retries = None; deadline_ms = None })
  with
  | Ok r -> check_bool "health during flood" true (Pr.response_ok r)
  | Error msg -> Alcotest.failf "health check failed under flood: %s" msg

let test_e2e_metrics_exposition () =
  with_server @@ fun addr ->
  let resp =
    expect_ok "metrics"
      (Client.round_trip addr
         { Pr.id = 3; op = Pr.Metrics; max_retries = None; deadline_ms = None })
  in
  let prom = Option.get (Option.bind (J.member "prom" resp) J.to_str) in
  check_bool "prometheus exposition includes server counters" true
    (has_sub ~sub:"tsms_serve_requests" prom);
  check_bool "includes gauges" true (has_sub ~sub:"tsms_serve_inflight" prom)

let test_e2e_graceful_shutdown () =
  let dir = fresh_dir () in
  let sock = Filename.concat dir "s.sock" in
  Fun.protect ~finally:(fun () -> rm dir) @@ fun () ->
  let t = Server.create (Server.default_config (Server.Unix_sock sock)) in
  let d = Domain.spawn (fun () -> Server.run t) in
  let r =
    Client.round_trip (Server.Unix_sock sock)
      { Pr.id = 1; op = Pr.Ping; max_retries = None; deadline_ms = None }
  in
  check_bool "served before stop" true
    (match r with Ok resp -> Pr.response_ok resp | Error _ -> false);
  Server.stop t;
  Domain.join d;
  check_bool "socket file removed" false (Sys.file_exists sock);
  (* A second stop is harmless. *)
  Server.stop t

let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_e2e_shutdown_under_load_no_fd_leak () =
  if not (Sys.file_exists "/proc/self/fd") then ()
  else begin
    (* Warm everything that lazily allocates (pool domains, scheduler
       caches) so the fd baseline below is stable. *)
    ignore
      (Ts_tms.Tms.schedule_sweep ~params:Ts_isa.Spmt_params.default
         (Ts_ddg.Parse.of_string dotprod_ddg));
    let dir = fresh_dir () in
    let sock = Filename.concat dir "s.sock" in
    Fun.protect
      ~finally:(fun () ->
        Ts_resil.Fault.disarm ();
        rm dir)
    @@ fun () ->
    (* Every compute request sleeps well past the drain deadline, so
       stopping mid-request forces the graveyard path. *)
    (match Ts_resil.Fault.parse "serve.request@*:slow600" with
    | Ok plan -> Ts_resil.Fault.arm plan
    | Error e -> Alcotest.failf "fault plan: %s" e);
    let gy0 = cval "serve.graveyard" in
    let baseline = count_fds () in
    let cfg =
      {
        (Server.default_config (Server.Unix_sock sock)) with
        Server.drain_timeout_s = 0.05;
      }
    in
    let t = Server.create cfg in
    let d = Domain.spawn (fun () -> Server.run t) in
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let client_closed = ref false in
    let close_client () =
      if not !client_closed then begin
        client_closed := true;
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
    in
    Fun.protect ~finally:close_client @@ fun () ->
    Unix.connect fd (Unix.ADDR_UNIX sock);
    let accepted0 = cval "serve.accepted" in
    Pr.write_frame fd (J.to_string (Pr.request_to_json (sched_req ~id:7 ())));
    (* Wait until the request is actually dispatched to a worker. *)
    let deadline = Unix.gettimeofday () +. 5.0 in
    while cval "serve.accepted" = accepted0 && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.01
    done;
    check_bool "request dispatched" true (cval "serve.accepted" > accepted0);
    (* Stop with the request still sleeping: drain (50 ms) expires long
       before the 600 ms injected delay, so the connection must take the
       graveyard path rather than leak. *)
    Server.stop t;
    Domain.join d;
    (* The straggler's response is still written after shutdown... *)
    (match Pr.read_frame fd with
    | Some payload ->
        let r = Result.get_ok (J.parse payload) in
        check_bool "late response delivered" true (Pr.response_ok r);
        check_bool "with its id" true (Pr.response_id r = Some 7)
    | None -> Alcotest.fail "straggler response lost in shutdown");
    (* ... and then the server closes the fd (EOF, not a hang). *)
    check_bool "straggler closed after its response" true
      (match Pr.read_frame fd with
      | None -> true
      | Some _ -> false
      | exception End_of_file -> true);
    close_client ();
    check_bool "graveyard counted the straggler" true
      (cval "serve.graveyard" > gy0);
    (* Every server-side descriptor — listener, conn, self-pipe — is
       back: poll briefly, the pipe close trails the conn close. *)
    let deadline = Unix.gettimeofday () +. 5.0 in
    while count_fds () > baseline && Unix.gettimeofday () < deadline do
      Unix.sleepf 0.02
    done;
    check_int "no fd growth after shutdown under load" baseline (count_fds ())
  end

let test_addr_parsing () =
  let ok s expect =
    match Server.addr_of_string s with
    | Ok a -> check_string ("parse " ^ s) expect (Server.addr_to_string a)
    | Error e -> Alcotest.failf "parse %s: %s" s e
  in
  ok "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  ok "tcp:localhost:700" "tcp:localhost:700";
  ok "127.0.0.1:7433" "tcp:127.0.0.1:7433";
  ok "7433" "tcp:127.0.0.1:7433";
  List.iter
    (fun s ->
      check_bool ("reject " ^ s) true
        (match Server.addr_of_string s with Error _ -> true | Ok _ -> false))
    [ "unix:"; "tcp:nohost"; "host:notaport"; "99999"; "" ]

let suite =
  [
    Alcotest.test_case "frame roundtrip" `Quick test_frame_roundtrip;
    Alcotest.test_case "torn byte-at-a-time reads" `Quick test_torn_reads;
    Alcotest.test_case "many frames, one chunk" `Quick test_many_frames_one_chunk;
    Alcotest.test_case "oversized prefix rejected, bounded" `Quick
      test_oversized_prefix_bounded;
    Alcotest.test_case "request json roundtrip" `Quick test_request_json_roundtrip;
    Alcotest.test_case "request json: hetero machine + placement" `Quick
      test_request_json_hetero;
    Alcotest.test_case "addr parsing" `Quick test_addr_parsing;
    Alcotest.test_case "e2e: schedule = direct result" `Quick
      test_e2e_schedule_matches_direct;
    Alcotest.test_case "e2e: simulate stats = direct run" `Quick
      test_e2e_simulate_stats;
    Alcotest.test_case "e2e: repeat served from store" `Quick
      test_e2e_repeat_served_from_store;
    Alcotest.test_case "e2e: malformed JSON structured error" `Quick
      test_e2e_malformed_json_structured_error;
    Alcotest.test_case "e2e: oversized frame answered then closed" `Quick
      test_e2e_oversized_frame_answered_then_closed;
    Alcotest.test_case "e2e: flood sheds, never crashes" `Quick
      test_e2e_flood_sheds_never_crashes;
    Alcotest.test_case "e2e: metrics exposition" `Quick test_e2e_metrics_exposition;
    Alcotest.test_case "e2e: graceful shutdown" `Quick test_e2e_graceful_shutdown;
    Alcotest.test_case "e2e: shutdown under load leaks no fds" `Quick
      test_e2e_shutdown_under_load_no_fd_leak;
  ]
