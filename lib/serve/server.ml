module Json = Ts_obs.Json
module Metrics = Ts_obs.Metrics

(* ---- addresses ------------------------------------------------------- *)

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  let invalid () =
    Error
      (Printf.sprintf
         "cannot parse address %S (expected unix:PATH, tcp:HOST:PORT, \
          HOST:PORT or a bare port number)"
         s)
  in
  match String.index_opt s ':' with
  | None -> (
      match int_of_string_opt s with
      | Some p when p >= 0 && p < 65536 -> Ok (Tcp ("127.0.0.1", p))
      | _ -> invalid ())
  | Some i -> (
      let scheme = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match scheme with
      | "unix" -> if rest = "" then invalid () else Ok (Unix_sock rest)
      | "tcp" -> (
          match String.rindex_opt rest ':' with
          | None -> invalid ()
          | Some j -> (
              let host = String.sub rest 0 j in
              let port = String.sub rest (j + 1) (String.length rest - j - 1) in
              match int_of_string_opt port with
              | Some p when host <> "" && p >= 0 && p < 65536 ->
                  Ok (Tcp (host, p))
              | _ -> invalid ()))
      | host -> (
          match int_of_string_opt rest with
          | Some p when p >= 0 && p < 65536 -> Ok (Tcp (host, p))
          | _ -> invalid ()))

let addr_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

(* ---- metrics --------------------------------------------------------- *)

let m_connections = Metrics.counter Metrics.default "serve.connections"
let m_requests = Metrics.counter Metrics.default "serve.requests"
let m_accepted = Metrics.counter Metrics.default "serve.accepted"
let m_shed = Metrics.counter Metrics.default "serve.shed"
let m_responses = Metrics.counter Metrics.default "serve.responses"
let m_errors = Metrics.counter Metrics.default "serve.errors"
let g_inflight = Metrics.gauge Metrics.default "serve.inflight"
let g_queue = Metrics.gauge Metrics.default "serve.queue"
let m_request_ms = Metrics.histogram Metrics.default "serve.request_ms"
let m_graveyard = Metrics.counter Metrics.default "serve.graveyard"

(* ---- configuration --------------------------------------------------- *)

type config = {
  addr : addr;
  max_inflight : int;
  queue_depth : int;
  max_frame : int;
  drain_timeout_s : float;
}

let default_config addr =
  {
    addr;
    max_inflight = Ts_base.Parallel.get_jobs ();
    queue_depth = 64;
    max_frame = Protocol.default_max_frame;
    drain_timeout_s = 10.0;
  }

(* ---- connections ----------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  dec : Protocol.decoder;
  wlock : Mutex.t;
  mutable alive : bool;  (* read side still open; loop-owned *)
  dead : bool Atomic.t;  (* a write failed: close as soon as drained *)
  pending : int Atomic.t;  (* worker responses not yet written *)
  gy : bool Atomic.t;
      (* in the shutdown graveyard: the worker that takes [pending] to 0
         closes the fd itself (see [finish_conn]) *)
  closed : bool Atomic.t;  (* fd-close CAS — exactly one closer, ever *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  pipe_r : Unix.file_descr;
  pipe_w : Unix.file_descr;
  stopping : bool Atomic.t;
  inflight : int Atomic.t;
  waiting : (conn * Protocol.request) Queue.t;  (* loop-owned *)
  mutable conns : conn list;  (* loop-owned *)
  graveyard_left : int Atomic.t;  (* graveyard conns not yet closed *)
  pipes_deferred : bool Atomic.t;
      (* shutdown left stragglers: the last graveyard closer also
         closes the self-pipe *)
  pipes_closed : bool Atomic.t;
  sock_path : string option;
  bound : addr;
  started : float;
}

(* A connection fd is closed only when no worker holds a pending
   response for it ([pending] = 0) — so a worker writing under [wlock]
   can never race a close or hit a recycled descriptor. While the loop
   runs, the loop is the only closer; after shutdown, stragglers move to
   a graveyard and the worker that writes the last pending response
   closes the fd itself (the [closed] CAS makes the close exactly-once
   either way). A failed write just marks the connection dead. *)
let send t c json =
  let s = Json.to_string json in
  Mutex.lock c.wlock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.wlock)
    (fun () ->
      if not (Atomic.get c.dead) then
        try
          Protocol.write_frame c.fd s;
          Metrics.incr m_responses
        with Unix.Unix_error _ | Sys_error _ -> Atomic.set c.dead true);
  ignore t

let notify t =
  if not (Atomic.get t.pipes_closed) then
    try ignore (Unix.write t.pipe_w (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

let close_fd_once c =
  if Atomic.exchange c.closed true then false
  else begin
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    true
  end

let close_pipes t =
  if not (Atomic.exchange t.pipes_closed true) then begin
    (try Unix.close t.pipe_r with Unix.Unix_error _ -> ());
    try Unix.close t.pipe_w with Unix.Unix_error _ -> ()
  end

(* A graveyard close: a straggler's fd is released the moment its last
   pending response has been written, and the final straggler overall
   also releases the self-pipe (every graveyard worker's [notify]
   happens before its [pending] decrement, so no worker can touch the
   pipe afterwards). Callable from worker domains and from the shutdown
   sweep — the [closed] CAS arbitrates. *)
let finish_conn t c =
  if not (Atomic.exchange c.closed true) then begin
    (* Count before closing: the close is externally observable (the
       client reads EOF), so anything a client may poll for afterwards
       must already be published. *)
    Metrics.incr m_graveyard;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    if
      Atomic.fetch_and_add t.graveyard_left (-1) = 1
      && Atomic.get t.pipes_deferred
    then close_pipes t
  end

(* ---- request execution (pool workers) -------------------------------- *)

let kernel_members (k : Ts_modsched.Kernel.t) ~c_reg_com =
  [
    ("ii", Json.Int k.Ts_modsched.Kernel.ii);
    ("n_stages", Json.Int k.Ts_modsched.Kernel.n_stages);
    ( "time",
      Json.List
        (Array.to_list
           (Array.map (fun t -> Json.Int t) k.Ts_modsched.Kernel.time)) );
    ("max_live", Json.Int (Ts_modsched.Kernel.max_live k));
    ("c_delay", Json.Int (Ts_modsched.Kernel.c_delay k ~c_reg_com));
    ("copies", Json.Int (Ts_modsched.Kernel.copies_needed k));
    ( "send_recv_pairs_per_iter",
      Json.Int (Ts_modsched.Kernel.send_recv_pairs_per_iter k) );
  ]

let tms_members (r : Ts_tms.Tms.result) ~c_reg_com =
  [
    ("kernel", Json.Obj (kernel_members r.Ts_tms.Tms.kernel ~c_reg_com));
    ( "search",
      Json.Obj
        [
          ("mii", Json.Int r.Ts_tms.Tms.mii);
          ("p_max", Json.Float r.Ts_tms.Tms.p_max);
          ("f_min", Json.Float r.Ts_tms.Tms.f_min);
          (* JSON floats render at %.12g; the hex copies let a client
             reprint the search line bit-identically to [tsms schedule]. *)
          ("p_max_hex", Json.Str (Printf.sprintf "%h" r.Ts_tms.Tms.p_max));
          ("f_min_hex", Json.Str (Printf.sprintf "%h" r.Ts_tms.Tms.f_min));
          ("misspec_hex", Json.Str (Printf.sprintf "%h" r.Ts_tms.Tms.misspec));
          ("c_delay_threshold", Json.Int r.Ts_tms.Tms.c_delay_threshold);
          ("achieved_c_delay", Json.Int r.Ts_tms.Tms.achieved_c_delay);
          ("misspec", Json.Float r.Ts_tms.Tms.misspec);
          ("attempts", Json.Int r.Ts_tms.Tms.attempts);
          ("fell_back", Json.Bool r.Ts_tms.Tms.fell_back);
        ] );
  ]

let stats_members (st : Ts_spmt.Sim.stats) ~trip =
  [
    ("cycles", Json.Int st.Ts_spmt.Sim.cycles);
    ( "cycles_per_iter",
      Json.Float (float_of_int st.Ts_spmt.Sim.cycles /. float_of_int trip) );
    ("committed", Json.Int st.Ts_spmt.Sim.committed);
    ("squashes", Json.Int st.Ts_spmt.Sim.squashes);
    ("misspec_rate", Json.Float st.Ts_spmt.Sim.misspec_rate);
    ("sync_stall_cycles", Json.Int st.Ts_spmt.Sim.sync_stall_cycles);
    ("spawn_stall_cycles", Json.Int st.Ts_spmt.Sim.spawn_stall_cycles);
    ("send_recv_pairs", Json.Int st.Ts_spmt.Sim.send_recv_pairs);
    ("mdt_peak", Json.Int st.Ts_spmt.Sim.mdt_peak);
  ]

exception Bad_request of string

let parse_ddg text =
  try Ts_ddg.Parse.of_string text with
  | Ts_ddg.Parse.Error (ln, msg) ->
      raise (Bad_request (Printf.sprintf "ddg line %d: %s" ln msg))
  | Invalid_argument msg | Failure msg -> raise (Bad_request msg)

(* The per-request policy: the process policy (CLI [--max-retries] /
   [--task-timeout]) with the request's own overrides on top. *)
let request_policy (r : Protocol.request) =
  let base = Ts_resil.Supervise.policy () in
  {
    base with
    Ts_resil.Supervise.max_retries =
      Option.value r.Protocol.max_retries
        ~default:base.Ts_resil.Supervise.max_retries;
    deadline_ms =
      (match r.Protocol.deadline_ms with
      | Some d -> Some d
      | None -> base.Ts_resil.Supervise.deadline_ms);
  }

let exec_request (r : Protocol.request) =
  let id = r.Protocol.id in
  match
    let compute () =
      match r.Protocol.op with
      | Protocol.Schedule a ->
          let g = parse_ddg a.Protocol.ddg in
          let g =
            if a.Protocol.unroll > 1 then
              Ts_ddg.Unroll.by g ~factor:a.Protocol.unroll
            else g
          in
          let params =
            Ts_isa.Spmt_params.apply_mix Ts_isa.Spmt_params.default
              a.Protocol.cores
          in
          (* The cache keys on the params it is given, so hand it the
             placement's effective machine (identity for round-robin). *)
          let eff =
            Ts_isa.Placement.effective_params a.Protocol.placement params
          in
          let run () =
            match a.Protocol.p_max with
            | Some p -> Ts_harness.Cached.tms ~p_max:p ~params:eff g
            | None -> Ts_harness.Cached.tms_sweep ~params:eff g
          in
          let label = Printf.sprintf "serve/%d/%s" id g.Ts_ddg.Ddg.name in
          (match
             Ts_resil.Supervise.attempt_task ~policy:(request_policy r)
               ~point:"serve.request" ~label ~index:id run ()
           with
          | Ok tms ->
              Protocol.ok ~id
                (("loop", Json.Str g.Ts_ddg.Ddg.name)
                :: tms_members tms
                     ~c_reg_com:params.Ts_isa.Spmt_params.c_reg_com)
          | Error f ->
              Metrics.incr m_errors;
              Protocol.error ~id:(Some id) ~code:"internal"
                (Printf.sprintf "%s (after %d attempt%s)"
                   f.Ts_resil.Supervise.error f.Ts_resil.Supervise.attempts
                   (if f.Ts_resil.Supervise.attempts = 1 then "" else "s")))
      | Protocol.Simulate a ->
          let g = parse_ddg a.Protocol.s_ddg in
          let params =
            Ts_isa.Spmt_params.apply_mix Ts_isa.Spmt_params.default
              a.Protocol.s_cores
          in
          let cfg =
            Ts_spmt.Config.with_placement
              { Ts_spmt.Config.default with params }
              a.Protocol.s_placement
          in
          let run () =
            let tms =
              Ts_harness.Cached.tms_sweep
                ~params:
                  (Ts_isa.Placement.effective_params a.Protocol.s_placement
                     params)
                g
            in
            let st =
              Ts_harness.Cached.sim ~warmup:a.Protocol.warmup cfg
                tms.Ts_tms.Tms.kernel ~trip:a.Protocol.trip
            in
            (tms, st)
          in
          let label = Printf.sprintf "serve/%d/%s" id g.Ts_ddg.Ddg.name in
          (match
             Ts_resil.Supervise.attempt_task ~policy:(request_policy r)
               ~point:"serve.request" ~label ~index:id run ()
           with
          | Ok (tms, st) ->
              Protocol.ok ~id
                (("loop", Json.Str g.Ts_ddg.Ddg.name)
                 :: ("stats", Json.Obj (stats_members st ~trip:a.Protocol.trip))
                 :: tms_members tms
                      ~c_reg_com:params.Ts_isa.Spmt_params.c_reg_com)
          | Error f ->
              Metrics.incr m_errors;
              Protocol.error ~id:(Some id) ~code:"internal"
                (Printf.sprintf "%s (after %d attempt%s)"
                   f.Ts_resil.Supervise.error f.Ts_resil.Supervise.attempts
                   (if f.Ts_resil.Supervise.attempts = 1 then "" else "s")))
      | Protocol.Metrics | Protocol.Health | Protocol.Ping ->
          (* Control ops are answered inline by the loop; a compute
             dispatch of one is a bug, not a client error. *)
          assert false
    in
    compute ()
  with
  | resp -> resp
  | exception Bad_request msg ->
      Metrics.incr m_errors;
      Protocol.error ~id:(Some id) ~code:"bad_request" msg
  | exception e ->
      Metrics.incr m_errors;
      Protocol.error ~id:(Some id) ~code:"internal" (Printexc.to_string e)

(* ---- control ops (event loop) ---------------------------------------- *)

let health_members t =
  [
    ("status", Json.Str (if Atomic.get t.stopping then "stopping" else "ok"));
    ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
    ("inflight", Json.Int (Atomic.get t.inflight));
    ("queue", Json.Int (Queue.length t.waiting));
    ("max_inflight", Json.Int t.cfg.max_inflight);
    ("queue_depth", Json.Int t.cfg.queue_depth);
    ("connections", Json.Int (Metrics.counter_value m_connections));
    ("requests", Json.Int (Metrics.counter_value m_requests));
    ("accepted", Json.Int (Metrics.counter_value m_accepted));
    ("shed", Json.Int (Metrics.counter_value m_shed));
    ("responses", Json.Int (Metrics.counter_value m_responses));
    ("errors", Json.Int (Metrics.counter_value m_errors));
  ]

(* ---- lifecycle ------------------------------------------------------- *)

let create cfg =
  if cfg.max_inflight < 1 then invalid_arg "Server.create: max_inflight < 1";
  if cfg.queue_depth < 0 then invalid_arg "Server.create: queue_depth < 0";
  if cfg.max_frame < 1 || cfg.max_frame > Protocol.max_frame_limit then
    invalid_arg "Server.create: max_frame out of range";
  let domain, sockaddr, sock_path =
    match cfg.addr with
    | Unix_sock path ->
        (* A stale socket file from a dead server would make bind fail
           forever; only ever unlink something that is a socket. *)
        (match Unix.lstat path with
        | { Unix.st_kind = Unix.S_SOCK; _ } -> (
            try Unix.unlink path with Unix.Unix_error _ -> ())
        | _ -> ()
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
        (Unix.PF_UNIX, Unix.ADDR_UNIX path, Some path)
    | Tcp (host, port) ->
        let ip =
          try Unix.inet_addr_of_string host
          with Failure _ -> (
            match Unix.gethostbyname host with
            | { Unix.h_addr_list = [||]; _ } ->
                raise (Unix.Unix_error (Unix.EADDRNOTAVAIL, "gethostbyname", host))
            | h -> h.Unix.h_addr_list.(0)
            | exception Not_found ->
                raise (Unix.Unix_error (Unix.EADDRNOTAVAIL, "gethostbyname", host)))
        in
        (Unix.PF_INET, Unix.ADDR_INET (ip, port), None)
  in
  let listen_fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (try
     if sock_path = None then Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
     Unix.bind listen_fd sockaddr;
     Unix.listen listen_fd 64;
     Unix.set_nonblock listen_fd
   with e ->
     Unix.close listen_fd;
     raise e);
  let bound =
    match cfg.addr with
    | Unix_sock _ as a -> a
    | Tcp (host, _) -> (
        match Unix.getsockname listen_fd with
        | Unix.ADDR_INET (_, port) -> Tcp (host, port)
        | _ -> cfg.addr)
  in
  let pipe_r, pipe_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock pipe_w;
  Unix.set_nonblock pipe_r;
  {
    cfg;
    listen_fd;
    pipe_r;
    pipe_w;
    stopping = Atomic.make false;
    inflight = Atomic.make 0;
    waiting = Queue.create ();
    conns = [];
    graveyard_left = Atomic.make 0;
    pipes_deferred = Atomic.make false;
    pipes_closed = Atomic.make false;
    sock_path;
    bound;
    started = Unix.gettimeofday ();
  }

let bound_addr t = t.bound

let stop t =
  Atomic.set t.stopping true;
  notify t

(* ---- the event loop -------------------------------------------------- *)

let dispatch t c (req : Protocol.request) =
  Atomic.incr t.inflight;
  Atomic.incr c.pending;
  Metrics.incr m_accepted;
  ignore
    (Ts_base.Parallel.submit (fun () ->
         let t0 = Unix.gettimeofday () in
         let resp = exec_request req in
         Metrics.observe m_request_ms ((Unix.gettimeofday () -. t0) *. 1000.0);
         send t c resp;
         Atomic.decr t.inflight;
         (* The self-pipe kick precedes the [pending] decrement: once a
            graveyard conn's counter hits 0 the pipe may be closed, so
            nothing may touch it afterwards. *)
         notify t;
         if Atomic.fetch_and_add c.pending (-1) = 1 && Atomic.get c.gy then
           finish_conn t c))

let handle_request t c j =
  match Protocol.request_of_json j with
  | Error msg ->
      Metrics.incr m_errors;
      send t c
        (Protocol.error
           ~id:(Option.bind (Json.member "id" j) Json.to_int)
           ~code:"bad_request" msg)
  | Ok req -> (
      let id = req.Protocol.id in
      match req.Protocol.op with
      | Protocol.Ping -> send t c (Protocol.ok ~id [ ("pong", Json.Bool true) ])
      | Protocol.Health -> send t c (Protocol.ok ~id (health_members t))
      | Protocol.Metrics ->
          send t c
            (Protocol.ok ~id
               [ ("prom", Json.Str (Metrics.render_prom Metrics.default)) ])
      | Protocol.Schedule _ | Protocol.Simulate _ ->
          if Atomic.get t.stopping then
            send t c
              (Protocol.error ~id:(Some id) ~code:"shutting_down"
                 "server is shutting down")
          else if Atomic.get t.inflight < t.cfg.max_inflight then dispatch t c req
          else if Queue.length t.waiting < t.cfg.queue_depth then
            Queue.push (c, req) t.waiting
          else begin
            Metrics.incr m_shed;
            send t c
              (Protocol.error ~id:(Some id) ~code:"shed_load"
                 (Printf.sprintf
                    "server at capacity (%d inflight, %d queued); retry later"
                    (Atomic.get t.inflight) (Queue.length t.waiting)))
          end)

let handle_frame t c payload =
  Metrics.incr m_requests;
  match Json.parse payload with
  | Error msg ->
      Metrics.incr m_errors;
      send t c
        (Protocol.error
           ~id:(Protocol.peek_id payload)
           ~code:"parse_error" ("request is not valid JSON: " ^ msg))
  | Ok j -> handle_request t c j

let read_conn t c chunk =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.alive <- false
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error (_, _, _) ->
      c.alive <- false;
      Atomic.set c.dead true
  | k -> (
      Protocol.feed c.dec (Bytes.sub_string chunk 0 k);
      try
        let rec frames () =
          match Protocol.next c.dec with
          | Some payload ->
              handle_frame t c payload;
              frames ()
          | None -> ()
        in
        frames ()
      with Protocol.Frame_too_large n ->
        (* The stream cannot be resynchronised after an oversized
           announcement; answer once, then close (after any inflight
           responses drain). Crucially the [n]-byte allocation never
           happened. *)
        Metrics.incr m_errors;
        send t c
          (Protocol.error ~id:None ~code:"parse_error"
             (Printf.sprintf
                "frame of %d bytes exceeds the server's %d-byte limit" n
                t.cfg.max_frame));
        c.alive <- false)

let drain_pipe t =
  let b = Bytes.create 256 in
  let rec go () =
    match Unix.read t.pipe_r b 0 (Bytes.length b) with
    | 256 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
  in
  go ()

let close_conn c =
  Atomic.set c.dead true;
  ignore (close_fd_once c)

(* Close connections whose read side is gone (or whose write side died)
   once no worker still owes them a response. *)
let reap t =
  let closable c = (not c.alive || Atomic.get c.dead) && Atomic.get c.pending = 0 in
  let gone, live = List.partition closable t.conns in
  List.iter close_conn gone;
  t.conns <- live

let accept_new t =
  let rec go () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | fd, _ ->
        Metrics.incr m_connections;
        let c =
          {
            fd;
            dec = Protocol.decoder ~max_frame:t.cfg.max_frame ();
            wlock = Mutex.create ();
            alive = true;
            dead = Atomic.make false;
            pending = Atomic.make 0;
            gy = Atomic.make false;
            closed = Atomic.make false;
          }
        in
        t.conns <- c :: t.conns;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
  in
  go ()

let admit_waiting t =
  while
    (not (Queue.is_empty t.waiting))
    && Atomic.get t.inflight < t.cfg.max_inflight
  do
    let c, req = Queue.pop t.waiting in
    (* A connection that died while its request waited still gets the
       work skipped, not the server crashed. *)
    if Atomic.get c.dead then ()
    else dispatch t c req
  done

let run t =
  (* A client vanishing mid-write must degrade to a dead connection, not
     kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let chunk = Bytes.create 65536 in
  let rec loop () =
    admit_waiting t;
    Metrics.set_gauge g_inflight (float_of_int (Atomic.get t.inflight));
    Metrics.set_gauge g_queue (float_of_int (Queue.length t.waiting));
    if Atomic.get t.stopping then ()
    else begin
      let fds =
        t.listen_fd :: t.pipe_r
        :: List.filter_map (fun c -> if c.alive then Some c.fd else None) t.conns
      in
      (match Unix.select fds [] [] 0.5 with
      | readable, _, _ ->
          if List.mem t.pipe_r readable then drain_pipe t;
          if List.mem t.listen_fd readable then accept_new t;
          List.iter
            (fun c -> if c.alive && List.mem c.fd readable then read_conn t c chunk)
            t.conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      reap t;
      loop ()
    end
  in
  loop ();
  (* Graceful shutdown: refuse the queue, drain inflight, close, unlink. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Queue.iter
    (fun (c, (req : Protocol.request)) ->
      send t c
        (Protocol.error ~id:(Some req.Protocol.id) ~code:"shutting_down"
           "server is shutting down"))
    t.waiting;
  Queue.clear t.waiting;
  let deadline = Unix.gettimeofday () +. t.cfg.drain_timeout_s in
  let rec drain () =
    if Atomic.get t.inflight > 0 && Unix.gettimeofday () < deadline then begin
      (match Unix.select [ t.pipe_r ] [] [] 0.1 with
      | [ _ ], _, _ -> drain_pipe t
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      drain ()
    end
  in
  drain ();
  (* Stragglers past the drain deadline: their workers may yet write
     responses, so the loop cannot close their fds here (a write under
     [wlock] must never hit a recycled descriptor). Each goes to the
     graveyard instead — the worker that writes the last pending
     response closes the fd itself, and the last straggler overall also
     closes the self-pipe. Nothing leaks, and a response finished after
     the deadline still reaches its client before the close. *)
  let clean, stragglers =
    List.partition (fun c -> Atomic.get c.pending = 0) t.conns
  in
  List.iter close_conn clean;
  t.conns <- [];
  (match stragglers with
  | [] -> close_pipes t
  | _ ->
      Atomic.set t.graveyard_left (List.length stragglers);
      Atomic.set t.pipes_deferred true;
      List.iter (fun c -> Atomic.set c.gy true) stragglers;
      (* A worker may have taken [pending] to 0 before its [gy] flag was
         visible; sweep once so such conns are not orphaned (the CAS in
         [finish_conn] keeps a racing worker harmless). *)
      List.iter
        (fun c -> if Atomic.get c.pending = 0 then finish_conn t c)
        stragglers);
  match t.sock_path with
  | Some p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | None -> ()
