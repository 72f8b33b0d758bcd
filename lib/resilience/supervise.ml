type policy = { max_retries : int; backoff_ms : int; deadline_ms : int option }

let default_policy = { max_retries = 0; backoff_ms = 100; deadline_ms = None }

type failure = { index : int; label : string; attempts : int; error : string }

exception Failures of failure list

let () =
  Printexc.register_printer (function
    | Failures fs ->
        Some
          (Printf.sprintf "sweep failures (%d task(s)): %s"
             (List.length fs)
             (String.concat "; "
                (List.map (fun f -> f.label ^ ": " ^ f.error) fs)))
    | _ -> None)

let m_retries = Ts_obs.Metrics.counter Ts_obs.Metrics.default "supervise.retries"

let m_failures =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default "supervise.failures"

let m_deadline =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default "supervise.deadline_exceeded"

(* One task, inline: up to [1 + max_retries] attempts with exponential
   backoff, all on the calling worker.  Sweeps and the server both reach
   retries only through here.  Each attempt has a Fault check before it
   (so injected task faults can target a specific attempt) and the soft
   deadline measured around it, injected [Slow] time included. *)
let attempt_task ~policy ~point ~label ~index f x =
  let rec go attempt =
    match
      let t0 = Unix.gettimeofday () in
      (match Fault.check_task point ~index ~attempt with
      | None -> ()
      | Some (Fault.Exn | Fault.Torn) -> raise (Fault.Injected point)
      | Some (Fault.Slow ms) -> Fault.sleep (float_of_int ms /. 1000.0));
      let v = f x in
      (match policy.deadline_ms with
      | Some d when (Unix.gettimeofday () -. t0) *. 1000.0 > float_of_int d ->
          Ts_obs.Metrics.incr m_deadline;
          Warn.once
            ~key:("supervise.deadline:" ^ label)
            (Printf.sprintf
               "task %s exceeded its %d ms deadline (completed; result kept)"
               label d)
      | _ -> ());
      v
    with
    | v -> Ok v
    | exception _ when attempt <= policy.max_retries ->
        Ts_obs.Metrics.incr m_retries;
        Fault.sleep
          (float_of_int (policy.backoff_ms * (1 lsl (attempt - 1))) /. 1000.0);
        go (attempt + 1)
    | exception e ->
        Ts_obs.Metrics.incr m_failures;
        Error { index; label; attempts = attempt; error = Printexc.to_string e }
  in
  go 1

(* ---- run context ---- *)

let keep_going_flag = Atomic.make false
let set_keep_going b = Atomic.set keep_going_flag b
let keep_going () = Atomic.get keep_going_flag

let the_policy = Atomic.make default_policy
let set_policy p = Atomic.set the_policy p
let policy () = Atomic.get the_policy

let recorded : failure list ref = ref []
let recorded_lock = Mutex.create ()

let record fs =
  Mutex.lock recorded_lock;
  recorded := !recorded @ fs;
  Mutex.unlock recorded_lock

let failures () =
  Mutex.lock recorded_lock;
  let fs = !recorded in
  Mutex.unlock recorded_lock;
  fs

let reset_failures () =
  Mutex.lock recorded_lock;
  recorded := [];
  Mutex.unlock recorded_lock

(* One pool task per item: its whole retry loop runs on the worker that
   took it, which steps the sweep's heartbeat when the task ends.  Task
   [i] is the [i]-th item overall, so [results] is in [tasks]' order and
   group [k] owns the slice after the items of groups [0 .. k-1]. *)
let sweep_groups ~what ~group ~label f groups =
  let policy = policy () in
  let tasks =
    List.concat_map (fun (g, xs) -> List.map (fun x -> (g, x)) xs) groups
  in
  let progress = Ts_obs.Progress.start ~what ~total:(List.length tasks) in
  let results =
    Ts_base.Parallel.map
      (fun (i, (g, x)) ->
        let r =
          attempt_task ~policy ~point:"worker"
            ~label:(what ^ ":" ^ group g ^ "/" ^ label x)
            ~index:i (fun x -> f g x) x
        in
        Ts_obs.Progress.step progress;
        r)
      (List.mapi (fun i t -> (i, t)) tasks)
  in
  Ts_obs.Progress.finish progress;
  let fails =
    List.filter_map (function Error f -> Some f | Ok _ -> None) results
  in
  if fails <> [] then
    if keep_going () then record fails else raise (Failures fails);
  let results = Array.of_list results in
  snd
    (List.fold_left_map
       (fun i (g, xs) ->
         let n = List.length xs in
         let mine = Array.to_list (Array.sub results i n) in
         (i + n, (g, List.filter_map Result.to_option mine)))
       0 groups)

let render_failures fs =
  let b = Buffer.create 256 in
  Printf.bprintf b "sweep failures: %d task(s) failed\n" (List.length fs);
  List.iter
    (fun f ->
      Printf.bprintf b "  %s: %s (after %d attempt%s)\n" f.label f.error
        f.attempts
        (if f.attempts = 1 then "" else "s"))
    fs;
  Buffer.contents b

let summary () =
  match failures () with [] -> None | fs -> Some (render_failures fs)

let failures_of_exn = function
  | Failures fs -> Some fs
  | Ts_base.Parallel.Map_errors ies ->
      Some
        (List.concat_map
           (fun (i, e) ->
             match e with
             | Failures fs -> fs
             | e ->
                 [
                   {
                     index = i;
                     label = Printf.sprintf "task %d" i;
                     attempts = 1;
                     error = Printexc.to_string e;
                   };
                 ])
           ies)
  | _ -> None
