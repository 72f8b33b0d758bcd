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

let backoff_delays_ms policy =
  List.init (max 0 policy.max_retries) (fun k -> policy.backoff_ms * (1 lsl k))

(* One attempt: a Fault check before it (so injected task faults can
   target a specific attempt) and the soft deadline measured around it —
   injected [Slow] time included. *)
let one_attempt ~policy ~point ~label ~index ~attempt f x =
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
  | exception e -> Error e

(* One task, inline: up to [1 + max_retries] attempts with exponential
   backoff, all on the calling worker.  [sweep_map] uses the wave-based
   pool resubmission below instead. *)
let attempt_task ~policy ~point ~label ~index f x =
  let rec go attempt =
    match one_attempt ~policy ~point ~label ~index ~attempt f x with
    | Ok v -> Ok v
    | Error e ->
        if attempt <= policy.max_retries then begin
          Ts_obs.Metrics.incr m_retries;
          Fault.sleep
            (float_of_int (policy.backoff_ms * (1 lsl (attempt - 1))) /. 1000.0);
          go (attempt + 1)
        end
        else begin
          Ts_obs.Metrics.incr m_failures;
          Error { index; label; attempts = attempt; error = Printexc.to_string e }
        end
  in
  go 1

let map ?jobs ?(policy = default_policy) ?(point = "worker")
    ?(label = string_of_int) f xs =
  Ts_base.Parallel.map ?jobs
    (fun (i, x) -> attempt_task ~policy ~point ~label:(label i) ~index:i f x)
    (List.mapi (fun i x -> (i, x)) xs)

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

(* Sweep retries ride the pool as resubmission waves: a failed attempt
   does not hold its worker through a backoff-and-retry loop.  Wave 1
   attempts every item; each failure with retries remaining becomes a
   fresh pool task in the next wave, which sleeps its own backoff before
   re-running — so surviving items keep the workers busy while
   stragglers back off.  Attempt numbering, backoff values, metric
   totals and the [(index, attempt)] fault-injection keys are identical
   to the inline loop in [attempt_task]. *)
let sweep ?jobs ~what ~label f xs =
  let policy = policy () in
  let items = Array.of_list xs in
  let n = Array.length items in
  let progress = Ts_obs.Progress.start ~what ~total:n in
  let results = Array.make n None in
  let rec waves pending =
    if pending <> [] then begin
      let outcomes =
        Ts_base.Parallel.map ?jobs
          (fun (i, attempt) ->
            (* The backoff before attempt [k] belongs to the retry's own
               task, not to the worker that ran attempt [k - 1]. *)
            if attempt > 1 then
              Fault.sleep
                (float_of_int (policy.backoff_ms * (1 lsl (attempt - 2)))
                /. 1000.0);
            one_attempt ~policy ~point:"worker"
              ~label:(label i items.(i))
              ~index:i ~attempt f
              items.(i))
          pending
      in
      let next =
        List.filter_map
          (fun ((i, attempt), r) ->
            match r with
            | Ok v ->
                results.(i) <- Some (Ok v);
                Ts_obs.Progress.step progress;
                None
            | Error _ when attempt <= policy.max_retries ->
                Ts_obs.Metrics.incr m_retries;
                Some (i, attempt + 1)
            | Error e ->
                Ts_obs.Metrics.incr m_failures;
                results.(i) <-
                  Some
                    (Error
                       {
                         index = i;
                         label = label i items.(i);
                         attempts = attempt;
                         error = Printexc.to_string e;
                       });
                Ts_obs.Progress.step progress;
                None)
          (List.combine pending outcomes)
      in
      waves next
    end
  in
  waves (List.init n (fun i -> (i, 1)));
  Ts_obs.Progress.finish progress;
  let results =
    Array.to_list
      (Array.map (function Some r -> r | None -> assert false) results)
  in
  let fails =
    List.filter_map (function Error f -> Some f | Ok _ -> None) results
  in
  if fails <> [] then
    if keep_going () then record fails else raise (Failures fails);
  List.map (function Ok v -> Some v | Error _ -> None) results

let sweep_map ?jobs ~what ~label f xs =
  sweep ?jobs ~what ~label:(fun i x -> what ^ "/" ^ label i x) f xs

let sweep_groups ~what ~group ~label f groups =
  let tasks = List.concat_map (fun (g, xs) -> List.map (fun x -> (g, x)) xs) groups in
  let results =
    Array.of_list
      (sweep ~what
         ~label:(fun _ (g, x) -> what ^ ":" ^ group g ^ "/" ^ label x)
         (fun (g, x) -> f g x)
         tasks)
  in
  (* [results] is in [tasks]' order: group [k] owns the slice after the
     items of groups [0 .. k-1]. *)
  snd
    (List.fold_left_map
       (fun i (g, xs) ->
         let n = List.length xs in
         (i + n, (g, List.filter_map Fun.id (Array.to_list (Array.sub results i n)))))
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
