(* Deterministic parallel map over a resident domain pool with one run
   queue.

   Worker domains are spawned once per process (lazily, at the first
   parallel batch) and live until exit; nothing on the hot path calls
   [Domain.spawn].  All pool state — the queue, the worker count, the
   stop flag — sits under one mutex.  The traffic is coarse (the
   harness submits one task per loop, a few milliseconds each), so a
   lock taken a few times per task is never the bottleneck, and a
   single lock leaves no racy access to reason about.

   The queue has two ends.  Submissions from outside the pool join the
   back (FIFO).  A worker's own submissions — a nested batch or a
   future — go to the front, so a worker that helps while it waits runs
   its own children before older work.  Idle workers sleep on [work];
   each queued task signals one of them.  A pool worker that waits for a
   batch or a future runs queued tasks meanwhile and sleeps on [work]
   too; any other caller blocks on [finished] without running tasks, so
   at most [jobs] domains run tasks.  Whoever finishes a batch or a
   future broadcasts both conditions. *)

(* ---- pool sizing ----------------------------------------------------- *)

let available () = max 1 (Domain.recommended_domain_count () - 1)

(* 0 = unset: resolve from TSMS_JOBS, then the machine. *)
let configured = Atomic.make 0

let set_jobs n =
  if n < 1 then invalid_arg "Parallel.set_jobs: jobs must be >= 1";
  Atomic.set configured n

let env_jobs () =
  match Sys.getenv_opt "TSMS_JOBS" with
  | None | Some "" -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | _ ->
          invalid_arg
            (Printf.sprintf "TSMS_JOBS must be a positive integer, got %S" s))

let get_jobs () =
  match Atomic.get configured with
  | 0 -> ( match env_jobs () with Some n -> n | None -> available ())
  | n -> n

(* Hard bound on resident workers; [ensure] clamps to it. Well below the
   OCaml runtime's domain limit, far above any sane --jobs. *)
let cap = 64

(* ---- telemetry ------------------------------------------------------- *)

(* [ts_base] sits below the metrics registry in the library graph, so the
   pool reports raw events through an injectable observer and the
   observability layer (which every binary links) feeds them into the
   [pool.*] metrics.  When no observer is installed the pool takes no
   timestamps at all. *)
type event =
  | Task_done of { worker : int; index : int; wall_s : float }
  | Worker_exit of { worker : int; busy_s : float; tasks : int }
  | Idle of { worker : int; wait_s : float }

let observer : (event -> unit) option Atomic.t = Atomic.make None
let set_observer f = Atomic.set observer f
let get_observer () = Atomic.get observer

(* ---- the pool -------------------------------------------------------- *)

type task = unit -> unit

(* Every mutable field is guarded by [lock].  The queue is [front]
   followed by [back]: a worker's submissions are consed onto [front],
   outside ones added to [back], and tasks are taken from [front] first. *)
type t = {
  lock : Mutex.t;
  work : Condition.t;  (* a task was queued, a batch finished, or stop *)
  finished : Condition.t;  (* a batch or a future finished *)
  mutable front : task list;
  back : task Queue.t;
  mutable size : int;  (* spawned workers, ids 1..size; grow-only *)
  mutable stop : bool;
  mutable doms : unit Domain.t list;
}

(* 0 = not a pool worker (the caller's domain). *)
let wid_key = Domain.DLS.new_key (fun () -> 0)
let worker_id () = Domain.DLS.get wid_key

(* Under [p.lock]. *)
let take p =
  match p.front with
  | t :: rest ->
      p.front <- rest;
      Some t
  | [] -> Queue.take_opt p.back

let queued p = p.front <> [] || not (Queue.is_empty p.back)

(* Tasks are wrapped by their submitters and do not raise; the catch-all
   is a backstop so a bug in a wrapper can never kill a resident worker. *)
let run_task t = try t () with _ -> ()

let rec worker_loop p w =
  Mutex.lock p.lock;
  if p.stop then Mutex.unlock p.lock
  else
    match take p with
    | Some t ->
        Mutex.unlock p.lock;
        run_task t;
        worker_loop p w
    | None ->
        let obs = Atomic.get observer in
        let t0 = match obs with Some _ -> Unix.gettimeofday () | None -> 0.0 in
        while not (queued p || p.stop) do
          Condition.wait p.work p.lock
        done;
        Mutex.unlock p.lock;
        (match obs with
        | Some f -> f (Idle { worker = w; wait_s = Unix.gettimeofday () -. t0 })
        | None -> ());
        worker_loop p w

let the_pool =
  {
    lock = Mutex.create ();
    work = Condition.create ();
    finished = Condition.create ();
    front = [];
    back = Queue.create ();
    size = 0;
    stop = false;
    doms = [];
  }

let shutdown p =
  Mutex.lock p.lock;
  p.stop <- true;
  Condition.broadcast p.work;
  let doms = p.doms in
  p.doms <- [];
  Mutex.unlock p.lock;
  List.iter Domain.join doms

let ensure n =
  let p = the_pool in
  Mutex.lock p.lock;
  while p.size < min n cap && not p.stop do
    (* Workers never outlive the process: wake and join them so exit
       cannot race a domain mid-GC. *)
    if p.size = 0 then at_exit (fun () -> shutdown p);
    let w = p.size + 1 in
    p.doms <-
      Domain.spawn (fun () ->
          Domain.DLS.set wid_key w;
          worker_loop p w)
      :: p.doms;
    p.size <- w
  done;
  Mutex.unlock p.lock

let size_now () =
  let p = the_pool in
  Mutex.lock p.lock;
  let n = p.size in
  Mutex.unlock p.lock;
  n

(* Queue [ts] in order — at the front from a pool worker, at the back
   from anywhere else — and wake one sleeper per task. *)
let push ts =
  let p = the_pool in
  Mutex.lock p.lock;
  if worker_id () > 0 then p.front <- ts @ p.front
  else List.iter (fun t -> Queue.add t p.back) ts;
  List.iter (fun _ -> Condition.signal p.work) ts;
  Mutex.unlock p.lock

(* A batch or a future has finished: wake its waiter, whichever kind. *)
let finish () =
  let p = the_pool in
  Mutex.lock p.lock;
  Condition.broadcast p.work;
  Condition.broadcast p.finished;
  Mutex.unlock p.lock

(* Return once [finished ()], which the finisher makes true before it
   calls [finish].  A pool worker runs queued tasks meanwhile; any other
   domain just blocks. *)
let wait_until finished =
  let p = the_pool in
  let helping = worker_id () > 0 in
  Mutex.lock p.lock;
  while not (finished ()) do
    if not helping then Condition.wait p.finished p.lock
    else
      match take p with
      | Some t ->
          Mutex.unlock p.lock;
          run_task t;
          Mutex.lock p.lock
      | None -> Condition.wait p.work p.lock
  done;
  Mutex.unlock p.lock

(* ---- futures --------------------------------------------------------- *)

type 'a state = Pending | Done of 'a | Failed of exn
type 'a future = 'a state Atomic.t

let submit f =
  ensure (get_jobs ());
  let fut = Atomic.make Pending in
  push
    [
      (fun () ->
        Atomic.set fut (match f () with v -> Done v | exception e -> Failed e);
        finish ());
    ];
  fut

let await fut =
  wait_until (fun () ->
      match Atomic.get fut with Pending -> false | Done _ | Failed _ -> true);
  match Atomic.get fut with
  | Done v -> v
  | Failed e -> raise e
  | Pending -> assert false

(* ---- indexed batches (the Parallel.map engine) ----------------------- *)

(* Runs [body 0 .. body (n-1)] and returns when all are done.  [body]
   must not raise (Parallel.map captures failures itself).

   [jobs <= 1] or [n = 1] runs inline on the calling domain — the strict
   sequential path the golden equivalence suite compares against.
   Otherwise the batch rides the pool: a caller that is itself a pool
   worker queues the children at the front and helps until the batch
   drains (no new domains at any nesting depth); an outside caller
   queues them at the back and blocks.

   Telemetry (only when an observer is installed): one [Task_done] per
   item on the domain that ran it, then — from the joining caller — one
   [Worker_exit] per pool slot *including workers that ran zero tasks*,
   so utilization and idle-fraction metrics see the idle workers too.
   Per-task wall time includes any nested batch the task helped with
   while it waited. *)
let run_batch ~jobs ~n body =
  if n > 0 then begin
    let obs = get_observer () in
    if jobs <= 1 || n = 1 then begin
      let w = worker_id () in
      match obs with
      | None ->
          for i = 0 to n - 1 do
            body i
          done
      | Some f ->
          let busy = ref 0.0 in
          for i = 0 to n - 1 do
            let t0 = Unix.gettimeofday () in
            body i;
            let dt = Unix.gettimeofday () -. t0 in
            busy := !busy +. dt;
            f (Task_done { worker = w; index = i; wall_s = dt })
          done;
          f (Worker_exit { worker = w; busy_s = !busy; tasks = n })
    end
    else begin
      ensure jobs;
      let remaining = Atomic.make n in
      (* Per-slot accounting: each index is written only by the domain
         that owns that worker id, and read after the join. *)
      let busy = Array.make (cap + 1) 0.0 in
      let ran = Array.make (cap + 1) 0 in
      let task i () =
        let w = worker_id () in
        (match obs with
        | None -> body i
        | Some f ->
            let t0 = Unix.gettimeofday () in
            body i;
            let dt = Unix.gettimeofday () -. t0 in
            busy.(w) <- busy.(w) +. dt;
            f (Task_done { worker = w; index = i; wall_s = dt }));
        ran.(w) <- ran.(w) + 1;
        if Atomic.fetch_and_add remaining (-1) = 1 then finish ()
      in
      push (List.init n task);
      wait_until (fun () -> Atomic.get remaining <= 0);
      match obs with
      | None -> ()
      | Some f ->
          for w = 0 to size_now () do
            f (Worker_exit { worker = w; busy_s = busy.(w); tasks = ran.(w) })
          done
    end
  end

(* ---- map ------------------------------------------------------------ *)

exception Map_errors of (int * exn) list

let () =
  Printexc.register_printer (function
    | Map_errors fs ->
        Some
          (Printf.sprintf "Parallel.map: %d task(s) failed: %s"
             (List.length fs)
             (String.concat "; "
                (List.map
                   (fun (i, e) ->
                     Printf.sprintf "[%d] %s" i (Printexc.to_string e))
                   fs)))
    | _ -> None)

(* Every item always runs, whatever happens to its siblings: failures are
   collected per index and raised together at the join, so one bad task
   neither hides the other failures nor discards the results in flight
   (a supervising caller can see exactly which inputs failed). *)
let map ?jobs f xs =
  match xs with
  | [] -> []
  | _ :: _ ->
      let jobs = match jobs with Some j -> max 1 j | None -> get_jobs () in
      let input = Array.of_list xs in
      let n = Array.length input in
      (* The result array is sized once from the first value produced
         (whichever task that is) — no per-item [option] box. The single
         CAS publishes it; losers write into the winner's array. *)
      let out : 'b array option Atomic.t = Atomic.make None in
      let store i v =
        match Atomic.get out with
        | Some a -> a.(i) <- v
        | None ->
            let fresh = Array.make n v in
            if Atomic.compare_and_set out None (Some fresh) then ()
            else
              (match Atomic.get out with
              | Some a -> a.(i) <- v
              | None -> assert false)
      in
      let errs : exn option array = Array.make n None in
      let body i =
        match f input.(i) with
        | v -> store i v
        | exception e -> errs.(i) <- Some e
      in
      run_batch ~jobs ~n body;
      let failures = ref [] in
      for i = n - 1 downto 0 do
        match errs.(i) with
        | Some e -> failures := (i, e) :: !failures
        | None -> ()
      done;
      if !failures <> [] then raise (Map_errors !failures);
      (match Atomic.get out with
      | Some a -> Array.to_list a
      | None -> assert false)
