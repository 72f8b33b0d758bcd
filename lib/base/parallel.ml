(* Deterministic parallel map over a resident work-stealing domain pool.

   Worker domains are spawned once per process (lazily, at the first
   parallel batch) and live until exit; nothing on the hot path calls
   [Domain.spawn].  Each worker owns an SPMC deque: the owner pushes and
   pops at the back (LIFO — the freshest task is cache-warm, and nested
   children run before their siblings' parents), thieves take from the
   front (FIFO — they get the oldest, coarsest task, which is the one
   most worth moving to another core).  There is deliberately no central run queue and no shared task
   cursor: the classic scaling bottleneck of a mutex/counter-protected
   central task list is exactly what this module replaces.  Each deque
   has its own tiny mutex; thieves use [try_lock], so a busy victim is a
   reason to scan on, never a convoy to queue behind.

   Nested parallelism is help-first: a task that opens a parallel batch
   from inside a worker pushes the children onto its own deque and then
   works — popping its own children, stealing others' tasks — until the
   batch drains.  Nothing ever blocks a worker on a condition variable
   while tasks are runnable, and no nested batch spawns a domain, so the
   live domain count is bounded by the pool size at any nesting depth.

   Sleep/wake: a worker that finds nothing to run anywhere goes to sleep
   on the pool condition variable.  Submissions bump an epoch counter
   before checking for sleepers; sleepers register themselves before
   re-checking the epoch under the pool lock — the classic
   ticket/re-check pairing that closes the lost-wakeup race without
   taking the pool lock on the (common) no-sleeper submission path. *)

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
  | Steal of { thief : int; victim : int }
  | Idle of { worker : int; wait_s : float }

let observer : (event -> unit) option Atomic.t = Atomic.make None
let set_observer f = Atomic.set observer f
let get_observer () = Atomic.get observer

(* ---- SPMC deque ------------------------------------------------------ *)

type task = unit -> unit

module Deque = struct
  (* Circular buffer under a per-deque mutex.  [head] is the steal end
     (oldest task), [head + len - 1] the owner end (newest).  The mutex
     is held for a handful of loads/stores — contention is per-victim,
     not process-global. *)
  type t = {
    mutable buf : task array;
    mutable head : int;
    mutable len : int;
    lock : Mutex.t;
  }

  let nop () = ()

  let create () =
    { buf = Array.make 32 nop; head = 0; len = 0; lock = Mutex.create () }

  let grow d =
    let old = Array.length d.buf in
    let buf = Array.make (2 * old) nop in
    for i = 0 to d.len - 1 do
      buf.(i) <- d.buf.((d.head + i) mod old)
    done;
    d.buf <- buf;
    d.head <- 0

  let push d t =
    Mutex.lock d.lock;
    if d.len = Array.length d.buf then grow d;
    d.buf.((d.head + d.len) mod Array.length d.buf) <- t;
    d.len <- d.len + 1;
    Mutex.unlock d.lock

  (* Owner end: newest first (LIFO). *)
  let pop d =
    Mutex.lock d.lock;
    let r =
      if d.len = 0 then None
      else begin
        d.len <- d.len - 1;
        let i = (d.head + d.len) mod Array.length d.buf in
        let t = d.buf.(i) in
        d.buf.(i) <- nop;
        Some t
      end
    in
    Mutex.unlock d.lock;
    r

  (* Thief end: oldest first (FIFO).  Non-blocking: a locked victim is
     skipped, the thief scans on. *)
  let steal d =
    if d.len = 0 || not (Mutex.try_lock d.lock) then None
    else begin
      let r =
        if d.len = 0 then None
        else begin
          let t = d.buf.(d.head) in
          d.buf.(d.head) <- nop;
          d.head <- (d.head + 1) mod Array.length d.buf;
          d.len <- d.len - 1;
          Some t
        end
      in
      Mutex.unlock d.lock;
      r
    end
end

(* ---- the pool -------------------------------------------------------- *)

type t = {
  deques : Deque.t array;  (* cap + 1 slots; index 0 (the caller) unused *)
  size : int Atomic.t;  (* spawned workers, ids 1..size; grow-only *)
  lock : Mutex.t;  (* guards growth, [doms] and the sleep condition *)
  wake : Condition.t;
  sleepers : int Atomic.t;
  epoch : int Atomic.t;  (* bumped on every submission *)
  stop : bool Atomic.t;
  rr : int Atomic.t;  (* round-robin injection cursor *)
  mutable doms : unit Domain.t list;
}

(* 0 = not a pool worker (the caller's domain). *)
let wid_key = Domain.DLS.new_key (fun () -> 0)
let worker_id () = Domain.DLS.get wid_key

(* Own deque first (LIFO), then steal round the other workers starting
   just past ourselves (FIFO victims, deterministic scan order — the
   randomness that load-balances is the timing itself). *)
let find_task p w =
  match Deque.pop p.deques.(w) with
  | Some _ as t -> t
  | None ->
      let sz = Atomic.get p.size in
      let rec scan k =
        if k >= sz then None
        else
          let v = (((w - 1) + k) mod sz) + 1 in
          match Deque.steal p.deques.(v) with
          | Some _ as t ->
              (match Atomic.get observer with
              | Some f -> f (Steal { thief = w; victim = v })
              | None -> ());
              t
          | None -> scan (k + 1)
      in
      scan 1

(* Tasks are wrapped by their submitters and do not raise; the catch-all
   is a backstop so a bug in a wrapper can never kill a resident worker. *)
let run_task t = try t () with _ -> ()

let rec worker_loop p w =
  if not (Atomic.get p.stop) then begin
    (match find_task p w with
    | Some t -> run_task t
    | None -> (
        (* Read the epoch, look once more (a submission may have landed
           between the failed scan and the epoch read), then sleep until
           the epoch moves. *)
        let e = Atomic.get p.epoch in
        match find_task p w with
        | Some t -> run_task t
        | None ->
            let obs = Atomic.get observer in
            let t0 =
              match obs with Some _ -> Unix.gettimeofday () | None -> 0.0
            in
            Mutex.lock p.lock;
            Atomic.incr p.sleepers;
            while Atomic.get p.epoch = e && not (Atomic.get p.stop) do
              Condition.wait p.wake p.lock
            done;
            Atomic.decr p.sleepers;
            Mutex.unlock p.lock;
            (match obs with
            | Some f -> f (Idle { worker = w; wait_s = Unix.gettimeofday () -. t0 })
            | None -> ())));
    worker_loop p w
  end

let spawn_locked p w =
  let d =
    Domain.spawn (fun () ->
        Domain.DLS.set wid_key w;
        worker_loop p w)
  in
  p.doms <- d :: p.doms

let ensure p n =
  let n = min n cap in
  if Atomic.get p.size < n then begin
    Mutex.lock p.lock;
    while Atomic.get p.size < n && not (Atomic.get p.stop) do
      let w = Atomic.get p.size + 1 in
      spawn_locked p w;
      Atomic.set p.size w
    done;
    Mutex.unlock p.lock
  end

let create () =
  {
    deques = Array.init (cap + 1) (fun _ -> Deque.create ());
    size = Atomic.make 0;
    lock = Mutex.create ();
    wake = Condition.create ();
    sleepers = Atomic.make 0;
    epoch = Atomic.make 0;
    stop = Atomic.make false;
    rr = Atomic.make 0;
    doms = [];
  }

let shutdown p =
  Atomic.set p.stop true;
  Mutex.lock p.lock;
  Condition.broadcast p.wake;
  let doms = p.doms in
  p.doms <- [];
  Mutex.unlock p.lock;
  List.iter Domain.join doms

let the_pool : t option Atomic.t = Atomic.make None
let init_lock = Mutex.create ()

let get () =
  match Atomic.get the_pool with
  | Some p -> p
  | None ->
      Mutex.lock init_lock;
      let p =
        match Atomic.get the_pool with
        | Some p -> p
        | None ->
            let p = create () in
            Atomic.set the_pool (Some p);
            (* Workers never outlive the process: wake and join them so
               exit cannot race a domain mid-GC. *)
            at_exit (fun () -> shutdown p);
            p
      in
      Mutex.unlock init_lock;
      p

let size_now () =
  match Atomic.get the_pool with Some p -> Atomic.get p.size | None -> 0

(* ---- submission ------------------------------------------------------ *)

let wake_sleepers p =
  if Atomic.get p.sleepers > 0 then begin
    Mutex.lock p.lock;
    Condition.broadcast p.wake;
    Mutex.unlock p.lock
  end

(* From outside the pool: round-robin over the worker deques — initial
   balance without a central queue; stealing corrects the rest. *)
let inject p t =
  let sz = max 1 (Atomic.get p.size) in
  let k = (Atomic.fetch_and_add p.rr 1 mod sz) + 1 in
  Deque.push p.deques.(k) t;
  Atomic.incr p.epoch;
  wake_sleepers p

(* From a worker: own deque (LIFO — help-first nesting). *)
let push_self p w t =
  Deque.push p.deques.(w) t;
  Atomic.incr p.epoch;
  wake_sleepers p

let submit_task p t =
  let w = worker_id () in
  if w > 0 then push_self p w t else inject p t

(* Spin briefly, then sleep in sub-millisecond slices: on a machine with
   fewer cores than domains (CI runners, the 1-CPU container) a helper
   that busy-waits would starve the very worker it is waiting on. *)
let idle_backoff misses =
  if misses < 64 then Domain.cpu_relax () else Unix.sleepf 0.0002

(* Return once [finished ()]. A pool worker helps meanwhile (help-first:
   it runs whatever is runnable); any other domain blocks on [c], which
   whoever finishes the work broadcasts under [m]. *)
let wait_until p m c finished =
  let w = worker_id () in
  let rec help misses =
    if not (finished ()) then
      match find_task p w with
      | Some t ->
          run_task t;
          help 0
      | None ->
          idle_backoff misses;
          help (misses + 1)
  in
  if w > 0 then help 0
  else begin
    Mutex.lock m;
    while not (finished ()) do
      Condition.wait c m
    done;
    Mutex.unlock m
  end

(* ---- futures --------------------------------------------------------- *)

type 'a state = Pending | Done of 'a | Failed of exn

type 'a future = { st : 'a state Atomic.t; m : Mutex.t; c : Condition.t }

let fulfilled fut =
  match Atomic.get fut.st with Pending -> false | Done _ | Failed _ -> true

let submit f =
  let p = get () in
  ensure p (max 1 (min (get_jobs ()) cap));
  let fut =
    { st = Atomic.make Pending; m = Mutex.create (); c = Condition.create () }
  in
  submit_task p (fun () ->
      let r = match f () with v -> Done v | exception e -> Failed e in
      Atomic.set fut.st r;
      Mutex.lock fut.m;
      Condition.broadcast fut.c;
      Mutex.unlock fut.m);
  fut

let await fut =
  wait_until (get ()) fut.m fut.c (fun () -> fulfilled fut);
  match Atomic.get fut.st with
  | Done v -> v
  | Failed e -> raise e
  | Pending -> assert false

(* ---- indexed batches (the Parallel.map engine) ----------------------- *)

(* Runs [body 0 .. body (n-1)] and returns when all are done.  [body]
   must not raise (Parallel.map captures failures itself).

   [jobs <= 1] or [n = 1] runs inline on the calling domain — the strict
   sequential path the golden equivalence suite compares against.
   Otherwise the batch rides the pool: a caller that is itself a pool
   worker pushes the children onto its own deque and helps until the
   batch drains (no new domains at any nesting depth); an outside caller
   injects round-robin and blocks on the batch condition.

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
      let p = get () in
      ensure p (min jobs cap);
      let remaining = Atomic.make n in
      let bm = Mutex.create () and bc = Condition.create () in
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
        if Atomic.fetch_and_add remaining (-1) = 1 then begin
          Mutex.lock bm;
          Condition.broadcast bc;
          Mutex.unlock bm
        end
      in
      let w0 = worker_id () in
      if w0 > 0 then
        for i = n - 1 downto 0 do
          push_self p w0 (task i)
        done
      else
        for i = 0 to n - 1 do
          inject p (task i)
        done;
      wait_until p bm bc (fun () -> Atomic.get remaining <= 0);
      match obs with
      | None -> ()
      | Some f ->
          let sz = Atomic.get p.size in
          for w = 0 to sz do
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
