(* Domain-safety: counters and gauges are Atomic cells (counters use
   fetch-and-add, so totals are exact under any number of worker domains);
   histograms update several fields together and take a tiny per-histogram
   mutex; the registry table itself is guarded by a per-registry mutex so
   concurrent registration/reset/dump cannot corrupt it. *)

type counter = int Atomic.t
type gauge = float Atomic.t

(* Histograms bucket on a log2 scale with [sub_buckets] sub-buckets per
   octave: bucket [i] covers [2^(min_exp + i/8), 2^(min_exp + (i+1)/8)).
   Eight sub-buckets per octave bound the relative quantile error by
   2^(1/8) - 1 ~ 9%. Values below the lowest bound (including zeros,
   negatives and NaNs) land in [under]; values at or above the highest
   bound land in [over]. Bucketing is a pure function of the value, so
   bucket counts merge deterministically across domains — unlike a
   mergesort of raw samples, the result does not depend on arrival
   order. *)
let sub_buckets = 8
let min_exp = -30 (* 2^-30 ~ 9.3e-10 *)
let max_exp = 34 (* 2^34 ~ 1.7e10 *)
let n_buckets = (max_exp - min_exp) * sub_buckets
let low_cut = Float.exp2 (float_of_int min_exp)

(* Lower bound of bucket [i]; [bound n_buckets] is the top of the range. *)
let bound i =
  Float.exp2 (float_of_int ((min_exp * sub_buckets) + i) /. float_of_int sub_buckets)

let bucket_index v =
  (* floor(8 * log2 v) computed via frexp so powers of two land exactly on
     their bucket edge on every platform. *)
  let m, e = Float.frexp v in
  (* v = m * 2^e with m in [0.5, 1): log2 v = (e - 1) + log2 (2m). *)
  let frac = Float.log2 (2.0 *. m) in
  let sub = int_of_float (frac *. float_of_int sub_buckets) in
  let sub = if sub >= sub_buckets then sub_buckets - 1 else max 0 sub in
  ((e - 1 - min_exp) * sub_buckets) + sub

type histogram = {
  lock : Mutex.t;
  mutable n : int;
  mutable sum : float;
  mutable minv : float;
  mutable maxv : float;
  mutable under : int;
  mutable over : int;
  buckets : int array;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram
type registry = { tbl : (string, metric) Hashtbl.t; reg_lock : Mutex.t }

let create () : registry = { tbl = Hashtbl.create 32; reg_lock = Mutex.create () }
let default : registry = create ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let reset reg =
  with_lock reg.reg_lock @@ fun () ->
  Hashtbl.iter
    (fun _ m ->
      match m with
      | Counter c -> Atomic.set c 0
      | Gauge g -> Atomic.set g 0.0
      | Histogram h ->
          with_lock h.lock @@ fun () ->
          h.n <- 0;
          h.sum <- 0.0;
          h.minv <- infinity;
          h.maxv <- neg_infinity;
          h.under <- 0;
          h.over <- 0;
          Array.fill h.buckets 0 n_buckets 0)
    reg.tbl

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let register reg name make extract expected =
  with_lock reg.reg_lock @@ fun () ->
  match Hashtbl.find_opt reg.tbl name with
  | Some m -> (
      match extract m with
      | Some handle -> handle
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %s is a %s, not a %s" name (kind_name m)
               expected))
  | None ->
      let handle, m = make () in
      Hashtbl.add reg.tbl name m;
      handle

let counter reg name =
  register reg name
    (fun () ->
      let c = Atomic.make 0 in
      (c, Counter c))
    (function Counter c -> Some c | _ -> None)
    "counter"

let incr ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.incr: counters are monotonic (by < 0)";
  ignore (Atomic.fetch_and_add c by)

let counter_value c = Atomic.get c

let gauge reg name =
  register reg name
    (fun () ->
      let g = Atomic.make 0.0 in
      (g, Gauge g))
    (function Gauge g -> Some g | _ -> None)
    "gauge"

let set_gauge g v = Atomic.set g v

let rec max_gauge g v =
  let cur = Atomic.get g in
  if v > cur && not (Atomic.compare_and_set g cur v) then max_gauge g v
let gauge_value g = Atomic.get g

let histogram reg name =
  register reg name
    (fun () ->
      let h =
        { lock = Mutex.create (); n = 0; sum = 0.0; minv = infinity;
          maxv = neg_infinity; under = 0; over = 0;
          buckets = Array.make n_buckets 0 }
      in
      (h, Histogram h))
    (function Histogram h -> Some h | _ -> None)
    "histogram"

let observe h v =
  with_lock h.lock @@ fun () ->
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v < h.minv then h.minv <- v;
  if v > h.maxv then h.maxv <- v;
  if not (v >= low_cut) then h.under <- h.under + 1
  else
    let i = bucket_index v in
    if i >= n_buckets then h.over <- h.over + 1 else h.buckets.(i) <- h.buckets.(i) + 1

let histogram_count h = with_lock h.lock (fun () -> h.n)
let histogram_sum h = with_lock h.lock (fun () -> h.sum)

let histogram_mean h =
  with_lock h.lock (fun () ->
      if h.n = 0 then Float.nan else h.sum /. float_of_int h.n)

(* Quantile estimate from the bucket counts: find the bucket holding the
   ceil(q*n)-th smallest sample and interpolate linearly inside it, then
   clamp to the recorded min/max (which are exact). Must be called with
   the histogram lock held. *)
let quantile_locked h q =
  if h.n = 0 then Float.nan
    (* The extremes are tracked exactly; don't round them through a
       bucket. *)
  else if q <= 0.0 then h.minv
  else if q >= 1.0 then h.maxv
  else begin
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.n))) in
    let rank = min rank h.n in
    if rank <= h.under then h.minv
    else begin
      let cum = ref h.under in
      let res = ref None in
      (try
         for i = 0 to n_buckets - 1 do
           let c = h.buckets.(i) in
           if c > 0 then begin
             cum := !cum + c;
             if rank <= !cum then begin
               let lo = bound i and hi = bound (i + 1) in
               let frac = 1.0 -. (float_of_int (!cum - rank) /. float_of_int c) in
               res := Some (lo +. ((hi -. lo) *. frac));
               raise Exit
             end
           end
         done
       with Exit -> ());
      match !res with
      | Some v -> Float.min h.maxv (Float.max h.minv v)
      | None -> h.maxv (* rank fell in the overflow bucket *)
    end
  end

let quantile h q =
  if not (q >= 0.0 && q <= 1.0) then
    invalid_arg "Metrics.quantile: q must be in [0, 1]";
  with_lock h.lock (fun () -> quantile_locked h q)

let bucket_counts h =
  with_lock h.lock @@ fun () ->
  let acc = ref [] in
  for i = n_buckets - 1 downto 0 do
    if h.buckets.(i) > 0 then acc := (bound (i + 1), h.buckets.(i)) :: !acc
  done;
  !acc

let merge_histogram ~src ~into =
  if src != into then begin
    (* Snapshot src first, then fold into dst: taking both locks at once
       would need a global order to stay deadlock-free. *)
    let n, sum, minv, maxv, under, over, buckets =
      with_lock src.lock (fun () ->
          (src.n, src.sum, src.minv, src.maxv, src.under, src.over,
           Array.copy src.buckets))
    in
    if n > 0 then
      with_lock into.lock @@ fun () ->
      into.n <- into.n + n;
      into.sum <- into.sum +. sum;
      if minv < into.minv then into.minv <- minv;
      if maxv > into.maxv then into.maxv <- maxv;
      into.under <- into.under + under;
      into.over <- into.over + over;
      for i = 0 to n_buckets - 1 do
        into.buckets.(i) <- into.buckets.(i) + buckets.(i)
      done
  end

let sorted_bindings reg =
  with_lock reg.reg_lock (fun () ->
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) reg.tbl [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let merge ~src ~into =
  if src != into then
    List.iter
      (fun (name, m) ->
        match m with
        | Counter c ->
            let v = Atomic.get c in
            if v > 0 then incr ~by:v (counter into name)
        | Gauge g ->
            (* Across registries the deterministic merge is the max. *)
            max_gauge (gauge into name) (Atomic.get g)
        | Histogram h -> merge_histogram ~src:h ~into:(histogram into name))
      (sorted_bindings src)

let fmt_stat v =
  if Float.is_nan v then "-" else Printf.sprintf "%.4g" v

let render_table reg =
  let open Ts_base.Tablefmt in
  let t =
    create ~title:"metrics"
      [ ("name", Left); ("kind", Left); ("value", Right); ("mean", Right);
        ("p50", Right); ("p90", Right); ("p99", Right); ("min", Right);
        ("max", Right) ]
  in
  let blank = [ ""; ""; ""; ""; "" ] in
  List.iter
    (fun (name, m) ->
      match m with
      | Counter c ->
          add_row t ([ name; "counter"; string_of_int (Atomic.get c); "" ] @ blank)
      | Gauge g ->
          add_row t
            ([ name; "gauge"; Printf.sprintf "%g" (Atomic.get g); "" ] @ blank)
      | Histogram h ->
          let n, sum, minv, maxv, p50, p90, p99 =
            with_lock h.lock (fun () ->
                (h.n, h.sum, h.minv, h.maxv, quantile_locked h 0.50,
                 quantile_locked h 0.90, quantile_locked h 0.99))
          in
          if n = 0 then add_row t ([ name; "histogram"; "0"; "-" ] @ blank)
          else
            add_row t
              [ name; "histogram"; string_of_int n;
                fmt_stat (sum /. float_of_int n); fmt_stat p50; fmt_stat p90;
                fmt_stat p99; fmt_stat minv; fmt_stat maxv ])
    (sorted_bindings reg);
  render t

let json_version = 2

let histogram_json h =
  let n, sum, minv, maxv, p50, p90, p99, under, over, buckets =
    with_lock h.lock (fun () ->
        let nz = ref [] in
        for i = n_buckets - 1 downto 0 do
          if h.buckets.(i) > 0 then nz := (bound (i + 1), h.buckets.(i)) :: !nz
        done;
        (h.n, h.sum, h.minv, h.maxv, quantile_locked h 0.50,
         quantile_locked h 0.90, quantile_locked h 0.99, h.under, h.over, !nz))
  in
  let stat v = if n = 0 then Json.Null else Json.Float v in
  Json.Obj
    [
      ("count", Json.Int n);
      ("sum", Json.Float sum);
      ("min", stat minv);
      ("max", stat maxv);
      ("p50", stat p50);
      ("p90", stat p90);
      ("p99", stat p99);
      ("underflow", Json.Int under);
      ("overflow", Json.Int over);
      ( "buckets",
        Json.List
          (List.map
             (fun (le, c) -> Json.List [ Json.Float le; Json.Int c ])
             buckets) );
    ]

let to_json reg =
  Json.Obj
    [
      ("version", Json.Int json_version);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, m) ->
               let v =
                 match m with
                 | Counter c -> Json.Int (Atomic.get c)
                 | Gauge g -> Json.Float (Atomic.get g)
                 | Histogram h -> histogram_json h
               in
               (name, v))
             (sorted_bindings reg)) );
    ]

(* Prometheus text exposition (version 0.0.4): one [# TYPE] line per
   metric, names prefixed [tsms_] with non-[a-zA-Z0-9_] mapped to '_'.
   Histogram buckets are cumulative and sparse — only bucket bounds that
   hold samples are emitted, plus the mandatory [+Inf]. *)
let prom_name name =
  let b = Bytes.of_string name in
  for i = 0 to Bytes.length b - 1 do
    match Bytes.get b i with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ()
    | _ -> Bytes.set b i '_'
  done;
  "tsms_" ^ Bytes.to_string b

let prom_float v = Printf.sprintf "%.9g" v

let render_prom reg =
  let buf = Buffer.create 1024 in
  List.iter
    (fun (name, m) ->
      let pname = prom_name name in
      match m with
      | Counter c ->
          Printf.bprintf buf "# TYPE %s counter\n%s %d\n" pname pname
            (Atomic.get c)
      | Gauge g ->
          Printf.bprintf buf "# TYPE %s gauge\n%s %s\n" pname pname
            (prom_float (Atomic.get g))
      | Histogram h ->
          let n, sum, under, buckets =
            with_lock h.lock (fun () ->
                let nz = ref [] in
                for i = n_buckets - 1 downto 0 do
                  if h.buckets.(i) > 0 then
                    nz := (bound (i + 1), h.buckets.(i)) :: !nz
                done;
                (h.n, h.sum, h.under, !nz))
          in
          Printf.bprintf buf "# TYPE %s histogram\n" pname;
          let cum = ref under in
          List.iter
            (fun (le, c) ->
              cum := !cum + c;
              Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" pname
                (prom_float le) !cum)
            buckets;
          Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" pname n;
          Printf.bprintf buf "%s_sum %s\n" pname (prom_float sum);
          Printf.bprintf buf "%s_count %d\n" pname n)
    (sorted_bindings reg);
  Buffer.contents buf

(* Pool telemetry: [Ts_base.Parallel] sits below this library, so it
   reports raw worker events through an injected observer and we feed
   them into [pool.*] metrics here. Installed at module initialisation —
   Metrics is linked into every binary that uses the pool. *)
let () =
  let task_ms = histogram default "pool.task_ms" in
  let busy_ms = histogram default "pool.worker_busy_ms" in
  let tasks = counter default "pool.tasks" in
  let steals = counter default "pool.steals" in
  let idle_waits = counter default "pool.idle_waits" in
  let idle_ms = histogram default "pool.idle_ms" in
  Ts_base.Parallel.set_observer
    (Some
       (function
         | Ts_base.Parallel.Task_done { wall_s; _ } ->
             incr tasks;
             observe task_ms (wall_s *. 1000.0)
         | Ts_base.Parallel.Worker_exit { busy_s; _ } ->
             observe busy_ms (busy_s *. 1000.0)
         | Ts_base.Parallel.Steal _ -> incr steals
         | Ts_base.Parallel.Idle { wait_s; _ } ->
             incr idle_waits;
             observe idle_ms (wait_s *. 1000.0)))
