(* Nested span profiling with self-time attribution.

   Each domain keeps its own stack of open frames in domain-local
   storage, so spans nest correctly inside pool workers without any
   locking on the hot path; a frame records wall-clock and allocated-word
   baselines at entry, and children report their totals into the parent
   so the parent can subtract them (self = total - children). Closed
   frames are folded into one global table under a mutex — span names
   are few, so contention is negligible next to the work being timed.

   When disabled (the default), [span] costs one atomic read. *)

type agg = {
  mutable count : int;
  mutable total_s : float;
  mutable self_s : float;
  mutable self_words : float; (* allocated words net of children *)
}

let enabled_flag = Atomic.make false
let started_at = Atomic.make 0.0
let table : (string, agg) Hashtbl.t = Hashtbl.create 32
let table_lock = Mutex.create ()

let enabled () = Atomic.get enabled_flag

let reset () =
  Mutex.lock table_lock;
  Hashtbl.reset table;
  Mutex.unlock table_lock;
  Atomic.set started_at (Unix.gettimeofday ())

let set_enabled b =
  if b then reset ();
  Atomic.set enabled_flag b

type frame = {
  name : string;
  t0 : float;
  words0 : float;
  mutable child_s : float;
  mutable child_words : float;
}

let stack_key : frame list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* Words allocated so far by the calling domain: its minor words plus
   what it allocated straight into the major heap. Both calls read this
   domain's own counters; [Gc.quick_stat] sums every domain's, so a span
   would be charged whatever the other domains allocated during it. The
   minor part comes from [Gc.minor_words] because on OCaml 5.1.1
   [Gc.counters] counts only an eighth of the words in the current
   minor heap. *)
let words_now () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let account name ~total_s ~self_s ~self_words =
  Mutex.lock table_lock;
  (match Hashtbl.find_opt table name with
  | Some a ->
      a.count <- a.count + 1;
      a.total_s <- a.total_s +. total_s;
      a.self_s <- a.self_s +. self_s;
      a.self_words <- a.self_words +. self_words
  | None -> Hashtbl.add table name { count = 1; total_s; self_s; self_words });
  Mutex.unlock table_lock

let span name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let fr =
      { name; t0 = Unix.gettimeofday (); words0 = words_now ();
        child_s = 0.0; child_words = 0.0 }
    in
    stack := fr :: !stack;
    Fun.protect f ~finally:(fun () ->
        (match !stack with
        | top :: rest when top == fr -> stack := rest
        | _ ->
            (* A child span escaped its parent's extent (e.g. an exception
               skipped a finally); drop down to this frame to resync. *)
            let rec pop = function
              | top :: rest -> if top == fr then rest else pop rest
              | [] -> []
            in
            stack := pop !stack);
        let total_s = Unix.gettimeofday () -. fr.t0 in
        let words = words_now () -. fr.words0 in
        account name ~total_s
          ~self_s:(Float.max 0.0 (total_s -. fr.child_s))
          ~self_words:(Float.max 0.0 (words -. fr.child_words));
        match !stack with
        | parent :: _ ->
            parent.child_s <- parent.child_s +. total_s;
            parent.child_words <- parent.child_words +. words
        | [] -> ())
  end

type row = {
  name : string;
  count : int;
  total_s : float;
  self_s : float;
  self_mwords : float; (* millions of words allocated, net of children *)
}

type report = { wall_s : float; rows : row list }

let report () =
  let wall_s = Unix.gettimeofday () -. Atomic.get started_at in
  Mutex.lock table_lock;
  let rows =
    Hashtbl.fold
      (fun name (a : agg) acc ->
        { name; count = a.count; total_s = a.total_s; self_s = a.self_s;
          self_mwords = a.self_words /. 1e6 }
        :: acc)
      table []
  in
  Mutex.unlock table_lock;
  let rows =
    List.sort
      (fun a b ->
        match compare b.self_s a.self_s with 0 -> compare a.name b.name | c -> c)
      rows
  in
  { wall_s; rows }

let coverage r =
  if r.wall_s <= 0.0 then 0.0
  else List.fold_left (fun acc row -> acc +. row.self_s) 0.0 r.rows /. r.wall_s

let render_table r =
  let open Ts_base.Tablefmt in
  let t =
    create ~title:"profile"
      [ ("span", Left); ("calls", Right); ("total s", Right);
        ("self s", Right); ("self %", Right); ("alloc Mw", Right) ]
  in
  List.iter
    (fun row ->
      add_row t
        [ row.name; string_of_int row.count;
          Printf.sprintf "%.3f" row.total_s; Printf.sprintf "%.3f" row.self_s;
          (if r.wall_s > 0.0 then
             Printf.sprintf "%.1f" (100.0 *. row.self_s /. r.wall_s)
           else "-");
          Printf.sprintf "%.2f" row.self_mwords ])
    r.rows;
  add_sep t;
  add_row t
    [ "(wall)"; ""; Printf.sprintf "%.3f" r.wall_s; "";
      Printf.sprintf "%.1f" (100.0 *. coverage r); "" ];
  render t
  ^ "GC time lands in the span that allocated when the minor heap filled.\n"

let to_json r =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("wall_s", Json.Float r.wall_s);
      ("coverage", Json.Float (coverage r));
      ( "spans",
        Json.List
          (List.map
             (fun row ->
               Json.Obj
                 [
                   ("name", Json.Str row.name);
                   ("count", Json.Int row.count);
                   ("total_s", Json.Float row.total_s);
                   ("self_s", Json.Float row.self_s);
                   ("self_mwords", Json.Float row.self_mwords);
                 ])
             r.rows) );
    ]
