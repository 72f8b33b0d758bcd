(* Definitions shared by the benchmark's parent process (e2e.ml) and the
   child process that runs one rep (child.ml). *)

module J = Ts_obs.Json

type workload = Paper_cold | Paper_warm | Spec_c2 | Sim_sweep

let workloads = [ Paper_cold; Paper_warm; Spec_c2; Sim_sweep ]

let name = function
  | Paper_cold -> "paper-cold"
  | Paper_warm -> "paper-warm"
  | Spec_c2 -> "spec-c2"
  | Sim_sweep -> "sim-sweep"

let of_name s = List.find_opt (fun w -> name w = s) workloads

(* Pool size each workload is measured at (the box has two cores). *)
let jobs = function Paper_cold | Sim_sweep -> 1 | Paper_warm | Spec_c2 -> 2

(* Golden outputs, relative to the root of the checkout. *)
let golden_dir = "e2ebench/golden"

(* The paper experiments the two paper workloads regenerate. *)
let paper_names = [ "table2"; "fig4"; "fig5"; "fig6" ]

(* End-to-end metrics: (name, unit). Bounds and directions live in
   BENCHMARK.json at the repository root. *)
let e2e_metrics =
  [
    ("wall_s", "s");
    ("cpu_s", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
    ("alloc_mwords", "Mwords");
    ("tms_speedup_pct", "%");
  ]

let fail msg =
  prerr_endline ("e2e: " ^ msg);
  exit 2

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () -> output_string oc s

let read_json path =
  match J.parse (read_file path) with
  | Ok j -> j
  | Error e -> fail (Printf.sprintf "%s: malformed JSON: %s" path e)
  | exception Sys_error e -> fail e

let write_json path j = write_file path (J.to_string j ^ "\n")

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

(* ---- JSON accessors for the files this benchmark writes itself ---- *)

let member k j = match J.member k j with Some v -> v | None -> J.Null

let num = function
  | J.Int n -> float_of_int n
  | J.Float f -> f
  | _ -> Float.nan

let int_of = function J.Int n -> n | J.Float f -> int_of_float f | _ -> 0
let bool_of = function J.Bool b -> b | _ -> false
let str_of = function J.Str s -> s | _ -> ""
let list_of = function J.List l -> l | _ -> []
let obj_of = function J.Obj l -> l | _ -> []

(* ---- order statistics ---- *)

let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles by the "exclusive" method, which is what
   Python's [statistics.quantiles(xs, n=4)] computes. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = i * (n + 1) in
      let j = max 1 (min (n - 1) (m / 4)) in
      let delta = float_of_int (m - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(* [p] in [0, 1], nearest rank. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))
