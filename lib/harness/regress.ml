(* Bench regression gate: compare a fresh BENCH_*.json against a
   committed baseline.

   Only time-like numeric leaves are compared ([*wall_s] and [*_ms]) and
   only one-sidedly — fresh must not exceed baseline by more than the
   tolerance factor. Derived numbers (speedups, attempts/sec, the cache's
   warm/cold ratio) are redundant with the times they are computed from,
   and a ratio fails when its denominator gets faster. Machines differ
   enough that a two-sided "too fast is also a failure" check would only
   produce noise. A time-like leaf present in the baseline but missing from the
   fresh run is a failure: silently dropping a workload is exactly how a
   regression hides. *)

module J = Ts_obs.Json

type verdict = {
  path : string;
  baseline : float;
  fresh : float;
  ratio : float;
  ok : bool;
}

type outcome = {
  what : string;
  tolerance : float;
  verdicts : verdict list;
  missing : string list;
}

let time_like key =
  let ends_with suf = String.length key >= String.length suf
    && String.sub key (String.length key - String.length suf) (String.length suf) = suf
  in
  ends_with "wall_s" || ends_with "_ms"

(* Flatten a JSON document to its time-like numeric leaves, keyed by a
   dotted path ("workloads[3].wall_s"). Array elements keep their index:
   bench output order is deterministic, so paths line up between runs. *)
let leaves (j : J.t) =
  let acc = ref [] in
  let rec go path key j =
    match j with
    | J.Obj fields ->
        List.iter (fun (k, v) -> go (path ^ (if path = "" then "" else ".") ^ k) k v) fields
    | J.List items ->
        List.iteri (fun i v -> go (Printf.sprintf "%s[%d]" path i) key v) items
    | J.Int n -> if time_like key then acc := (path, float_of_int n) :: !acc
    | J.Float f -> if time_like key then acc := (path, f) :: !acc
    | J.Null | J.Bool _ | J.Str _ -> ()
  in
  go "" "" j;
  List.rev !acc

let compare_json ~what ~tolerance ~baseline ~fresh =
  if tolerance < 1.0 then
    invalid_arg "Regress.compare_json: tolerance must be >= 1.0";
  let base = leaves baseline in
  let fresh_tbl = Hashtbl.create 64 in
  List.iter (fun (p, v) -> Hashtbl.replace fresh_tbl p v) (leaves fresh);
  let verdicts, missing =
    List.fold_left
      (fun (vs, ms) (path, b) ->
        match Hashtbl.find_opt fresh_tbl path with
        | None -> (vs, path :: ms)
        | Some f when b <= 0.0 ->
            (* Zero-time baselines (degenerate workloads) carry no signal;
               record them as passing with a neutral ratio. *)
            ({ path; baseline = b; fresh = f; ratio = 1.0; ok = true } :: vs, ms)
        | Some f ->
            let ratio = f /. b in
            ({ path; baseline = b; fresh = f; ratio; ok = ratio <= tolerance }
             :: vs, ms))
      ([], []) base
  in
  { what; tolerance; verdicts = List.rev verdicts; missing = List.rev missing }

let ok o = o.missing = [] && List.for_all (fun v -> v.ok) o.verdicts

let worst o =
  List.fold_left
    (fun acc v ->
      match acc with
      | Some w when w.ratio >= v.ratio -> acc
      | _ -> Some v)
    None o.verdicts

let render o =
  let open Ts_base.Tablefmt in
  let t =
    create
      ~title:(Printf.sprintf "bench check: %s (tolerance %.2fx)" o.what o.tolerance)
      [ ("metric", Left); ("baseline", Right); ("fresh", Right);
        ("ratio", Right); ("verdict", Left) ]
  in
  List.iter
    (fun v ->
      add_row t
        [ v.path; Printf.sprintf "%.4g" v.baseline;
          Printf.sprintf "%.4g" v.fresh; Printf.sprintf "%.2fx" v.ratio;
          (if v.ok then "ok" else "REGRESSION") ])
    o.verdicts;
  List.iter
    (fun path -> add_row t [ path; "-"; "missing"; "-"; "MISSING" ])
    o.missing;
  add_sep t;
  let failed =
    List.length o.missing
    + List.fold_left (fun n v -> if v.ok then n else n + 1) 0 o.verdicts
  in
  add_row t
    [ Printf.sprintf "%d compared, %d failed"
        (List.length o.verdicts) failed; ""; ""; "";
      (if ok o then "PASS" else "FAIL") ];
  render t
