(* The fast path's all-hit line sets as they stood while the fast path
   served only round-robin placements: per load, one address per (line,
   iteration mod ncore) residue class, deduplicated through a [Hashtbl].
   Load [v] runs iteration [t] on core [(t + stage v) mod ncore], so core
   [c] sees residue [(c - stage v) mod ncore]. It is kept as the
   reference the per-core construction must agree with under
   round-robin, the way [Ref_order] is kept for [Ts_sms.Order]. *)

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let line_sets plan ~line ~ncore ~loads =
  List.map
    (fun v ->
      let st = Ts_spmt.Address_plan.streams plan in
      match (st.(3 * v), st.((3 * v) + 1), st.((3 * v) + 2) + 1) with
      | _, _, 0 -> (v, Array.make ncore [])
      | base, stride, ws ->
          let pv = ws / gcd stride ws in
          let l = pv * ncore / gcd pv ncore in
          let per_res = Array.make ncore [] in
          let seen = Hashtbl.create 64 in
          for t = 0 to l - 1 do
            let addr = base + (stride * t mod ws) in
            let key = (t mod ncore, addr / line) in
            if not (Hashtbl.mem seen key) then begin
              Hashtbl.replace seen key ();
              per_res.(t mod ncore) <- addr :: per_res.(t mod ncore)
            end
          done;
          (v, per_res))
    loads

(* Core [c]'s addresses: every load's residue class on that core. *)
let per_core (k : Ts_modsched.Kernel.t) plan ~line ~ncore ~loads =
  let sets = line_sets plan ~line ~ncore ~loads in
  Array.init ncore (fun c ->
      List.concat_map
        (fun (v, per_res) ->
          let stage = k.Ts_modsched.Kernel.stage.(v) in
          per_res.((((c - stage) mod ncore) + ncore) mod ncore))
        sets)
