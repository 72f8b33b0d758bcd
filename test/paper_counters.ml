(* [paper_counters METRICS PINS]: compare every counter the JSON object
   in PINS names with the same counter in METRICS, a [--metrics-out]
   file. Prints each counter that differs and exits 1 if any does. *)

module J = Ts_obs.Json

let parse path =
  match J.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let () =
  let metrics = J.member "metrics" (parse Sys.argv.(1)) in
  let pins =
    match parse Sys.argv.(2) with
    | J.Obj pins -> pins
    | _ -> failwith (Sys.argv.(2) ^ ": not a JSON object")
  in
  let ok = ref true in
  List.iter
    (fun (name, want) ->
      let got = Option.bind metrics (J.member name) in
      if got <> Some want then begin
        ok := false;
        Printf.eprintf "%s: pinned %s, got %s\n" name (J.to_string want)
          (Option.fold ~none:"nothing" ~some:J.to_string got)
      end)
    pins;
  if not !ok then exit 1
