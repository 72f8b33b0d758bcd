(* TMS over IMS: a golden of its search results, and its search counters.

   The golden pins every field the grid walk decides — II, the kernel's
   issue times (as a digest), the C_delay threshold it stopped at, the
   achieved C_delay, the attempt count, F_min and the fallback flag — on
   the fixtures and 30 generated loops (8 of them C2-binding), under
   round-robin and locality placement. It was recorded before TMS-over-IMS
   was rebuilt on {!Ts_tms.Tms}'s grid walk; only the attempt column was
   re-recorded since, when the walk began at the C_delay floor
   ({!Ts_tms.Tms.c_delay_floor}) and stopped trying the points below it. *)

module K = Ts_modsched.Kernel
module P = Ts_isa.Spmt_params
module Pl = Ts_isa.Placement

let loops () =
  [
    Fixtures.chain 4; Fixtures.accumulator (); Fixtures.diamond ();
    Fixtures.two_scc (); Fixtures.spec_loop (); Fixtures.motivating ();
  ]
  @ List.init 22 (fun seed ->
        Fixtures.generated ~seed:(300 + seed) ~n_inst:(8 + (seed mod 5 * 7)) ())
  @ Fixtures.c2_loops ()

let configs () =
  let hetero =
    match P.mix_of_string "2fast+2slow" with
    | Ok m -> P.apply_mix P.default m
    | Error e -> failwith e
  in
  [ ("rr", Pl.Round_robin, P.default); ("locality", Pl.Locality, hetero) ]

let times_digest (k : K.t) =
  Digest.to_hex
    (Digest.string
       (String.concat "," (Array.to_list (Array.map string_of_int k.K.time))))

let line ~tag i g ~placement ~params =
  let name = Printf.sprintf "%s %d %s" tag i g.Ts_ddg.Ddg.name in
  match Ts_tms.Tms_ims.schedule ~placement ~params g with
  | exception Ts_sms.Ims.No_schedule _ -> name ^ " no-schedule"
  | r ->
      Printf.sprintf
        "%s ii=%d times=%s threshold=%d c_delay=%d attempts=%d f_min=%h \
         fell_back=%b"
        name r.kernel.K.ii (times_digest r.kernel) r.c_delay_threshold
        r.achieved_c_delay r.attempts r.f_min r.fell_back

let render () =
  List.concat_map
    (fun (tag, placement, params) ->
      List.mapi (fun i g -> line ~tag i g ~placement ~params) (loops ()))
    (configs ())

let read_lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_golden () =
  let expect = read_lines "golden/tms_ims.txt" in
  let got = render () in
  Alcotest.(check int) "entries" (List.length expect) (List.length got);
  List.iter2 (fun e g -> Alcotest.(check string) "entry" e g) expect got

(* One search counts like a TMS-over-SMS search: its attempts on
   [tms.attempts], one [tms.schedules], and a [tms.fallbacks] when the
   grid is exhausted. *)
let test_counters () =
  let value n =
    Ts_obs.Metrics.counter_value
      (Ts_obs.Metrics.counter Ts_obs.Metrics.default n)
  in
  List.iter
    (fun g ->
      let a0 = value "tms.attempts"
      and s0 = value "tms.schedules"
      and f0 = value "tms.fallbacks" in
      let r = Ts_tms.Tms_ims.schedule ~params:P.default g in
      let name = g.Ts_ddg.Ddg.name in
      Alcotest.(check int) (name ^ ": tms.attempts") r.attempts
        (value "tms.attempts" - a0);
      Alcotest.(check int) (name ^ ": tms.schedules") 1
        (value "tms.schedules" - s0);
      Alcotest.(check int) (name ^ ": tms.fallbacks")
        (if r.fell_back then 1 else 0)
        (value "tms.fallbacks" - f0);
      Alcotest.(check bool) (name ^ ": attempted") true (r.attempts > 0))
    [ Fixtures.motivating (); Fixtures.spec_loop (); List.hd (Fixtures.c2_loops ()) ]

let suite =
  [
    Alcotest.test_case "golden results (rr + locality)" `Quick test_golden;
    Alcotest.test_case "counts on tms.* counters" `Quick test_counters;
  ]
