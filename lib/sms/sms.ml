type result = { kernel : Ts_modsched.Kernel.t; mii : int; attempts : int }

exception No_schedule of string

(* Place [v] at the first cycle from [c] to [last] (stepping by [step])
   where it fits; [false] when none does. *)
let rec place_first s v c ~step ~last =
  if Ts_modsched.Sched.fits s v ~cycle:c then begin
    Ts_modsched.Sched.place s v ~cycle:c;
    true
  end
  else if c = last then false
  else place_first s v (c + step) ~step ~last

let try_ii g ~ii ~order =
  let s = Ts_modsched.Sched.create g ~ii in
  let rec place_all = function
    | [] -> true
    | (v, prefer) :: rest -> (
        match Ts_modsched.Sched.window ~prefer s v with
        | None -> false
        | Some (lo, hi, Ts_modsched.Sched.Up) ->
            place_first s v lo ~step:1 ~last:hi && place_all rest
        | Some (lo, hi, Ts_modsched.Sched.Down) ->
            place_first s v hi ~step:(-1) ~last:lo && place_all rest)
  in
  if place_all order then Some (Ts_modsched.Kernel.of_schedule s) else None

module Trace = Ts_obs.Trace

let m_attempts = Ts_obs.Metrics.counter Ts_obs.Metrics.default "sms.attempts"

let m_schedules =
  Ts_obs.Metrics.counter Ts_obs.Metrics.default "sms.schedules"

let phase_span trace name f =
  if not (Trace.enabled trace) then f ()
  else begin
    Trace.begin_span trace ~ts:(Trace.tick trace) name;
    Fun.protect ~finally:(fun () -> Trace.end_span trace ~ts:(Trace.tick trace) name) f
  end

type swing = { mii : int; order : (int * Ts_modsched.Sched.direction) list }

let swing g =
  let mii = Ts_ddg.Mii.mii g in
  { mii; order = Order.compute_with_dirs g ~ii:mii }

let schedule ?(trace = Trace.null) ?max_ii ?swing:given g =
  Ts_obs.Prof.span "sms.schedule" @@ fun () ->
  let { mii; order } =
    phase_span trace "sms.order" (fun () ->
        match given with Some s -> Lazy.force s | None -> swing g)
  in
  let max_ii =
    match max_ii with Some m -> m | None -> Ts_ddg.Mii.ii_upper_bound g
  in
  let rec go ii attempts =
    if ii > max_ii then
      raise
        (No_schedule
           (Printf.sprintf "SMS: no schedule for %s with II in [%d, %d]" g.name mii
              max_ii))
    else begin
      Ts_obs.Metrics.incr m_attempts;
      let res = try_ii g ~ii ~order in
      if Trace.enabled trace then
        Trace.instant trace ~ts:(Trace.tick trace) "sms.attempt"
          ~args:
            [
              ("ii", Ts_obs.Json.Int ii);
              ("accepted", Ts_obs.Json.Bool (res <> None));
            ];
      match res with
      | Some kernel -> { kernel; mii; attempts }
      | None -> go (ii + 1) (attempts + 1)
    end
  in
  let r = phase_span trace "sms.placement" (fun () -> go mii 1) in
  Ts_obs.Metrics.incr m_schedules;
  r
