(** Deterministic, plan-driven fault injection.

    Every recovery path in the system — cache write failures, torn
    entries, unreadable entries, worker exceptions, slow tasks — is
    reachable on demand through a {e fault plan}: a list of (point, key)
    pairs naming exactly which occurrences of which instrumented points
    must fail. Plans are explicit data (armed once, process-wide), so an
    injected-fault run is reproducible bit for bit, in the spirit of the
    fuzz subsystem's seeded generators.

    Instrumented points come in two keyings:

    - {b counter points} ({!check}, {!guard}): each call consumes one
      occurrence of the point, numbered from 1 in call order. Used by the
      persist layer ([persist.write], [persist.read], [persist.open])
      and the cached
      reconstruction path ([cached.reconstruct]). Occurrence numbering is
      deterministic for sequential callers (tests run with [--jobs 1]);
      under a domain pool only [*]-keyed entries are order-independent.
    - {b task points} ({!check_task}): the key is a caller-supplied task
      index plus a retry-attempt ordinal, so injection into the
      [worker] point of a supervised sweep hits the same input at any
      pool size.

    The plan text format (CLI [--fault-plan], [$TSMS_FAULT_PLAN] — comma
    separated entries):

    {v point@key[#attempt][:kind]
       key     = occurrence/index number, or * for every occurrence
       attempt = fail only this retry attempt (1-based; task points only)
       kind    = exn (default) | torn | slowMS   e.g. slow50 v}

    Examples: [persist.write@*] (every cache write fails),
    [worker@3] (sweep task 3 fails every attempt),
    [worker@*#1] (every task fails its first attempt, retries succeed),
    [persist.write@2:torn] (the second write leaves a torn record). *)

type kind =
  | Exn  (** raise {!Injected} at the point *)
  | Torn  (** persist writes only: write half the payload "successfully" *)
  | Slow of int  (** sleep this many milliseconds, then proceed *)

type entry = {
  point : string;
  key : int option;  (** [None] = every occurrence / index *)
  attempt : int option;  (** [None] = every attempt *)
  kind : kind;
}

type plan = entry list

exception Injected of string
(** Raised (carrying the point name) by {!guard} and by supervised
    workers when an armed entry fires with kind {!Exn}. *)

val parse : string -> (plan, string) result
(** Parse the plan text format above. The empty string is the empty
    plan. *)

val to_string : plan -> string
(** Render a plan back to the text format ([parse]-[to_string] round
    trips). *)

val seeded : seed:int -> point:string -> n:int -> out_of:int -> plan
(** A seed-driven plan: [n] distinct occurrences of [point] drawn
    uniformly from [1..out_of] by a {!Ts_base.Rng} stream derived from
    [seed] — the same seed always yields the same plan. *)

val arm : plan -> unit
(** Install [plan] process-wide and reset every occurrence counter. *)

val disarm : unit -> unit
(** Remove the plan: every check becomes a no-op. *)

val armed : unit -> bool

val arm_from_env : unit -> (unit, string) result
(** Arm the plan in [$TSMS_FAULT_PLAN], if set and non-empty; [Error]
    describes a malformed plan (the CLIs turn it into a clean startup
    error). *)

val check : string -> kind option
(** Consume one occurrence of counter point [point] and return the armed
    fault for it, if any. Unarmed: [None] without counting. Each
    injection increments the [fault.injected] counter. *)

val check_task : string -> index:int -> attempt:int -> kind option
(** The armed fault for task [index]'s [attempt] at a task point, if
    any. Consumes nothing. *)

val guard : string -> unit
(** [guard point] acts on [check point]: raises {!Injected} for [Exn]
    (and [Torn], which only write sites interpret specially), sleeps for
    [Slow]. *)

val set_sleep : (float -> unit) option -> unit
(** Replace the sleep used by [Slow] faults and by supervised-retry
    backoff ([None] restores [Unix.sleepf]). Tests install a recorder:
    backoff sequences are then observable and instantaneous. *)

val sleep : float -> unit
(** The current sleep function (seconds). *)
