type policy = Round_robin | Locality | Sync_aware

let all = [ Round_robin; Locality; Sync_aware ]

let policy_to_string = function
  | Round_robin -> "round-robin"
  | Locality -> "locality"
  | Sync_aware -> "sync"

let policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "round-robin" | "rr" | "roundrobin" -> Some Round_robin
  | "locality" | "locality-aware" -> Some Locality
  | "sync" | "sync-aware" -> Some Sync_aware
  | _ -> None

let pp_policy ppf p = Format.pp_print_string ppf (policy_to_string p)

type t = {
  policy : policy;
  ncore : int;
  period : int;
  seq : int array;
  scales : int array;
  c_reg_com : int;
}

let max_weight = 8

let scales_of (p : Spmt_params.t) =
  Array.init p.Spmt_params.ncore (fun i ->
      (Spmt_params.core_desc p i).Spmt_params.lat_scale)

(* Thread slots a core receives per period, proportional to its speed:
   a core running at half speed gets half the threads. Weights are
   capped so adversarial [lat_scale]s cannot explode the period. *)
let weights scales =
  let max_scale = Array.fold_left max 1 scales in
  Array.map (fun s -> min max_weight (max 1 (max_scale / s))) scales

let make policy (p : Spmt_params.t) =
  Spmt_params.validate ~who:"Placement.make" p;
  let ncore = p.Spmt_params.ncore in
  let scales = scales_of p in
  let seq =
    match policy with
    | Round_robin -> Array.init ncore (fun i -> i)
    | Locality ->
        (* Weighted ring walk: visit cores in ring order, giving fast
           cores proportionally more rounds. Consecutive iterations land
           on ring-adjacent cores (1-hop SEND/RECV) except at round
           boundaries; homogeneous machines degenerate to round-robin. *)
        let w = weights scales in
        let maxw = Array.fold_left max 1 w in
        let buf = Buffer.create 16 in
        for r = 0 to maxw - 1 do
          for c = 0 to ncore - 1 do
            if r < w.(c) then Buffer.add_char buf (Char.chr c)
          done
        done;
        Array.init (Buffer.length buf) (fun i -> Char.code (Buffer.nth buf i))
    | Sync_aware ->
        (* Keep dependent iterations on fast cores: the cross-thread sync
           chain pays the receiver's latency scale on every RECV, so the
           policy refuses to place threads on scaled-down cores at all
           and round-robins over the fastest tier only. Homogeneous
           machines degenerate to round-robin. *)
        let min_scale = Array.fold_left min max_int scales in
        let fast =
          List.filter
            (fun c -> scales.(c) = min_scale)
            (List.init ncore (fun i -> i))
        in
        Array.of_list fast
  in
  { policy; ncore; period = Array.length seq; seq; scales;
    c_reg_com = p.Spmt_params.c_reg_com }

let policy t = t.policy
let period t = t.period
let seq t = Array.copy t.seq
let core t j = t.seq.(j mod t.period)

let hops t ~src_core ~dst_core =
  (dst_core - src_core + t.ncore) mod t.ncore

(* Distance-[dk] communication latency into consumer thread [dst].

   Round-robin keeps the paper's thread-forwarding model ([dk] hops of
   [c_reg_com] — Definition 2) untouched, which is what pins the
   homogeneous golden outputs. The explicit policies charge the physical
   unidirectional-ring distance between the two assigned cores (1 cycle
   when the threads share a core — a register-file forward) plus the
   receiving core's slowdown on the RECV. *)
let comm_cycles t ~dk ~dst =
  if t.policy = Round_robin then dk * t.c_reg_com
  else begin
    let dst_pos = dst mod t.period in
    let src_pos = ((dst_pos - dk) mod t.period + t.period) mod t.period in
    let dst_core = t.seq.(dst_pos) and src_core = t.seq.(src_pos) in
    let h = hops t ~src_core ~dst_core in
    (if h = 0 then 1 else h * t.c_reg_com) + (t.scales.(dst_core) - 1)
  end

let cores_used t =
  let seen = Array.make t.ncore false in
  Array.iter (fun c -> seen.(c) <- true) t.seq;
  Array.fold_left (fun n b -> if b then n + 1 else n) 0 seen

(* What the cost model should price in (Definition 2 under the placement):
   the worst distance-1 SEND/RECV cost anywhere in the period, and the
   core count actually reachable. Round-robin on any machine keeps the
   paper's parameters verbatim — the legacy comm model is unchanged. *)
let effective_params pol (p : Spmt_params.t) =
  match pol with
  | Round_robin -> p
  | Locality | Sync_aware ->
      let t = make pol p in
      let worst = ref 0 in
      for dst = 0 to t.period - 1 do
        worst := max !worst (comm_cycles t ~dk:1 ~dst)
      done;
      (* The scheduler has no per-core resource model — only the comm
         cost and the reachable parallelism survive into its view. *)
      { p with Spmt_params.c_reg_com = !worst; ncore = cores_used t;
        cores = [||] }

let describe t =
  let b = Buffer.create 32 in
  Buffer.add_string b (policy_to_string t.policy);
  Buffer.add_string b ": [";
  Array.iteri
    (fun i c ->
      if i > 0 then Buffer.add_char b ' ';
      Buffer.add_string b (string_of_int c))
    t.seq;
  Buffer.add_char b ']';
  Buffer.contents b
