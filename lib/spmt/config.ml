type t = {
  params : Ts_isa.Spmt_params.t;
  placement : Ts_isa.Placement.policy;
  l1_hit : int;
  l2_hit : int;
  mem_latency : int;
  l1_size : int;
  l1_assoc : int;
  l2_size : int;
  l2_assoc : int;
  line : int;
}

let default =
  {
    params = Ts_isa.Spmt_params.default;
    placement = Ts_isa.Placement.Round_robin;
    l1_hit = 3;
    l2_hit = 12;
    mem_latency = 80;
    l1_size = 16 * 1024;
    l1_assoc = 4;
    l2_size = 1024 * 1024;
    l2_assoc = 4;
    line = 32;
  }

let two_core = { default with params = Ts_isa.Spmt_params.two_core }

let with_ncore t ncore =
  { t with params = Ts_isa.Spmt_params.with_ncore t.params ncore }

let with_placement t placement = { t with placement }

let pp ppf t =
  let p = t.params in
  let machine_row =
    if Ts_isa.Spmt_params.heterogeneous p then
      Printf.sprintf "%d (%s), unidirectional ring" p.ncore
        (Ts_isa.Spmt_params.mix_to_string p)
    else Printf.sprintf "%d, unidirectional ring" p.ncore
  in
  Format.fprintf ppf
    "@[<v>Fetch, Issue, Commit    bandwidth 4, out-of-order issue@,\
     Cores                   %s@,\
     Placement               %s@,\
     L1 D-Cache              %dKB, %d-way, %d cycle (hit)@,\
     L2 Cache (shared)       %dMB, %d-way, %d cycles (hit), %d cycles (miss)@,\
     SEND/RECV Latency       %d cycles@,\
     Spawn Overhead          %d cycles@,\
     Commit Overhead         %d cycles@,\
     Invalidation Overhead   %d cycles@,\
     Speculative write buffer not modelled (unbounded)@]" machine_row
    (Ts_isa.Placement.policy_to_string t.placement)
    (t.l1_size / 1024) t.l1_assoc t.l1_hit
    (t.l2_size / 1024 / 1024)
    t.l2_assoc t.l2_hit t.mem_latency p.c_reg_com p.c_spawn p.c_commit p.c_inv
