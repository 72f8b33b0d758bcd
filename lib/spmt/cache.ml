type t = {
  set_mask : int; (* n_sets - 1 *)
  line_shift : int; (* log2 line *)
  assoc : int;
  tags : int array; (* flat [set * assoc + way]: block tag or -1 *)
  lru : int array; (* flat [set * assoc + way]: age; 0 = most recent *)
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let rec go acc x = if x = 1 then acc else go (acc + 1) (x lsr 1) in
  go 0 x

let create ~size ~assoc ~line =
  if not (is_pow2 size && is_pow2 assoc && is_pow2 line) then
    invalid_arg "Cache.create: size, assoc and line must be powers of two";
  if size < assoc * line then invalid_arg "Cache.create: size too small";
  let n_sets = size / (assoc * line) in
  {
    set_mask = n_sets - 1;
    line_shift = log2 line;
    assoc;
    tags = Array.make (n_sets * assoc) (-1);
    lru = Array.init (n_sets * assoc) (fun i -> i mod assoc);
    hits = 0;
    misses = 0;
  }

(* The paths below run once per simulated cache access, which makes them
   the hottest code in the whole simulator, and they must not allocate
   (test_sim.ml pins it): without flambda, ocamlopt allocates a returned
   (block, base) tuple and a local closure over them even when it inlines
   the call, so the set is selected by shift/mask into a base offset of
   the flat arrays and the way search is a plain loop. Indexing is unsafe
   because offsets are in range by construction. LRU semantics are the
   textbook aging scheme the naive {!Ts_check.Ref_models} mirror
   implements: ages count up from 0 = most recent, the victim is the
   highest age (lowest way on ties). *)

let[@inline] block_of t addr = addr lsr t.line_shift
let[@inline] set_base t block = (block land t.set_mask) * t.assoc

(* The way holding [block] in the set at [base], or -1. *)
let find_way t base block =
  let way = ref (-1) and i = ref 0 in
  while !way < 0 && !i < t.assoc do
    if Array.unsafe_get t.tags (base + !i) = block then way := !i;
    incr i
  done;
  !way

let touch_at t base way =
  let old = Array.unsafe_get t.lru (base + way) in
  for i = base to base + t.assoc - 1 do
    let a = Array.unsafe_get t.lru i in
    if a < old then Array.unsafe_set t.lru i (a + 1)
  done;
  Array.unsafe_set t.lru (base + way) 0

let victim t base =
  let best = ref 0 and best_age = ref (Array.unsafe_get t.lru base) in
  for i = 1 to t.assoc - 1 do
    let a = Array.unsafe_get t.lru (base + i) in
    if a > !best_age then begin
      best := i;
      best_age := a
    end
  done;
  !best

let access t addr =
  let block = block_of t addr in
  let base = set_base t block in
  let way = find_way t base block in
  if way >= 0 then begin
    t.hits <- t.hits + 1;
    touch_at t base way;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    let way = victim t base in
    Array.unsafe_set t.tags (base + way) block;
    touch_at t base way;
    false
  end

let probe t addr =
  let block = block_of t addr in
  find_way t (set_base t block) block >= 0

let invalidate t addr =
  let block = block_of t addr in
  let base = set_base t block in
  let way = find_way t base block in
  if way >= 0 then Array.unsafe_set t.tags (base + way) (-1)

let fill t addr =
  let block = block_of t addr in
  let base = set_base t block in
  let way = find_way t base block in
  if way >= 0 then touch_at t base way
  else begin
    let way = victim t base in
    Array.unsafe_set t.tags (base + way) block;
    touch_at t base way
  end

let stats t = (t.hits, t.misses)

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  (* [assoc] is a power of two: a mask, not a division per way *)
  let mask = t.assoc - 1 in
  for i = 0 to Array.length t.lru - 1 do
    Array.unsafe_set t.lru i (i land mask)
  done;
  t.hits <- 0;
  t.misses <- 0
