type t = {
  set_mask : int; (* n_sets - 1 *)
  line_shift : int; (* log2 line *)
  assoc : int;
  tags : int array;
      (* flat [set * assoc + position]: block tag, -2 for an invalidated
         way or -1 for one no block took since the last reset, each set
         most recent first *)
  dirty : int array; (* bases of the sets that took a block since then *)
  mutable n_dirty : int;
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
    dirty = Array.make n_sets 0;
    n_dirty = 0;
    hits = 0;
    misses = 0;
  }

(* The paths below run once per simulated cache access, which makes them
   the hottest code in the whole simulator, and they must not allocate
   (test_sim.ml pins it): without flambda, ocamlopt allocates a returned
   (block, base) tuple and a local closure over them even when it inlines
   the call, so the set is selected by shift/mask into a base offset of
   the flat array and the way search is a plain loop. Indexing is unsafe
   because offsets are in range by construction. Each set keeps its tags
   in recency order, position 0 the most recent and the last position the
   LRU victim: a hit at position 0 is one compare, and a deeper hit or a
   miss moves the positions above it down by one. An invalidated block
   leaves -2 at its position, so it ages like any other way and is
   evicted only once it is the least recent. That is the LRU the naive
   {!Ts_check.Ref_models} mirror implements with a global clock. *)

let[@inline] block_of t addr = addr lsr t.line_shift
let[@inline] set_base t block = (block land t.set_mask) * t.assoc

(* The position of [block] in the set at [base], or -1. *)
let find t base block =
  let pos = ref (-1) and i = ref 0 in
  while !pos < 0 && !i < t.assoc do
    if Array.unsafe_get t.tags (base + !i) = block then pos := !i;
    incr i
  done;
  !pos

(* A block is about to enter the set at [base]: list the set for [reset]
   if it is the first since the last one. Position 0 holds -1 until then,
   and a block or -2 after. *)
let take t base =
  if Array.unsafe_get t.tags base = -1 then begin
    Array.unsafe_set t.dirty t.n_dirty base;
    t.n_dirty <- t.n_dirty + 1
  end

(* [block] becomes the set's most recent, displacing the one at [pos]:
   itself on a hit, the LRU victim on a miss. *)
let promote t base pos block =
  for i = base + pos downto base + 1 do
    Array.unsafe_set t.tags i (Array.unsafe_get t.tags (i - 1))
  done;
  Array.unsafe_set t.tags base block

let access t addr =
  let block = block_of t addr in
  let base = set_base t block in
  if Array.unsafe_get t.tags base = block then begin
    t.hits <- t.hits + 1;
    true
  end
  else
    let pos = find t base block in
    if pos >= 0 then begin
      t.hits <- t.hits + 1;
      promote t base pos block;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      take t base;
      promote t base (t.assoc - 1) block;
      false
    end

let probe t addr =
  let block = block_of t addr in
  find t (set_base t block) block >= 0

let invalidate t addr =
  let block = block_of t addr in
  let base = set_base t block in
  let pos = find t base block in
  if pos >= 0 then Array.unsafe_set t.tags (base + pos) (-2)

let fill t addr =
  let block = block_of t addr in
  let base = set_base t block in
  let pos = find t base block in
  if pos < 0 then take t base;
  promote t base (if pos >= 0 then pos else t.assoc - 1) block

let stats t = (t.hits, t.misses)

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let reset t =
  for i = 0 to t.n_dirty - 1 do
    let base = t.dirty.(i) in
    for p = base to base + t.assoc - 1 do
      Array.unsafe_set t.tags p (-1)
    done
  done;
  t.n_dirty <- 0;
  t.hits <- 0;
  t.misses <- 0
