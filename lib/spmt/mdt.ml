(* A pooled table: every record is an entry index into struct-of-arrays
   int storage, so the steady state allocates nothing. Three structures
   share the entries:

   - per-address chains, doubly linked, newest first. Records arrive in
     nondecreasing thread order, so each chain is sorted by thread
     (descending) and its horizon-expired entries form a suffix;
   - an open-addressing (linear probing) index from address to chain
     head, with backward-shift deletion so that it holds exactly the
     addresses that have live entries;
   - a record-order FIFO (a ring of entry indices). It is sorted by
     thread for the same reason, so [retire] pops a prefix, and each
     popped live entry is the tail of its chain.

   An entry pruned by [record_store] leaves its chain at once but stays
   in the FIFO, marked [dead], until [retire] reaches it; only then does
   it return to the free list. *)

let no_conflict = min_int
let dead = -2

type t = {
  mutable horizon : int;
  (* entry pool *)
  mutable e_thread : int array;
  mutable e_addr : int array;
  mutable e_finish : int array;
  mutable e_next : int array; (* older entry of the chain; free-list link *)
  mutable e_prev : int array; (* newer entry, -1 at the chain head, [dead] *)
  mutable free : int; (* free-list head, -1 when empty *)
  mutable used : int; (* entries handed out fresh since [clear] *)
  (* record-order FIFO *)
  mutable fifo : int array;
  mutable f_head : int;
  mutable f_len : int;
  (* address index: [heads.(s) = -1] marks an empty slot *)
  mutable keys : int array;
  mutable heads : int array;
  mutable shift : int; (* Sys.int_size - log2 (index capacity) *)
  mutable n_keys : int;
  mutable last : int; (* the latest recorded thread *)
  mutable live : int;
  mutable peak : int;
}

let create ~horizon =
  {
    horizon;
    e_thread = Array.make 64 0;
    e_addr = Array.make 64 0;
    e_finish = Array.make 64 0;
    e_next = Array.make 64 0;
    e_prev = Array.make 64 0;
    free = -1;
    used = 0;
    fifo = Array.make 64 0;
    f_head = 0;
    f_len = 0;
    keys = Array.make 64 0;
    heads = Array.make 64 (-1);
    shift = Sys.int_size - 6;
    n_keys = 0;
    last = min_int;
    live = 0;
    peak = 0;
  }

(* Capacities survive [clear], so a cleared MDT starts the next run with
   the storage the previous one needed: the arena reuse path.
   Observationally identical to a fresh [create]. *)
let clear t ~horizon =
  t.horizon <- horizon;
  t.free <- -1;
  t.used <- 0;
  t.f_head <- 0;
  t.f_len <- 0;
  if t.n_keys > 0 then Array.fill t.heads 0 (Array.length t.heads) (-1);
  t.n_keys <- 0;
  t.last <- min_int;
  t.live <- 0;
  t.peak <- 0

(* ---- address index ---- *)

(* Fibonacci hashing: the top bits of the product. *)
let[@inline] home t addr = (addr * 0x2545F4914F6CDD1D) lsr t.shift

(* The slot holding [addr], or the empty slot where it would go. *)
let find_slot t addr =
  let mask = Array.length t.heads - 1 in
  let s = ref (home t addr) in
  while
    Array.unsafe_get t.heads !s >= 0 && Array.unsafe_get t.keys !s <> addr
  do
    s := (!s + 1) land mask
  done;
  !s

let grow_index t =
  let old_keys = t.keys and old_heads = t.heads in
  let cap = 2 * Array.length old_heads in
  t.keys <- Array.make cap 0;
  t.heads <- Array.make cap (-1);
  t.shift <- t.shift - 1;
  Array.iteri
    (fun i h ->
      if h >= 0 then begin
        let s = find_slot t old_keys.(i) in
        t.keys.(s) <- old_keys.(i);
        t.heads.(s) <- h
      end)
    old_heads

(* Backward-shift deletion: later members of the probe run move up into
   the hole unless their home lies cyclically in (hole, member]. *)
let delete_slot t s =
  let mask = Array.length t.heads - 1 in
  let hole = ref s and j = ref ((s + 1) land mask) in
  while Array.unsafe_get t.heads !j >= 0 do
    let h = home t (Array.unsafe_get t.keys !j) in
    let stays =
      if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j
    in
    if not stays then begin
      t.keys.(!hole) <- t.keys.(!j);
      t.heads.(!hole) <- t.heads.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  t.heads.(!hole) <- -1;
  t.n_keys <- t.n_keys - 1

(* ---- entry pool and FIFO ---- *)

let grown a len fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 len;
  b

let alloc_entry t =
  if t.free >= 0 then begin
    let e = t.free in
    t.free <- t.e_next.(e);
    e
  end
  else begin
    if t.used = Array.length t.e_thread then begin
      t.e_thread <- grown t.e_thread t.used 0;
      t.e_addr <- grown t.e_addr t.used 0;
      t.e_finish <- grown t.e_finish t.used 0;
      t.e_next <- grown t.e_next t.used 0;
      t.e_prev <- grown t.e_prev t.used 0
    end;
    t.used <- t.used + 1;
    t.used - 1
  end

let fifo_push t e =
  let cap = Array.length t.fifo in
  if t.f_len = cap then begin
    let b = Array.make (2 * cap) 0 in
    for i = 0 to cap - 1 do
      b.(i) <- t.fifo.((t.f_head + i) land (cap - 1))
    done;
    t.fifo <- b;
    t.f_head <- 0
  end;
  t.fifo.((t.f_head + t.f_len) land (Array.length t.fifo - 1)) <- e;
  t.f_len <- t.f_len + 1

(* ---- operations ---- *)

let record_store t ~thread ~addr ~finish =
  if thread < t.last then
    invalid_arg
      (Printf.sprintf "Mdt.record_store: thread %d recorded after thread %d"
         thread t.last);
  t.last <- thread;
  if 2 * (t.n_keys + 1) > Array.length t.heads then grow_index t;
  let s = find_slot t addr in
  let head =
    if t.heads.(s) >= 0 then t.heads.(s)
    else begin
      t.keys.(s) <- addr;
      t.n_keys <- t.n_keys + 1;
      -1
    end
  in
  (* Cut the chain's horizon-expired suffix: those entries leave the
     table here (not through [retire]), so they come off the live count
     too. *)
  let stale = thread - t.horizon in
  let keep = ref (-1) and e = ref head in
  while !e >= 0 && t.e_thread.(!e) > stale do
    keep := !e;
    e := t.e_next.(!e)
  done;
  if !keep >= 0 then t.e_next.(!keep) <- -1;
  while !e >= 0 do
    let nx = t.e_next.(!e) in
    t.e_prev.(!e) <- dead;
    t.live <- t.live - 1;
    e := nx
  done;
  let n = alloc_entry t in
  let head = if !keep >= 0 then head else -1 in
  t.e_thread.(n) <- thread;
  t.e_addr.(n) <- addr;
  t.e_finish.(n) <- finish;
  t.e_next.(n) <- head;
  t.e_prev.(n) <- -1;
  if head >= 0 then t.e_prev.(head) <- n;
  t.heads.(s) <- n;
  fifo_push t n;
  t.live <- t.live + 1;
  if t.live > t.peak then t.peak <- t.live

let conflict t ~thread ~addr ~issue =
  let s = find_slot t addr in
  let best = ref no_conflict in
  let e = ref t.heads.(s) and stale = thread - t.horizon in
  while !e >= 0 && t.e_thread.(!e) > stale do
    let i = !e in
    if t.e_thread.(i) < thread && t.e_finish.(i) > issue && t.e_finish.(i) > !best
    then best := t.e_finish.(i);
    e := t.e_next.(i)
  done;
  !best

let retire t ~upto =
  let mask = Array.length t.fifo - 1 in
  while
    t.f_len > 0
    &&
    let e = t.fifo.(t.f_head) in
    t.e_prev.(e) = dead || t.e_thread.(e) < upto
  do
    let e = t.fifo.(t.f_head) in
    t.f_head <- (t.f_head + 1) land mask;
    t.f_len <- t.f_len - 1;
    if t.e_prev.(e) <> dead then begin
      (* the oldest live entry of its address: the chain's tail *)
      let p = t.e_prev.(e) in
      if p >= 0 then t.e_next.(p) <- -1
      else delete_slot t (find_slot t t.e_addr.(e));
      t.live <- t.live - 1
    end;
    t.e_next.(e) <- t.free;
    t.free <- e
  done

let peak_entries t = t.peak
let live_entries t = t.live
