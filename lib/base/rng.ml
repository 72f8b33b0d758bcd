(* SplitMix64. State advances by the golden-gamma constant; outputs are the
   finalised mix of the state. See Steele, Lea & Flood, OOPSLA'14. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

(* Inlined, so that a caller's int64 intermediates stay unboxed: [coin2]
   allocates 24 words per call without it. *)
let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create seed = { state = seed }

(* FNV-1a, 64-bit: stable string hashing independent of OCaml's [Hashtbl]
   internals (which may change across compiler releases). *)
let fnv1a s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

let of_string s = create (fnv1a s)

let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t label =
  (* Derive from the *current* state without consuming an output of [t]:
     mixing with the label hash keeps sibling streams independent. *)
  create (mix64 (Int64.add t.state (fnv1a label)))

let derive2 t a b =
  let ha = mix64 (Int64.mul (Int64.of_int (a + 1)) golden_gamma) in
  let hb = mix64 (Int64.mul (Int64.of_int (b + 0x9E37)) 0xC2B2AE3D27D4EB4FL) in
  create (mix64 (Int64.add t.state (Int64.add ha hb)))

(* [bool (derive2 t a b) p] without the intermediate generator: the same
   arithmetic, inlined so the int64 intermediates stay unboxed. Its
   parts hash each key once, for a caller that rolls a grid of coins;
   int64 addition is associative, so the split is bit-identical. *)
let[@inline] coin2_key_a t a =
  Int64.add t.state (mix64 (Int64.mul (Int64.of_int (a + 1)) golden_gamma))

let[@inline] coin2_key_b b =
  mix64 (Int64.mul (Int64.of_int (b + 0x9E37)) 0xC2B2AE3D27D4EB4FL)

let[@inline] coin2_keyed ka kb p =
  let state = Int64.add (mix64 (Int64.add ka kb)) golden_gamma in
  let bits = Int64.shift_right_logical (mix64 state) 11 in
  Int64.to_float bits /. 9007199254740992.0 < p

let coin2 t a b p = coin2_keyed (coin2_key_a t a) (coin2_key_b b) p

let int t bound =
  assert (bound > 0);
  let mask = Int64.of_int max_int in
  let v = Int64.to_int (Int64.logand (next_int64 t) mask) in
  v mod bound

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits into the mantissa. *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t p = float t 1.0 < p

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let pick_weighted t choices =
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 choices in
  assert (total > 0.0);
  let x = float t total in
  let rec go i acc =
    if i = Array.length choices - 1 then fst choices.(i)
    else
      let acc = acc +. snd choices.(i) in
      if x < acc then fst choices.(i) else go (i + 1) acc
  in
  go 0 0.0
