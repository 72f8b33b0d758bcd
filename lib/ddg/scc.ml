type component = int list

(* Iterative Tarjan over preallocated arrays, so deep graphs cannot
   overflow the OCaml stack and a labelling allocates O(n) words: a frame
   is a node and the rest of its successor edge list. Labels each node
   with the index of its component in emission order, which is already
   reverse topological order of the condensation, and returns the count.
   A visited node is on the Tarjan stack iff it has no label yet. *)
let label (g : Ddg.t) =
  let n = Ddg.n_nodes g in
  let index = Array.make n (-1) and lowlink = Array.make n 0 in
  let owner = Array.make n (-1) in
  let stack = Array.make n 0 and sp = ref 0 in
  let frame_v = Array.make n 0 and frame_rest = Array.make n [] and fp = ref 0 in
  let next_index = ref 0 and count = ref 0 in
  let push v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    frame_v.(!fp) <- v;
    frame_rest.(!fp) <- g.succs.(v);
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      push root;
      while !fp > 0 do
        let f = !fp - 1 in
        let v = frame_v.(f) in
        match frame_rest.(f) with
        | (e : Ddg.edge) :: more ->
            frame_rest.(f) <- more;
            let w = e.dst in
            if index.(w) = -1 then push w
            else if owner.(w) = -1 then lowlink.(v) <- min lowlink.(v) index.(w)
        | [] ->
            fp := f;
            if lowlink.(v) = index.(v) then begin
              (* v is the root of a component: pop down to v. *)
              let popped = ref (-1) in
              while !popped <> v do
                decr sp;
                popped := stack.(!sp);
                owner.(!popped) <- !count
              done;
              incr count
            end;
            if f > 0 then begin
              let u = frame_v.(f - 1) in
              lowlink.(u) <- min lowlink.(u) lowlink.(v)
            end
      done
    end
  done;
  (owner, !count)

let compute g : component list =
  let owner, count = label g in
  let comps = Array.make count [] in
  for v = Ddg.n_nodes g - 1 downto 0 do
    comps.(owner.(v)) <- v :: comps.(owner.(v))
  done;
  Array.to_list comps

let is_non_trivial (g : Ddg.t) = function
  | [] -> false
  | [ v ] -> List.exists (fun (e : Ddg.edge) -> e.dst = v) g.succs.(v)
  | _ :: _ :: _ -> true

let non_trivial g = List.filter (is_non_trivial g) (compute g)

let count_non_trivial g = List.length (non_trivial g)

let component_of g = fst (label g)
