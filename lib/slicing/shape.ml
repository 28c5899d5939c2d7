module Rect = Fp_geometry.Rect
module Tol = Fp_geometry.Tol
module Module_def = Fp_netlist.Module_def

type option_list = (float * float) list

let leaf_options ?(samples = 6) (m : Module_def.t) =
  if samples < 2 then
    invalid_arg
      (Printf.sprintf "Shape.leaf_options: samples = %d, need at least 2"
         samples);
  match m.Module_def.shape with
  | Module_def.Rigid { w; h } ->
    if Tol.equal w h then [ (w, h) ] else [ (w, h); (h, w) ]
  | Module_def.Flexible { area; _ } ->
    let w_min, w_max = Module_def.width_range m in
    if Tol.leq w_max w_min then [ (w_min, area /. w_min) ]
    else
      List.init samples (fun i ->
          let t = float_of_int i /. float_of_int (samples - 1) in
          let w = w_min +. (t *. (w_max -. w_min)) in
          (w, area /. w))

(* Tree with per-node shape curves.  Each curve entry remembers how it
   was produced so realization can walk back down. *)
type entry = { w : float; h : float; li : int; ri : int }

type tree =
  | Leaf of int * (float * float) array
  | Node of Polish.op * sized * sized

and sized = { tree : tree; curve : entry array }

type leaves = sized array

(* One pass of Pareto pruning over entries that arrive in nondecreasing
   width, heights nonincreasing within a width: per run of equal widths
   the last entry is the lowest, and it is kept when it lies below the
   last kept entry by more than [Tol.eps].  [kept] holds the kept
   entries, last first; an entry of the last kept width belongs to the
   same run and is no higher, so it replaces that entry. *)
let keep kept e =
  match kept with
  | last :: rest when Float.equal last.w e.w -> e :: rest
  | last :: _ when Tol.geq e.h last.h -> kept
  | _ -> e :: kept

let curve_of kept = Array.of_list (List.rev kept)

(* A leaf orders its options as [keep] needs them, the earlier of two
   equal options last, so each width keeps its lowest option and a tie
   keeps the earlier one. *)
let leaves options =
  Array.mapi
    (fun m opts ->
      if opts = [] then
        invalid_arg
          (Printf.sprintf "Shape.leaves: module %d has no shape options" m);
      let entries =
        List.rev (List.mapi (fun i (w, h) -> { w; h; li = i; ri = -1 }) opts)
      in
      let staircase =
        List.stable_sort
          (fun a b -> match compare a.w b.w with 0 -> compare b.h a.h | c -> c)
          entries
      in
      { tree = Leaf (m, Array.of_list opts);
        curve = curve_of (List.fold_left keep [] staircase) })
    options

(* The last index from [k] up to [last] whose V sum with the other
   side's entry of width [fixed] is bit-equal to that of [k]: widths
   never fall along a curve, so the equal ones run contiguously. *)
let rec last_tie fixed (c : entry array) k last =
  if k < last && Float.equal (fixed +. c.(k + 1).w) (fixed +. c.(k).w) then
    last_tie fixed c (k + 1) last
  else k

(* Stockmeyer's merge.  A pruned curve runs in increasing width and
   strictly decreasing height, so only one monotone staircase of
   (left, right) pairs can hold Pareto points:
   - V (widths add, heights max) starts at the narrowest pair and
     advances the side that sets the height (the left one on a tie),
     so each pair is as high as that side;
   - H (widths max, heights add) starts at the widest pair and steps
     back on the side that sets the width (the left one on a tie), so
     each pair is as wide as that side.
   Each skipped pair has a staircase pair of equal height (V) or equal
   width (H) that [keep] prefers, so it would be dropped.  The exception
   is a V sum that rounds to the staircase pair's width: pruning all
   pairs would have kept the skipped pair, so the walk emits the last
   pair of equal width along the skipped side instead.  In H the
   staircase pair is already the larger one.  The V pairs reach [keep]
   as the walk emits them, in nondecreasing width; the H walk emits them
   in nonincreasing width, so each H pair reaches [keep] after the walk
   beyond it.  Within a width the later V pair, and the earlier H pair,
   is the lower one, or the one with the larger (left, right) indices on
   a tie: the pair the stable sort over all pairs keeps. *)
let combine op (l : sized) (r : sized) =
  let lc = l.curve and rc = r.curve in
  let nl = Array.length lc and nr = Array.length rc in
  let kept =
    match op with
    | Polish.V ->
      let rec walk kept i j =
        let le = lc.(i) and re = rc.(j) in
        if le.h >= re.h then
          let k = last_tie le.w rc j (nr - 1) in
          let kept =
            keep kept { w = le.w +. rc.(k).w; h = le.h; li = i; ri = k }
          in
          if i + 1 < nl then walk kept (i + 1) j else kept
        else
          let k = last_tie re.w lc i (nl - 1) in
          let kept =
            keep kept { w = lc.(k).w +. re.w; h = re.h; li = k; ri = j }
          in
          if j + 1 < nr then walk kept i (j + 1) else kept
      in
      walk [] 0 0
    | Polish.H ->
      let rec walk i j =
        let le = lc.(i) and re = rc.(j) in
        let h = le.h +. re.h in
        if le.w >= re.w then
          let kept = if i > 0 then walk (i - 1) j else [] in
          keep kept { w = le.w; h; li = i; ri = j }
        else
          let kept = if j > 0 then walk i (j - 1) else [] in
          keep kept { w = re.w; h; li = i; ri = j }
      in
      walk (nl - 1) (nr - 1)
  in
  { tree = Node (op, l, r); curve = curve_of kept }

(* The sized subtrees of the current expression, by position: [sub.(j)]
   is the subtree whose postfix ends at position [j], and [start.(j)]
   the position where it starts.  [resize] writes the candidate's
   re-sized positions into [cand_sub] and [cand_start]: every position
   from [lo] to [hi], where the candidate differs, and every later cut
   whose subtree starts at or before [hi]. *)
type memo = {
  leaves : leaves;
  mutable expr : Polish.t;
  sub : sized array;
  start : int array;
  mutable candidate : Polish.t option;
  mutable lo : int;
  mutable hi : int;
  cand_sub : sized array;
  cand_start : int array;
}

(* A subtree that ends before [lo], or starts after [hi], holds the same
   elements in the candidate as in the current expression, so it is
   reused; the others are re-sized. *)
let resized m j = j >= m.lo && (j <= m.hi || m.start.(j) <= m.hi)

(* Size the candidate [expr], which differs from the current expression
   only within positions [m.lo .. m.hi].  The cut at [j] has its right
   child end at [j - 1] and its left child end just before that child
   starts, so a walk from [lo] needs no stack. *)
let walk m expr =
  let start_of j = if resized m j then m.cand_start.(j) else m.start.(j) in
  let sub_of j = if resized m j then m.cand_sub.(j) else m.sub.(j) in
  for j = m.lo to Array.length m.sub - 1 do
    if resized m j then
      match Polish.element expr j with
      | Polish.Operand k ->
        m.cand_sub.(j) <- m.leaves.(k);
        m.cand_start.(j) <- j
      | Polish.Operator op ->
        let l = start_of (j - 1) - 1 in
        m.cand_start.(j) <- start_of l;
        m.cand_sub.(j) <- combine op (sub_of l) (sub_of (j - 1))
  done;
  m.candidate <- Some expr

let accept m =
  match m.candidate with
  | None -> invalid_arg "Shape.accept: no candidate sized"
  | Some expr ->
    for j = m.lo to Array.length m.sub - 1 do
      if resized m j then begin
        m.sub.(j) <- m.cand_sub.(j);
        m.start.(j) <- m.cand_start.(j)
      end
    done;
    m.expr <- expr;
    m.candidate <- None

let current m = m.sub.(Array.length m.sub - 1)

let check_size leaves expr =
  if Polish.num_modules expr <> Array.length leaves then
    invalid_arg "Shape: leaf table and expression differ in size"

(* A new memo sizes its expression from scratch: as a candidate that
   differs at every position from a current expression nothing reads. *)
let memo leaves expr =
  check_size leaves expr;
  let len = (2 * Polish.num_modules expr) - 1 in
  let m =
    { leaves; expr; sub = Array.make len leaves.(0); start = Array.make len 0;
      candidate = None; lo = 0; hi = len - 1;
      cand_sub = Array.make len leaves.(0); cand_start = Array.make len 0 }
  in
  walk m expr;
  accept m;
  m

let same_element a b =
  match (a, b) with
  | Polish.Operand x, Polish.Operand y -> Int.equal x y
  | Polish.Operator x, Polish.Operator y -> x = y
  | Polish.Operand _, Polish.Operator _ | Polish.Operator _, Polish.Operand _ ->
    false

let resize m expr =
  check_size m.leaves expr;
  let last = Array.length m.sub - 1 in
  let same j = same_element (Polish.element m.expr j) (Polish.element expr j) in
  let rec first j = if j <= last && same j then first (j + 1) else j in
  let rec final j = if j >= 0 && same j then final (j - 1) else j in
  m.lo <- first 0;
  m.hi <- final last;
  walk m expr;
  if resized m last then m.cand_sub.(last) else m.sub.(last)

let size expr leaves = current (memo leaves expr)

let frontier s = Array.to_list s.curve |> List.map (fun e -> (e.w, e.h))

(* Heights fall strictly along a curve, so the lowest entry within the
   width limit is the last one within it. *)
let root_entry ?width_limit s =
  let min_area () =
    Array.fold_left
      (fun b e -> if Tol.lt (e.w *. e.h) (b.w *. b.h) then e else b)
      s.curve.(0) s.curve
  in
  match width_limit with
  | None -> min_area ()
  | Some wl ->
    let fit = ref (-1) in
    Array.iteri (fun i e -> if Tol.leq e.w wl then fit := i) s.curve;
    if !fit < 0 then min_area () else s.curve.(!fit)

let root ?width_limit s =
  let e = root_entry ?width_limit s in
  (e.w, e.h)

let realize ?width_limit s =
  let root = root_entry ?width_limit s in
  let out = ref [] in
  (* Walk down: at each node, the chosen entry points at the child
     entries that produced it. *)
  let rec walk s (entry : entry) x y =
    match s.tree with
    | Leaf (m, opts) ->
      let w, h = opts.(entry.li) in
      let rotated =
        (* A rigid leaf offers exactly the two orientations; picking the
           second (the swap of the first) means rotation.  Flexible
           leaves sample many widths and are never "rotated". *)
        Array.length opts = 2 && entry.li = 1
        && Tol.equal w (snd opts.(0))
        && Tol.equal h (fst opts.(0))
      in
      out := (m, Rect.make ~x ~y ~w ~h, rotated) :: !out
    | Node (op, l, r) ->
      let le = l.curve.(entry.li) and re = r.curve.(entry.ri) in
      walk l le x y;
      (match op with
      | Polish.V -> walk r re (x +. le.w) y
      | Polish.H -> walk r re x (y +. le.h))
  in
  walk s root 0. 0.;
  (List.rev !out, root.w, root.h)
