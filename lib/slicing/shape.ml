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

(* Pareto-prune a list of entries: keep, per distinct width, the minimal
   height, and drop dominated points.  The sort is stable, so among
   entries of equal (w, h) the first in the list survives. *)
let prune entries =
  let sorted =
    List.sort
      (fun a b ->
        match compare a.w b.w with 0 -> compare a.h b.h | c -> c)
      entries
  in
  let rec go acc = function
    | [] -> List.rev acc
    | e :: rest -> (
      match acc with
      | prev :: _ when Tol.geq e.h prev.h -> go acc rest
      | _ -> go (e :: acc) rest)
  in
  Array.of_list (go [] sorted)

let leaves options =
  Array.mapi
    (fun m opts ->
      if opts = [] then
        invalid_arg
          (Printf.sprintf "Shape.leaves: module %d has no shape options" m);
      let curve =
        prune (List.mapi (fun i (w, h) -> { w; h; li = i; ri = -1 }) opts)
      in
      { tree = Leaf (m, Array.of_list opts); curve })
    options

(* The last index from [k] up to [last] whose pair width is bit-equal to
   that of [k]: widths never fall along a curve, so the equal ones run
   contiguously. *)
let rec last_tie width k last =
  if k < last && Float.equal (width (k + 1)) (width k) then
    last_tie width (k + 1) last
  else k

(* Stockmeyer's merge.  A pruned curve runs in increasing width and
   strictly decreasing height, so only one monotone staircase of
   (left, right) pairs can hold Pareto points:
   - V (widths add, heights max) starts at the narrowest pair and
     advances the side that sets the height (the left one on a tie);
   - H (widths max, heights add) starts at the widest pair and steps
     back on the side that sets the width (the left one on a tie).
   Each skipped pair has a staircase pair of equal height (V) or equal
   width (H) that sorts no later in [prune], which then drops the
   skipped pair.  The exception is a V sum that rounds to the staircase
   pair's width: the all-pairs list (largest (li, ri) first) would have
   kept the skipped pair, so the walk emits the last pair of equal width
   along the skipped side instead.  In H the staircase pair is already
   the larger one.  Pairs of equal (w, h) are consecutive on the
   staircase and reach [prune] largest first, as in the all-pairs
   list, so [prune] keeps the same entries it keeps from all pairs. *)
let combine op (l : sized) (r : sized) =
  let lc = l.curve and rc = r.curve in
  let nl = Array.length lc and nr = Array.length rc in
  let pair li ri =
    let le = lc.(li) and re = rc.(ri) in
    match op with
    | Polish.V -> { w = le.w +. re.w; h = Float.max le.h re.h; li; ri }
    | Polish.H -> { w = Float.max le.w re.w; h = le.h +. re.h; li; ri }
  in
  let pairs =
    match op with
    | Polish.V ->
      let rec walk acc i j =
        if lc.(i).h >= rc.(j).h then
          let k = last_tie (fun k -> lc.(i).w +. rc.(k).w) j (nr - 1) in
          let acc = pair i k :: acc in
          if i + 1 < nl then walk acc (i + 1) j else acc
        else
          let k = last_tie (fun k -> lc.(k).w +. rc.(j).w) i (nl - 1) in
          let acc = pair k j :: acc in
          if j + 1 < nr then walk acc i (j + 1) else acc
      in
      walk [] 0 0
    | Polish.H ->
      let rec walk i j =
        let rest =
          if lc.(i).w >= rc.(j).w then if i > 0 then walk (i - 1) j else []
          else if j > 0 then walk i (j - 1)
          else []
        in
        pair i j :: rest
      in
      walk (nl - 1) (nr - 1)
  in
  { tree = Node (op, l, r); curve = prune pairs }

let size expr leaves =
  if Polish.num_modules expr <> Array.length leaves then
    invalid_arg "Shape.size: leaf table and expression differ in size";
  let push stack = function
    | Polish.Operand m -> leaves.(m) :: stack
    | Polish.Operator op -> (
      match stack with
      | r :: l :: rest -> combine op l r :: rest
      | _ -> invalid_arg "Shape.size: malformed expression")
  in
  match List.fold_left push [] (Polish.elements expr) with
  | [ s ] -> s
  | _ -> invalid_arg "Shape.size: malformed expression"

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
