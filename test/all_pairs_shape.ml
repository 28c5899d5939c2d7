module Rect = Fp_geometry.Rect
module Tol = Fp_geometry.Tol
module Polish = Fp_slicing.Polish

type entry = { w : float; h : float; li : int; ri : int }

type tree =
  | Leaf of int * (float * float) array
  | Node of Polish.op * sized * sized

and sized = { tree : tree; curve : entry array }

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

let combine op (l : sized) (r : sized) =
  let entries = ref [] in
  Array.iteri
    (fun li le ->
      Array.iteri
        (fun ri re ->
          let w, h =
            match op with
            | Polish.V -> (le.w +. re.w, Float.max le.h re.h)
            | Polish.H -> (Float.max le.w re.w, le.h +. re.h)
          in
          entries := { w; h; li; ri } :: !entries)
        r.curve)
    l.curve;
  { tree = Node (op, l, r); curve = prune !entries }

let size expr options_of =
  let stack = ref [] in
  List.iter
    (fun e ->
      match e with
      | Polish.Operand m ->
        let opts = Array.of_list (options_of m) in
        let curve =
          prune
            (Array.to_list
               (Array.mapi (fun i (w, h) -> { w; h; li = i; ri = -1 }) opts))
        in
        stack := { tree = Leaf (m, opts); curve } :: !stack
      | Polish.Operator op -> (
        match !stack with
        | r :: l :: rest -> stack := combine op l r :: rest
        | _ -> invalid_arg "All_pairs_shape.size: malformed expression"))
    (Polish.elements expr);
  match !stack with
  | [ s ] -> s
  | _ -> invalid_arg "All_pairs_shape.size: malformed expression"

let frontier s = Array.to_list s.curve |> List.map (fun e -> (e.w, e.h))

let best_area_entry s =
  Array.fold_left
    (fun acc e ->
      match acc with
      | None -> Some e
      | Some b -> if Tol.lt (e.w *. e.h) (b.w *. b.h) then Some e else acc)
    None s.curve
  |> Option.get

let realize ?width_limit s =
  let root =
    match width_limit with
    | None -> best_area_entry s
    | Some wl -> (
      let fitting =
        Array.to_list s.curve |> List.filter (fun e -> Tol.leq e.w wl)
      in
      match fitting with
      | [] -> best_area_entry s
      | e :: rest ->
        List.fold_left (fun b e -> if e.h < b.h then e else b) e rest)
  in
  let out = ref [] in
  let rec walk s (entry : entry) x y =
    match s.tree with
    | Leaf (m, opts) ->
      let w, h = opts.(entry.li) in
      let rotated =
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
