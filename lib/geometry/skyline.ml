type segment = { x0 : float; x1 : float; h : float }
type t = { width : float; segs : segment list }

let create ~width =
  if Tol.leq width 0. then invalid_arg "Skyline.create: width must be > 0";
  { width; segs = [ { x0 = 0.; x1 = width; h = 0. } ] }

let width t = t.width
let segments t = t.segs

(* Merge adjacent segments of equal height and drop empty ones. *)
let normalize segs =
  let rec go = function
    | a :: b :: rest when Tol.equal a.h b.h ->
      go ({ x0 = a.x0; x1 = b.x1; h = a.h } :: rest)
    | a :: rest when Tol.equal a.x0 a.x1 -> go rest
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go segs

let add_rect t (r : Rect.t) =
  let rx0 = Tol.clamp ~lo:0. ~hi:t.width r.Rect.x
  and rx1 = Tol.clamp ~lo:0. ~hi:t.width (Rect.x_max r) in
  let top = Rect.y_max r in
  if Tol.geq rx0 rx1 then t
  else
    let raise_seg s =
      (* Portions of [s] outside [rx0, rx1] keep height [s.h]; the covered
         portion is raised to [max s.h top]. *)
      let lo = Float.max s.x0 rx0 and hi = Float.min s.x1 rx1 in
      if Tol.geq lo hi then [ s ]
      else
        let mid = { x0 = lo; x1 = hi; h = Float.max s.h top } in
        let before =
          if Tol.lt s.x0 lo then [ { x0 = s.x0; x1 = lo; h = s.h } ] else []
        and after =
          if Tol.lt hi s.x1 then [ { x0 = hi; x1 = s.x1; h = s.h } ] else []
        in
        before @ [ mid ] @ after
    in
    { t with segs = normalize (List.concat_map raise_seg t.segs) }

let of_rects ~width rects = List.fold_left add_rect (create ~width) rects

(* [acc] raised to the height of each segment from [segs] on that
   overlaps [lo, hi] by more than eps.  Segments lie in ascending [x],
   and one that starts at or after [hi] fails the overlap test, so the
   fold stops at the first. *)
let rec height_from segs ~lo ~hi acc =
  match segs with
  | s :: rest when not (s.x0 >= hi) ->
    let acc =
      if Tol.lt (Float.max s.x0 lo) (Float.min s.x1 hi) then Float.max acc s.h
      else acc
    in
    height_from rest ~lo ~hi acc
  | _ -> acc

let height_over t ~x0 ~x1 =
  height_from t.segs ~lo:(Float.max 0. x0) ~hi:(Float.min t.width x1) 0.

let min_height_over t ~x0 ~x1 =
  let lo = Float.max 0. x0 and hi = Float.min t.width x1 in
  List.fold_left
    (fun acc s ->
      if Tol.lt (Float.max s.x0 lo) (Float.min s.x1 hi) then
        Float.min acc s.h
      else acc)
    infinity t.segs

let max_height t = List.fold_left (fun acc s -> Float.max acc s.h) 0. t.segs

let area_under t =
  List.fold_left (fun acc s -> acc +. (s.h *. (s.x1 -. s.x0))) 0. t.segs

(* The segments from [segs] on, less the leading ones that end at or
   before [lo]. *)
let rec past lo = function
  | s :: rest when s.x1 <= lo -> past lo rest
  | segs -> segs

(* One forward pass over the segments, which lie in ascending [x].
   Candidates: left ends ascend, and so do right ends minus [w]
   (rounded subtraction of a constant is monotone).  Merging the two
   runs, less the positions that do not fit, and dropping a candidate
   equal to the one before lists the candidates as
   [List.sort_uniq compare] would; the comparisons are exact, as
   [compare]'s are.  Heights: [lo = max 0 x] only grows from one
   candidate to the next, and a segment that ends at or before [lo]
   fails the overlap test, so each height fold starts past the
   segments that end at or before [lo], which stay behind for every
   later candidate: [Float.max] folds over the same segments in the
   same order as [height_over]. *)
let best_position t ~w =
  if Tol.lt t.width w then None
  else begin
    let fits x = Tol.geq x 0. && Tol.leq (x +. w) t.width in
    let scan = ref t.segs and any = ref false and last = ref 0. in
    let bx = ref infinity and by = ref infinity in
    let visit x =
      if not (!any && x = !last) then begin
        any := true;
        last := x;
        let lo = Float.max 0. x and hi = Float.min t.width (x +. w) in
        scan := past lo !scan;
        let y = height_from !scan ~lo ~hi 0. in
        if Tol.lt y !by || (Tol.equal y !by && Tol.lt x !bx) then begin
          bx := x;
          by := y
        end
      end
    in
    let rec merge lefts rights =
      match (lefts, rights) with
      | l :: lefts', _ when not (fits l.x0) -> merge lefts' rights
      | _, r :: rights' when not (fits (r.x1 -. w)) -> merge lefts rights'
      | l :: lefts', r :: rights' ->
        let xl = l.x0 and xr = r.x1 -. w in
        if xl <= xr then begin
          visit xl;
          merge lefts' rights
        end
        else begin
          visit xr;
          merge lefts rights'
        end
      | l :: lefts', [] ->
        visit l.x0;
        merge lefts' []
      | [], r :: rights' ->
        visit (r.x1 -. w);
        merge [] rights'
      | [], [] -> ()
    in
    merge t.segs t.segs;
    if not !any then visit 0.;
    Some (!bx, !by)
  end
