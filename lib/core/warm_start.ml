module Rect = Fp_geometry.Rect
module Skyline = Fp_geometry.Skyline
module Module_def = Fp_netlist.Module_def

type choice = { envelope : Rect.t; rotated : bool }

(* Candidate envelope shapes for an item: (w, h, rotated). *)
let shapes ~allow_rotation ~linearization (it : Formulation.item) =
  match Formulation.flex_line ~linearization it with
  | Some line ->
    let at dw =
      let w, h = Formulation.flex_env line dw in
      (w, h, false)
    in
    let dw_ub = line.Formulation.dw_ub in
    if dw_ub <= Fp_geometry.Tol.eps then [ at 0. ]
    else [ at 0.; at (dw_ub /. 2.); at dw_ub ]
  | None ->
    let we = Formulation.item_min_width ~allow_rotation:false it
    and he = Formulation.item_min_height ~allow_rotation:false it in
    if allow_rotation && not (Fp_geometry.Tol.equal we he) then
      [ (we, he, false); (he, we, true) ]
    else [ (we, he, false) ]

(* Place items in the given order; returns the choices and the resulting
   skyline height. *)
let place_in_order ~skyline ~allow_rotation ~linearization items order =
  let n = Array.length items in
  let result = Array.make n { envelope = Rect.make ~x:0. ~y:0. ~w:0. ~h:0.;
                              rotated = false } in
  let sky = ref skyline in
  List.iter
    (fun k ->
      let candidates = shapes ~allow_rotation ~linearization items.(k) in
      let best = ref None in
      List.iter
        (fun (w, h, rotated) ->
          match Skyline.best_position !sky ~w with
          | None -> ()
          | Some (px, py) ->
            let top = py +. h in
            let better =
              match !best with
              | None -> true
              | Some (_, _, _, _, best_top, best_area) ->
                Fp_geometry.Tol.lt top best_top
                || (Fp_geometry.Tol.equal top best_top
                    && Fp_geometry.Tol.lt (w *. h) best_area)
            in
            if better then begin
              best := Some (px, py, w, h, top, w *. h);
              result.(k) <-
                { envelope = Rect.make ~x:px ~y:py ~w ~h; rotated }
            end)
        candidates;
      match !best with
      | None ->
        invalid_arg
          (Printf.sprintf "Warm_start.place_group: item %d does not fit" k)
      | Some _ -> sky := Skyline.add_rect !sky result.(k).envelope)
    order;
  (result, Skyline.max_height !sky)

let place_group ~skyline ~allow_rotation ~linearization items =
  let n = Array.length items in
  let by cmp =
    List.sort cmp (List.init n (fun i -> i))
  in
  let area k = Module_def.area items.(k).Formulation.def in
  let min_w k = Formulation.item_min_width ~allow_rotation items.(k) in
  let min_h k = Formulation.item_min_height ~allow_rotation items.(k) in
  let max_dim k = Float.max (min_w k) (min_h k) in
  (* Several classic packing orders; keep the best outcome. *)
  let orders =
    [
      by (fun i j -> compare (area j) (area i));
      by (fun i j -> compare (max_dim j) (max_dim i));
      by (fun i j -> compare (min_w j) (min_w i));
      by (fun i j -> compare (min_h j) (min_h i));
    ]
  in
  let best = ref None in
  List.iter
    (fun order ->
      match
        place_in_order ~skyline ~allow_rotation ~linearization items order
      with
      | result, height -> (
        match !best with
        | Some (_, best_h) when Fp_geometry.Tol.leq best_h height -> ()
        | Some _ | None -> best := Some (result, height))
      | exception Invalid_argument _ -> ())
    orders;
  match !best with
  | Some (result, _) -> result
  | None ->
    (* Every order failed: re-raise the canonical order's error. *)
    fst
      (place_in_order ~skyline ~allow_rotation ~linearization items
         (List.init n (fun i -> i)))

let height_after ~skyline choices =
  Array.fold_left
    (fun acc c -> Float.max acc (Rect.y_max c.envelope))
    (Skyline.max_height skyline)
    choices
