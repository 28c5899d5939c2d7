module Tol = Fp_geometry.Tol

type shape =
  | Rigid of { w : float; h : float }
  | Flexible of { area : float; min_aspect : float; max_aspect : float }

type t = { id : int; name : string; shape : shape }

(* Non-finite values fail every comparison, so [Tol] alone would let
   nan through. *)
let positive x = Float.is_finite x && not (Tol.leq x 0.)

let rigid ~id ~name ~w ~h =
  if not (positive w && positive h) then
    invalid_arg
      (Printf.sprintf "Module_def.rigid %s: non-positive dims %gx%g" name w h);
  { id; name; shape = Rigid { w; h } }

let flexible ~id ~name ~area ~min_aspect ~max_aspect =
  if not (positive area) then
    invalid_arg
      (Printf.sprintf "Module_def.flexible %s: non-positive area %g" name area);
  if
    not (positive min_aspect && positive max_aspect)
    || Tol.lt max_aspect min_aspect
  then
    invalid_arg
      (Printf.sprintf
         "Module_def.flexible %s: bad aspect interval [%g, %g]" name
         min_aspect max_aspect);
  { id; name; shape = Flexible { area; min_aspect; max_aspect } }

let area t =
  match t.shape with
  | Rigid { w; h } -> w *. h
  | Flexible { area; _ } -> area

let is_flexible t =
  match t.shape with Flexible _ -> true | Rigid _ -> false

let width_range t =
  match t.shape with
  | Rigid { w; _ } -> (w, w)
  | Flexible { area; min_aspect; max_aspect } ->
    (Float.sqrt (area *. min_aspect), Float.sqrt (area *. max_aspect))

let height_for_width t w =
  match t.shape with
  | Rigid { h; _ } -> h
  | Flexible { area; _ } ->
    if Tol.leq w 0. then invalid_arg "Module_def.height_for_width: w <= 0";
    area /. w

let pp ppf t =
  match t.shape with
  | Rigid { w; h } ->
    Format.fprintf ppf "%s[#%d rigid %gx%g]" t.name t.id w h
  | Flexible { area; min_aspect; max_aspect } ->
    Format.fprintf ppf "%s[#%d flex S=%g ar=%g..%g]" t.name t.id area
      min_aspect max_aspect
