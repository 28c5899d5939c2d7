module Rect = Fp_geometry.Rect
module Tol = Fp_geometry.Tol
module Model = Fp_milp.Model
module Revised = Fp_lp.Revised
module Netlist = Fp_netlist.Netlist
module Module_def = Fp_netlist.Module_def

type stats = {
  num_vars : int;
  num_constraints : int;
  num_integer_vars : int;
  height_before : float;
  height_after : float;
}

(* A placed module as an item of the section 2.5 LP: its margins are
   read off the placement, and a rigid module's definition becomes its
   placed orientation, so the model needs no rotation variable. *)
let item_of nl (p : Placement.placed) =
  let e = p.Placement.envelope and r = p.Placement.rect in
  let def = Netlist.module_at nl p.Placement.module_id in
  let def =
    match def.Module_def.shape with
    | Module_def.Rigid _ ->
      { def with
        Module_def.shape = Module_def.Rigid { w = r.Rect.w; h = r.Rect.h } }
    | Module_def.Flexible _ -> def
  in
  { Formulation.def;
    margins =
      ( r.Rect.x -. e.Rect.x,
        Rect.x_max e -. Rect.x_max r,
        r.Rect.y -. e.Rect.y,
        Rect.y_max e -. Rect.y_max r ) }

let optimize ?(linearization = Formulation.Secant) nl pl =
  (match Placement.valid pl with
  | Ok () -> ()
  | Error e -> invalid_arg ("Topology.optimize: invalid input placement: " ^ e));
  Array.iter
    (fun m ->
      if Placement.find pl m.Module_def.id = None then
        invalid_arg
          (Printf.sprintf "Topology.optimize: module %d unplaced"
             m.Module_def.id))
    (Netlist.modules nl);
  let placed = Array.of_list pl.Placement.placed in
  let relations i j =
    match
      Formulation.rel_of_geometry placed.(i).Placement.envelope
        placed.(j).Placement.envelope
    with
    | Some rel -> [ rel ]
    | None ->
      invalid_arg "Topology.optimize: overlapping envelopes in the topology"
  in
  let h0 = pl.Placement.height in
  let unchanged =
    { num_vars = 0; num_constraints = 0; num_integer_vars = 0;
      height_before = h0; height_after = h0 }
  in
  match
    Formulation.build ~chip_width:pl.Placement.chip_width
      ~height_bound:(h0 +. Tol.eps) ~allow_rotation:false ~linearization
      ~relations
      (Array.to_list (Array.map (item_of nl) placed))
  with
  | exception Formulation.No_feasible_relation _ ->
    (* A placed relation that the strip admits only within the
       tolerance: the LP would be infeasible. *)
    (pl, unchanged)
  | built -> (
    let model = built.Formulation.model in
    let stats =
      { unchanged with
        num_vars = Model.num_vars model;
        num_constraints = Model.num_constrs model;
        num_integer_vars = Model.num_integer_vars model }
    in
    match fst (Revised.solve (Model.problem model)) with
    | Revised.Optimal { x; _ } ->
      let rebuilt =
        Array.fold_left Placement.add
          (Placement.empty ~chip_width:pl.Placement.chip_width)
          (Array.map2
             (fun p (envelope, rect, _) -> { p with Placement.rect; envelope })
             placed (Formulation.extract built x))
      in
      (* The input is a feasible point of the LP, but the vertex the
         simplex reaches can round a few ulps above its height: the
         input is then the better plan. *)
      if Tol.gt ~tol:0. rebuilt.Placement.height h0 then (pl, stats)
      else (rebuilt, { stats with height_after = rebuilt.Placement.height })
    | Revised.Infeasible | Revised.Unbounded | Revised.Iteration_limit ->
      (* The input point is feasible, so this is numerical bad luck; keep
         the original placement. *)
      (pl, stats))
