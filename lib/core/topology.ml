module Rect = Fp_geometry.Rect
module Tol = Fp_geometry.Tol
module Model = Fp_milp.Model
module Expr = Fp_milp.Expr
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

type mvar = {
  p : Placement.placed;
  vx : Model.var;
  vy : Model.var;
  we : Expr.t;
  he : Expr.t;
  margins : float * float * float * float;
  flex : (Model.var * float * float * float) option;
      (* dw, w_max_env, h_base_env, slope *)
}

let margins_of (p : Placement.placed) =
  let e = p.Placement.envelope and r = p.Placement.rect in
  ( r.Rect.x -. e.Rect.x,
    Rect.x_max e -. Rect.x_max r,
    r.Rect.y -. e.Rect.y,
    Rect.y_max e -. Rect.y_max r )

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
  let w = pl.Placement.chip_width in
  let h0 = pl.Placement.height in
  let height_bound = h0 +. Tol.eps in
  let model = Model.create ~name:"topology_lp" () in
  let mk (p : Placement.placed) =
    let def = Netlist.module_at nl p.Placement.module_id in
    let name = def.Module_def.name in
    let vx = Model.add_continuous model ~ub:w (Printf.sprintf "x_%s" name) in
    let vy =
      Model.add_continuous model ~ub:height_bound (Printf.sprintf "y_%s" name)
    in
    let ((l, r, b, t) as margins) = margins_of p in
    match def.Module_def.shape with
    | Module_def.Rigid _ ->
      (* Keep the placed orientation: the envelope dims are constants. *)
      {
        p; vx; vy; margins; flex = None;
        we = Expr.const p.Placement.envelope.Rect.w;
        he = Expr.const p.Placement.envelope.Rect.h;
      }
    | Module_def.Flexible { area; min_aspect; max_aspect } ->
      let w_min = Float.sqrt (area *. min_aspect)
      and w_max = Float.sqrt (area *. max_aspect) in
      let dw_ub = Float.max 0. (w_max -. w_min) in
      let slope =
        match linearization with
        | Formulation.Tangent -> area /. (w_max *. w_max)
        | Formulation.Secant ->
          if dw_ub <= Tol.eps then 0. else area /. (w_min *. w_max)
      in
      let w_max_env = w_max +. l +. r in
      let h_base_env = (area /. w_max) +. b +. t in
      let dw =
        Model.add_continuous model ~ub:dw_ub (Printf.sprintf "dw_%s" name)
      in
      {
        p; vx; vy; margins; flex = Some (dw, w_max_env, h_base_env, slope);
        we = Expr.(const w_max_env - var dw);
        he = Expr.(const h_base_env + (slope * var dw));
      }
  in
  let ms = Array.of_list (List.map mk pl.Placement.placed) in
  let height = Model.add_continuous model ~ub:height_bound "chip_height" in
  Array.iter
    (fun m ->
      Model.add_constr model Expr.(var m.vx + m.we) Model.Le (Expr.const w);
      Model.add_constr model Expr.(var m.vy + m.he) Model.Le (Expr.var height))
    ms;
  let n = Array.length ms in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let a = ms.(i).p.Placement.envelope
      and b = ms.(j).p.Placement.envelope in
      match Formulation.rel_of_geometry a b with
      | None ->
        invalid_arg "Topology.optimize: overlapping envelopes in the topology"
      | Some rel ->
        let gi = ms.(i) and gj = ms.(j) in
        let open Expr in
        (match rel with
        | Formulation.Rel_left ->
          Model.add_constr model (var gi.vx + gi.we) Model.Le (var gj.vx)
        | Formulation.Rel_right ->
          Model.add_constr model (var gj.vx + gj.we) Model.Le (var gi.vx)
        | Formulation.Rel_below ->
          Model.add_constr model (var gi.vy + gi.he) Model.Le (var gj.vy)
        | Formulation.Rel_above ->
          Model.add_constr model (var gj.vy + gj.he) Model.Le (var gi.vy))
    done
  done;
  Model.set_objective model `Minimize (Expr.var height);
  let stats_base =
    {
      num_vars = Model.num_vars model;
      num_constraints = Model.num_constrs model;
      num_integer_vars = Model.num_integer_vars model;
      height_before = h0;
      height_after = h0;
    }
  in
  match fst (Revised.solve (Model.problem model)) with
  | Revised.Optimal { x = sol; _ } ->
    let rebuilt = ref (Placement.empty ~chip_width:w) in
    Array.iter
      (fun m ->
        let ex = sol.(m.vx) and ey = sol.(m.vy) in
        let ew = Expr.eval m.we sol and eh = Expr.eval m.he sol in
        let envelope = Rect.make ~x:ex ~y:ey ~w:ew ~h:eh in
        let l, _r, b, _t = m.margins in
        let silicon, envelope =
          match m.flex with
          | None ->
            ( Rect.make ~x:(ex +. l) ~y:(ey +. b)
                ~w:m.p.Placement.rect.Rect.w ~h:m.p.Placement.rect.Rect.h,
              envelope )
          | Some _ ->
            let def = Netlist.module_at nl m.p.Placement.module_id in
            let area = Module_def.area def in
            let l', r', b', _ = m.margins in
            let w_sil = Float.max Tol.eps (ew -. l' -. r') in
            let h_sil = area /. w_sil in
            let silicon =
              Rect.make ~x:(ex +. l') ~y:(ey +. b') ~w:w_sil ~h:h_sil
            in
            let envelope =
              if Rect.contains_rect ~outer:envelope ~inner:silicon then
                envelope
              else Rect.hull envelope silicon
            in
            (silicon, envelope)
        in
        rebuilt :=
          Placement.add !rebuilt
            { m.p with Placement.rect = silicon; envelope })
      ms;
    (!rebuilt, { stats_base with height_after = !rebuilt.Placement.height })
  | Revised.Infeasible | Revised.Unbounded | Revised.Iteration_limit ->
    (* The input point is feasible, so this is numerical bad luck; keep
       the original placement. *)
    (pl, stats_base)
