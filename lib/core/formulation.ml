module Rect = Fp_geometry.Rect
module Tol = Fp_geometry.Tol
module Model = Fp_milp.Model
module Expr = Fp_milp.Expr
module Module_def = Fp_netlist.Module_def
module Net = Fp_netlist.Net
module Netlist = Fp_netlist.Netlist

type linearization = Tangent | Secant

type objective = Min_height | Min_height_plus_wire of float

type mode = Basic | Tight

let mode_to_string = function
  | Basic -> "basic"
  | Tight -> "tight"

type item = {
  def : Module_def.t;
  margins : float * float * float * float;
}

let plain_item def = { def; margins = (0., 0., 0., 0.) }

type rel = Rel_left | Rel_right | Rel_below | Rel_above

type sep =
  | Fixed_rel of rel
  | Choice2 of { bin : Model.var; if0 : rel; if1 : rel }
  | Choice4 of { bx : Model.var; by : Model.var }

type other = Other_item of int | Other_fixed of int

type flex_line = {
  w_max_env : float;
  h_base_env : float;
  slope : float;
  dw_ub : float;
}

type flex_info = { dw_var : Model.var; line : flex_line }

type net_info = {
  net : Net.t;
  lx : Model.var;
  rx : Model.var;
  ly : Model.var;
  ry : Model.var;
  pin_exprs : (Expr.t * Expr.t) list;
}

type sep_row = {
  sr_row : int;        (* row index in the underlying problem *)
  sr_lhs : Expr.t;     (* extent of the pushed object *)
  sr_rhs : Expr.t;     (* position of the blocking object *)
  sr_slack : Expr.t;   (* 0 when the relation is selected, >= 1 otherwise *)
  sr_cap : float;      (* direction cap: chip width or height bound *)
  mutable sr_m : float; (* current big-M coefficient (monotone nonincreasing) *)
}

type built = {
  model : Model.t;
  chip_width : float;
  height_bound : float;
  items : item array;
  x : Model.var array;
  y : Model.var array;
  rot : Model.var option array;
  flex : flex_info option array;
  w_expr : Expr.t array;
  h_expr : Expr.t array;
  height : Model.var;
  seps : (int * other * sep) list;
  net_infos : net_info list;
  fixed : Rect.t list;
  linearization : linearization;
  formulation : mode;
  sep_rows : sep_row list;
}

(* ------------------------------------------------------------------ *)
(* Item geometry helpers                                                *)
(* ------------------------------------------------------------------ *)

let env_dims it =
  let l, r, b, t = it.margins in
  match it.def.Module_def.shape with
  | Module_def.Rigid { w; h } -> `Rigid (w +. l +. r, h +. b +. t)
  | Module_def.Flexible { area; _ } ->
    let w_min, w_max = Module_def.width_range it.def in
    `Flexible (w_min +. l +. r, area /. w_max +. b +. t)

let item_min_width ?(allow_rotation = true) it =
  match env_dims it with
  | `Rigid (w, h) -> if allow_rotation then Float.min w h else w
  | `Flexible (w_min_env, _) -> w_min_env

let item_min_height ?(allow_rotation = true) it =
  match env_dims it with
  | `Rigid (w, h) -> if allow_rotation then Float.min w h else h
  | `Flexible (_, h_base_env) -> h_base_env

(* Eq. (6)-(8) on the envelope: a flexible module gives up dw in
   [0, w_max - w_min] of its widest shape, and its height rises from
   h(w_max) along the slope Λ of the chosen linearization.  A secant
   over an empty window is flat. *)
let flex_line ~linearization it =
  match it.def.Module_def.shape with
  | Module_def.Rigid _ -> None
  | Module_def.Flexible { area; _ } ->
    let l, r, b, t = it.margins in
    let w_min, w_max = Module_def.width_range it.def in
    let dw_ub = Float.max 0. (w_max -. w_min) in
    let slope =
      match linearization with
      | Tangent -> area /. (w_max *. w_max)
      | Secant -> if dw_ub <= Tol.eps then 0. else area /. (w_min *. w_max)
    in
    Some
      { w_max_env = w_max +. l +. r; h_base_env = area /. w_max +. b +. t;
        slope; dw_ub }

let flex_env line dw =
  (line.w_max_env -. dw, line.h_base_env +. (line.slope *. dw))

(* Smallest area the reserved envelope can take; used for the area cut
   W * y >= sum of occupied areas.  For flexible items the reserved area
   w_env(dw) * h_env(dw) is concave in dw, so the minimum over the window
   is attained at an endpoint. *)
let item_min_reserved_area ~linearization it =
  match flex_line ~linearization it with
  | Some line ->
    let reserved dw =
      let w, h = flex_env line dw in
      w *. h
    in
    Float.min (reserved 0.) (reserved line.dw_ub)
  | None ->
    item_min_width ~allow_rotation:false it
    *. item_min_height ~allow_rotation:false it

(* ------------------------------------------------------------------ *)
(* Relations                                                            *)
(* ------------------------------------------------------------------ *)

let all_rels = [ Rel_left; Rel_right; Rel_below; Rel_above ]

let rels_satisfied a b =
  List.filter
    (fun r ->
      match r with
      | Rel_left -> Tol.leq (Rect.x_max a) b.Rect.x
      | Rel_right -> Tol.leq (Rect.x_max b) a.Rect.x
      | Rel_below -> Tol.leq (Rect.y_max a) b.Rect.y
      | Rel_above -> Tol.leq (Rect.y_max b) a.Rect.y)
    all_rels

let rel_of_geometry a b =
  match rels_satisfied a b with [] -> None | r :: _ -> Some r

(* The 0-1 combination that selects each relation in the paper's eq. (2):
   (x_ij, y_ij) = (0,0) left, (1,0) right, (0,1) below, (1,1) above. *)
let combo_of_rel = function
  | Rel_left -> (0, 0)
  | Rel_right -> (1, 0)
  | Rel_below -> (0, 1)
  | Rel_above -> (1, 1)

(* ------------------------------------------------------------------ *)
(* Model assembly                                                       *)
(* ------------------------------------------------------------------ *)

type obj_geom = {
  ox : Expr.t;  (* lower-left x *)
  oy : Expr.t;
  ow : Expr.t;  (* envelope width *)
  oh : Expr.t;
}

(* Interval of an affine expression under the problem's current variable
   bounds — the basis for per-pair big-M coefficients. *)
let expr_interval prob e =
  List.fold_left
    (fun (lo, hi) ((c, v) : Fp_lp.Lp_problem.term) ->
      let l = Fp_lp.Lp_problem.var_lb prob v
      and u = Fp_lp.Lp_problem.var_ub prob v in
      if Tol.lt c 0. then (lo +. (c *. u), hi +. (c *. l))
      else (lo +. (c *. l), hi +. (c *. u)))
    (Expr.constant e, Expr.constant e)
    (Expr.terms e)

(* Emit the active form of one separation constraint with an additional
   big-M slack expression (Expr.zero for an always-active constraint).
   Without [record] (the basic formulation) the coefficient is the
   direction cap itself — chip width or height bound, the paper's W.
   With [record] (tight) it is the per-pair, per-direction value

     M = max 0 (min cap (min (ub lhs) cap - lb rhs))

   from the current variable bounds; [ub lhs] is additionally capped by
   [cap] because the chip rows bound every extent by the strip, which
   makes M exact against fixed obstacles (M = W - r.x for "left of a
   rectangle at x = r.x").  Any feasible point has lhs <= cap and
   rhs >= lb rhs, so lhs - rhs <= M and the inactive row (slack >= 1)
   cuts nothing — validity is preserved per pair.  The emitted row is
   recorded for later monotone re-tightening ({!retighten}); when M
   collapses to 0 the relation is unconditional, the slack term
   vanishes, and the row may fold into a bound (nothing recorded). *)
let emit_rel model ~bigw ~bigh ?record gi gj rel slack =
  let open Expr in
  let emit lhs rhs cap =
    match record with
    | Some record when terms slack <> [] ->
      let prob = Model.problem model in
      let _, ub_l = expr_interval prob lhs in
      let lb_r, _ = expr_interval prob rhs in
      let m = Float.max 0. (Float.min cap (Float.min ub_l cap -. lb_r)) in
      let row = Model.num_constrs model in
      Model.add_constr_or_bound model lhs Model.Le (rhs + (m * slack));
      if Model.num_constrs model > row then
        record
          { sr_row = row; sr_lhs = lhs; sr_rhs = rhs; sr_slack = slack;
            sr_cap = cap; sr_m = m }
    | _ -> Model.add_constr_or_bound model lhs Model.Le (rhs + (cap * slack))
  in
  match rel with
  | Rel_left ->
    (* x_i + w_i <= x_j + slack * W *)
    emit (gi.ox + gi.ow) gj.ox bigw
  | Rel_right -> emit (gj.ox + gj.ow) gi.ox bigw
  | Rel_below -> emit (gi.oy + gi.oh) gj.oy bigh
  | Rel_above -> emit (gj.oy + gj.oh) gi.oy bigh

exception No_feasible_relation of string

(* Non-overlap of objects i and j restricted to the geometrically
   possible relations.  Returns the separation encoding used. *)
let add_separation model ~bigw ~bigh ?record ~tag gi gj allowed =
  let open Expr in
  match allowed with
  | [] -> raise (No_feasible_relation tag)
  | [ r ] ->
    emit_rel model ~bigw ~bigh ?record gi gj r Expr.zero;
    Fixed_rel r
  | [ r0; r1 ] ->
    let bin = Model.add_binary model (Printf.sprintf "s_%s" tag) in
    emit_rel model ~bigw ~bigh ?record gi gj r0 (var bin);
    emit_rel model ~bigw ~bigh ?record gi gj r1 (const 1. - var bin);
    Choice2 { bin; if0 = r0; if1 = r1 }
  | _ ->
    let bx = Model.add_binary model (Printf.sprintf "px_%s" tag) in
    let by = Model.add_binary model (Printf.sprintf "py_%s" tag) in
    Model.declare_pair model bx by;
    (* Slack multipliers from the paper's eq. (2). *)
    emit_rel model ~bigw ~bigh ?record gi gj Rel_left (var bx + var by);
    emit_rel model ~bigw ~bigh ?record gi gj Rel_right (const 1. - var bx + var by);
    emit_rel model ~bigw ~bigh ?record gi gj Rel_below (const 1. + var bx - var by);
    emit_rel model ~bigw ~bigh ?record gi gj Rel_above (const 2. - var bx - var by);
    (* Cut off geometrically impossible combinations. *)
    List.iter
      (fun r ->
        if not (List.mem r allowed) then
          match combo_of_rel r with
          | 0, 0 -> Model.add_constr_or_bound model (var bx + var by) Model.Ge (const 1.)
          | 1, 0 -> Model.add_constr_or_bound model (var bx - var by) Model.Le (const 0.)
          | 0, 1 -> Model.add_constr_or_bound model (var by - var bx) Model.Le (const 0.)
          | _ -> Model.add_constr_or_bound model (var bx + var by) Model.Le (const 1.))
      all_rels;
    Choice4 { bx; by }

let pin_expr gx gy gw gh side =
  let open Expr in
  match side with
  | Net.Left -> (gx, gy + (0.5 * gh))
  | Net.Right -> (gx + gw, gy + (0.5 * gh))
  | Net.Bottom -> (gx + (0.5 * gw), gy)
  | Net.Top -> (gx + (0.5 * gw), gy + gh)

(* ------------------------------------------------------------------ *)
(* Formulation strengthening (tight mode)                               *)
(* ------------------------------------------------------------------ *)

(* Recompute every recorded big-M from the current variable bounds,
   monotonically shrinking it (never growing), and rewrite the row in
   place.  Returns the number of rows whose coefficient strictly
   decreased.  Sound whenever bounds have only tightened since the row
   was emitted — e.g. after later single-variable rows were folded into
   bounds by {!Model.add_constr_or_bound} / [Lp_problem.tighten_bounds].
   [build] runs it once at the end in [Tight] mode; the
   successive-augmentation driver gets the "after each commit" refresh
   for free because every augmentation step builds afresh against the
   committed placement. *)
let retighten b =
  let prob = Model.problem b.model in
  let changed = ref 0 in
  List.iter
    (fun sr ->
      let _, ub_l = expr_interval prob sr.sr_lhs in
      let lb_r, _ = expr_interval prob sr.sr_rhs in
      let m =
        Float.max 0. (Float.min sr.sr_m (Float.min ub_l sr.sr_cap -. lb_r))
      in
      if Tol.lt m sr.sr_m then begin
        let row = Expr.(sr.sr_lhs - sr.sr_rhs - (m * sr.sr_slack)) in
        Fp_lp.Lp_problem.update_constr prob sr.sr_row (Expr.terms row)
          Fp_lp.Lp_problem.Le (-.Expr.constant row);
        sr.sr_m <- m;
        incr changed
      end)
    b.sep_rows;
  !changed

let build ~chip_width ~height_bound ?(objective = Min_height)
    ?(allow_rotation = true) ?(linearization = Secant) ?(fixed = [])
    ?(formulation = Basic) ?wire_context
    ?(net_length_bound = fun _ -> None) ?(relations = fun _ _ -> all_rels)
    item_list =
  let items = Array.of_list item_list in
  let n = Array.length items in
  let model = Model.create ~name:"floorplan_step" () in
  (* Feasibility of each item inside the strip. *)
  Array.iteri
    (fun k it ->
      if Tol.gt (item_min_width ~allow_rotation it) chip_width then
        invalid_arg
          (Printf.sprintf
             "Formulation.build: item %d (%s) wider than the chip (%g > %g)" k
             it.def.Module_def.name
             (item_min_width ~allow_rotation it)
             chip_width);
      if Tol.gt (item_min_height ~allow_rotation it) height_bound then
        invalid_arg
          (Printf.sprintf
             "Formulation.build: item %d (%s) taller than the height bound" k
             it.def.Module_def.name))
    items;
  let x = Array.make n 0 and y = Array.make n 0 in
  let rot = Array.make n None and flex = Array.make n None in
  let w_expr = Array.make n Expr.zero and h_expr = Array.make n Expr.zero in
  (* Per-item variables and dimension expressions. *)
  Array.iteri
    (fun k it ->
      let name = it.def.Module_def.name in
      x.(k) <-
        Model.add_continuous model ~ub:chip_width (Printf.sprintf "x_%s" name);
      y.(k) <-
        Model.add_continuous model ~ub:height_bound (Printf.sprintf "y_%s" name);
      match flex_line ~linearization it with
      | Some line ->
        let dw =
          Model.add_continuous model ~ub:line.dw_ub (Printf.sprintf "dw_%s" name)
        in
        flex.(k) <- Some { dw_var = dw; line };
        (* eq. (6)/(7): w = w_max - dw, h = h(w_max) + Λ dw. *)
        w_expr.(k) <- Expr.(const line.w_max_env - var dw);
        h_expr.(k) <- Expr.(const line.h_base_env + (line.slope * var dw))
      | None ->
        let we = item_min_width ~allow_rotation:false it
        and he = item_min_height ~allow_rotation:false it in
        if allow_rotation && not (Tol.equal we he) then begin
          let z = Model.add_binary model (Printf.sprintf "z_%s" name) in
          rot.(k) <- Some z;
          (* eq. (4): w_i = (1 - z_i) w + z_i h. *)
          w_expr.(k) <- Expr.(const we + ((he -. we) * var z));
          h_expr.(k) <- Expr.(const he + ((we -. he) * var z))
        end
        else begin
          w_expr.(k) <- Expr.const we;
          h_expr.(k) <- Expr.const he
        end)
    items;
  let height =
    Model.add_continuous model ~ub:height_bound "chip_height"
  in
  let geom k = { ox = Expr.var x.(k); oy = Expr.var y.(k);
                 ow = w_expr.(k); oh = h_expr.(k) } in
  let fixed_arr = Array.of_list fixed in
  let fixed_geom (r : Rect.t) =
    { ox = Expr.const r.Rect.x; oy = Expr.const r.Rect.y;
      ow = Expr.const r.Rect.w; oh = Expr.const r.Rect.h }
  in
  (* Chip bounds and height definition (eq. (3)/(5)). *)
  Array.iteri
    (fun k _ ->
      Model.add_constr_or_bound model
        Expr.(var x.(k) + w_expr.(k))
        Model.Le (Expr.const chip_width);
      Model.add_constr_or_bound model
        Expr.(var y.(k) + h_expr.(k))
        Model.Le (Expr.var height))
    items;
  (* Separations: item-item pairs. *)
  let seps = ref [] in
  let sep_rows = ref [] in
  let record =
    match formulation with
    | Basic -> None
    | Tight -> Some (fun sr -> sep_rows := sr :: !sep_rows)
  in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let wi = item_min_width ~allow_rotation items.(i)
      and wj = item_min_width ~allow_rotation items.(j)
      and hi = item_min_height ~allow_rotation items.(i)
      and hj = item_min_height ~allow_rotation items.(j) in
      let allowed =
        List.filter
          (fun r ->
            match r with
            | Rel_left | Rel_right -> Tol.leq (wi +. wj) chip_width
            | Rel_below | Rel_above -> Tol.leq (hi +. hj) height_bound)
          (relations i j)
      in
      let tag = Printf.sprintf "i%d_i%d" i j in
      let s =
        add_separation model ~bigw:chip_width ~bigh:height_bound ?record ~tag
          (geom i) (geom j) allowed
      in
      seps := (i, Other_item j, s) :: !seps
    done
  done;
  (* Separations: item vs fixed covering rectangle. *)
  Array.iteri
    (fun fi (r : Rect.t) ->
      for i = 0 to n - 1 do
        let wi = item_min_width ~allow_rotation items.(i)
        and hi = item_min_height ~allow_rotation items.(i) in
        let allowed =
          List.filter
            (fun rel ->
              match rel with
              | Rel_left -> Tol.leq wi r.Rect.x
              | Rel_right -> Tol.leq (Rect.x_max r +. wi) chip_width
              | Rel_below -> Tol.leq hi r.Rect.y
              | Rel_above -> Tol.leq (Rect.y_max r +. hi) height_bound)
            all_rels
        in
        let tag = Printf.sprintf "i%d_f%d" i fi in
        let s =
          add_separation model ~bigw:chip_width ~bigh:height_bound ?record ~tag
            (geom i) (fixed_geom r) allowed
        in
        seps := (i, Other_fixed fi, s) :: !seps
      done)
    fixed_arr;
  (* Lower bounds on the chip height: every fixed rectangle's top, and the
     area bound W * y >= occupied area. *)
  let fixed_top =
    Array.fold_left (fun a r -> Float.max a (Rect.y_max r)) 0. fixed_arr
  in
  let occupied =
    Array.fold_left (fun a r -> a +. Rect.area r) 0. fixed_arr
    +. Array.fold_left
         (fun a it -> a +. item_min_reserved_area ~linearization it)
         0. items
  in
  let height_lb =
    Float.max fixed_top (occupied /. chip_width) |> Float.min height_bound
  in
  Fp_lp.Lp_problem.set_bounds (Model.problem model) height ~lb:height_lb
    ~ub:height_bound;
  (* Wirelength bounding boxes. *)
  let net_infos = ref [] in
  let lambda =
    match objective with Min_height -> 0. | Min_height_plus_wire l -> l
  in
  (match (objective, wire_context) with
  | Min_height_plus_wire _, None ->
    invalid_arg "Formulation.build: wire objective requires ~wire_context"
  | Min_height, _ | Min_height_plus_wire _, Some _ -> ());
  (match wire_context with
  | None -> ()
  | Some (nl, partial, ids) ->
    if Array.length ids <> n then
      invalid_arg "Formulation.build: wire_context ids length mismatch";
    let item_of_module = Hashtbl.create n in
    Array.iteri (fun k id -> Hashtbl.replace item_of_module id k) ids;
    List.iteri
      (fun ni net ->
        let pins =
          List.filter_map
            (fun p ->
              let id = p.Net.module_id in
              match Hashtbl.find_opt item_of_module id with
              | Some k ->
                let gw = w_expr.(k) and gh = h_expr.(k) in
                Some
                  (`Item, pin_expr (Expr.var x.(k)) (Expr.var y.(k)) gw gh
                            p.Net.side)
              | None -> (
                match Placement.find partial id with
                | Some _ ->
                  let pt =
                    Placement.pin_position partial ~module_id:id p.Net.side
                  in
                  Some
                    (`Fixed,
                     (Expr.const pt.Fp_geometry.Point.x,
                      Expr.const pt.Fp_geometry.Point.y))
                | None -> None))
            net.Net.pins
        in
        let has_item = List.exists (fun (k, _) -> k = `Item) pins in
        if has_item && List.length pins >= 2 then begin
          let mk nm =
            Model.add_continuous model ~ub:(Float.max chip_width height_bound)
              (Printf.sprintf "%s_n%d" nm ni)
          in
          let lx = mk "lx" and rx = mk "rx" and ly = mk "ly" and ry = mk "ry" in
          let pin_exprs = List.map snd pins in
          List.iter
            (fun (px, py) ->
              Model.add_constr_or_bound model (Expr.var lx) Model.Le px;
              Model.add_constr_or_bound model px Model.Le (Expr.var rx);
              Model.add_constr_or_bound model (Expr.var ly) Model.Le py;
              Model.add_constr_or_bound model py Model.Le (Expr.var ry))
            pin_exprs;
          (* Critical-net length constraint (paper section 2.2). *)
          (match net_length_bound net with
          | Some bound ->
            Model.add_constr_or_bound model
              Expr.(var rx - var lx + var ry - var ly)
              Model.Le (Expr.const bound)
          | None -> ());
          net_infos := { net; lx; rx; ly; ry; pin_exprs } :: !net_infos
        end)
      (Netlist.nets nl));
  let net_infos = List.rev !net_infos in
  (* Objective: minimize height (area proxy for fixed W), plus the
     wirelength term when requested. *)
  let wire_term =
    Expr.sum
      (List.map
         (fun ni ->
           Expr.(
             var ni.rx - var ni.lx + var ni.ry - var ni.ly))
         net_infos)
  in
  Model.set_objective model `Minimize
    Expr.(var height + (lambda * wire_term));
  let b =
    {
      model; chip_width; height_bound; items; x; y; rot; flex; w_expr; h_expr;
      height; seps = List.rev !seps; net_infos; fixed; linearization;
      formulation; sep_rows = List.rev !sep_rows;
    }
  in
  (match formulation with
  | Basic -> ()
  | Tight ->
    (* Root presolve: one interval-propagation pass over the finished
       rows shrinks variable boxes (every integer-feasible point
       survives; integer snapping may cut LP-only points, which only
       strengthens the relaxation), and the per-pair big-M refresh
       below then reads those smaller boxes.  Bounds may also have
       tightened since the separation rows were emitted (later
       single-variable rows fold into bounds); either way every
       per-pair M is recomputed against the final bounds. *)
    let prob = Model.problem model in
    let ints = Array.make (Fp_lp.Lp_problem.num_vars prob) false in
    List.iter (fun v -> ints.(v) <- true) (Model.integer_vars model);
    (match
       Fp_lp.Lp_problem.propagate_bounds
         ~integral:(fun v -> v < Array.length ints && ints.(v))
         prob
     with
    | `Ok _ -> ()
    | `Infeasible undo ->
      (* Propagation proved the step infeasible; restore so the MILP
         reports it through its normal (certified) path. *)
      List.iter
        (fun (v, lb, ub) -> Fp_lp.Lp_problem.set_bounds prob v ~lb ~ub)
        undo);
    ignore (retighten b : int));
  b

(* ------------------------------------------------------------------ *)
(* Warm start                                                           *)
(* ------------------------------------------------------------------ *)

let assign_warm b env_of ~rotated =
  let nvars = Model.num_vars b.model in
  let sol = Array.make nvars 0. in
  let n = Array.length b.items in
  (* Position / rotation / flex variables. *)
  for k = 0 to n - 1 do
    let r = env_of k in
    sol.(b.x.(k)) <- r.Rect.x;
    sol.(b.y.(k)) <- r.Rect.y;
    (match b.rot.(k) with
    | Some z -> sol.(z) <- (if rotated k then 1. else 0.)
    | None -> ());
    match b.flex.(k) with
    | Some fi ->
      sol.(fi.dw_var) <-
        Tol.clamp ~lo:0. ~hi:fi.line.dw_ub (fi.line.w_max_env -. r.Rect.w)
    | None -> ()
  done;
  (* Chip height. *)
  let tops =
    List.init n (fun k -> Rect.y_max (env_of k))
    @ List.map Rect.y_max b.fixed
  in
  let height_val =
    List.fold_left Float.max
      (Fp_lp.Lp_problem.var_lb (Model.problem b.model) b.height)
      tops
  in
  sol.(b.height) <- height_val;
  (* Separation binaries, from the actual geometry. *)
  let rect_of_other = function
    | Other_item j -> env_of j
    | Other_fixed fi -> List.nth b.fixed fi
  in
  List.iter
    (fun (i, o, sep) ->
      let a = env_of i and c = rect_of_other o in
      let sat = rels_satisfied a c in
      if sat = [] then
        invalid_arg
          (Printf.sprintf
             "Formulation.assign_warm: item %d overlaps its neighbour" i);
      match sep with
      | Fixed_rel r ->
        if not (List.mem r sat) then
          invalid_arg "Formulation.assign_warm: fixed relation violated"
      | Choice2 { bin; if0; if1 } ->
        if List.mem if0 sat then sol.(bin) <- 0.
        else if List.mem if1 sat then sol.(bin) <- 1.
        else invalid_arg "Formulation.assign_warm: no encodable relation"
      | Choice4 { bx; by } ->
        let r = List.hd sat in
        let cx, cy = combo_of_rel r in
        sol.(bx) <- float_of_int cx;
        sol.(by) <- float_of_int cy)
    b.seps;
  (* Net bounding boxes from the pin expressions. *)
  List.iter
    (fun ni ->
      let xs = List.map (fun (px, _) -> Expr.eval px sol) ni.pin_exprs in
      let ys = List.map (fun (_, py) -> Expr.eval py sol) ni.pin_exprs in
      sol.(ni.lx) <- List.fold_left Float.min infinity xs;
      sol.(ni.rx) <- List.fold_left Float.max 0. xs;
      sol.(ni.ly) <- List.fold_left Float.min infinity ys;
      sol.(ni.ry) <- List.fold_left Float.max 0. ys)
    b.net_infos;
  sol

(* ------------------------------------------------------------------ *)
(* Extraction                                                           *)
(* ------------------------------------------------------------------ *)

let decode_item it envelope ~rotated =
  let l, r, mb, _ = it.margins in
  let ex = envelope.Rect.x and ey = envelope.Rect.y in
  match it.def.Module_def.shape with
  | Module_def.Rigid { w; h } ->
    let silicon =
      if rotated then
        (* Margins rotate with the module: (l,r,b,t) -> (b,t,l,r). *)
        Rect.make ~x:(ex +. mb) ~y:(ey +. l) ~w:h ~h:w
      else Rect.make ~x:(ex +. l) ~y:(ey +. mb) ~w ~h
    in
    (envelope, silicon, rotated)
  | Module_def.Flexible { area; _ } ->
    let w_sil = Float.max Tol.eps (envelope.Rect.w -. l -. r) in
    let h_sil = area /. w_sil in
    let silicon = Rect.make ~x:(ex +. l) ~y:(ey +. mb) ~w:w_sil ~h:h_sil in
    let envelope =
      (* Under tangent linearization the true height can exceed the
         reserved height; report the hull so downstream consumers see
         the real occupancy (the adjustment pass then legalizes). *)
      if Rect.contains_rect ~outer:envelope ~inner:silicon then envelope
      else Rect.hull envelope silicon
    in
    (envelope, silicon, rotated)

let extract b sol =
  Array.mapi
    (fun k it ->
      let envelope =
        Rect.make ~x:sol.(b.x.(k)) ~y:sol.(b.y.(k))
          ~w:(Expr.eval b.w_expr.(k) sol) ~h:(Expr.eval b.h_expr.(k) sol)
      in
      let rotated =
        match b.rot.(k) with Some z -> Tol.gt sol.(z) 0.5 | None -> false
      in
      decode_item it envelope ~rotated)
    b.items
