(* Tests for Fp_core: placements, metrics, the MILP formulation of the
   paper's equations (2)-(8), the warm-start heuristic, successive
   augmentation, known-topology LP optimization, compaction, and the
   re-insertion refinement. *)

module Rect = Fp_geometry.Rect
module Skyline = Fp_geometry.Skyline
module Module_def = Fp_netlist.Module_def
module Net = Fp_netlist.Net
module Netlist = Fp_netlist.Netlist
module Generator = Fp_netlist.Generator
module BB = Fp_milp.Branch_bound
open Fp_core

let checkf msg = Alcotest.check (Alcotest.float 1e-5) msg
let rect x y w h = Rect.make ~x ~y ~w ~h

let placed ?(rotated = false) id r =
  { Placement.module_id = id; rect = r; envelope = r; rotated }

(* ----------------------------- placement ---------------------------- *)

let test_placement_add_find () =
  let pl = Placement.empty ~chip_width:10. in
  let pl = Placement.add pl (placed 1 (rect 0. 0. 2. 3.)) in
  let pl = Placement.add pl (placed 0 (rect 2. 0. 2. 5.)) in
  Alcotest.(check int) "count" 2 (Placement.num_placed pl);
  checkf "height" 5. pl.Placement.height;
  Alcotest.(check bool) "sorted by id" true
    (List.map (fun p -> p.Placement.module_id) pl.Placement.placed = [ 0; 1 ]);
  Alcotest.(check bool) "find" true (Placement.find pl 1 <> None);
  Alcotest.(check bool) "find missing" true (Placement.find pl 9 = None)

let test_placement_duplicate () =
  let pl = Placement.add (Placement.empty ~chip_width:5.) (placed 0 (rect 0. 0. 1. 1.)) in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Placement.add: module 0 already placed") (fun () ->
      ignore (Placement.add pl (placed 0 (rect 2. 2. 1. 1.))))

let test_placement_valid_detects_overlap () =
  let pl =
    Placement.empty ~chip_width:10.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 3. 3.))
    |> Fun.flip Placement.add (placed 1 (rect 2. 2. 3. 3.))
  in
  Alcotest.(check bool) "overlap detected" true
    (Result.is_error (Placement.valid pl))

let test_placement_valid_detects_out_of_chip () =
  let pl =
    Placement.add (Placement.empty ~chip_width:2.) (placed 0 (rect 1. 0. 3. 1.))
  in
  Alcotest.(check bool) "escape detected" true
    (Result.is_error (Placement.valid pl))

let test_placement_valid_ok_abutting () =
  let pl =
    Placement.empty ~chip_width:10.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 3. 3.))
    |> Fun.flip Placement.add (placed 1 (rect 3. 0. 3. 3.))
  in
  Alcotest.(check bool) "abutting ok" true (Placement.valid pl = Ok ())

let test_placement_pin_position () =
  let pl = Placement.add (Placement.empty ~chip_width:10.)
      (placed 0 (rect 1. 1. 4. 2.)) in
  let p = Placement.pin_position pl ~module_id:0 Net.Right in
  checkf "pin x" 5. p.Fp_geometry.Point.x;
  checkf "pin y" 2. p.Fp_geometry.Point.y

(* ------------------------------ metrics ----------------------------- *)

let two_module_nl () =
  let mods =
    [ Module_def.rigid ~id:0 ~name:"a" ~w:4. ~h:2.;
      Module_def.rigid ~id:1 ~name:"b" ~w:2. ~h:2. ]
  in
  let nets =
    [ Net.make ~name:"n"
        [ { Net.module_id = 0; side = Net.Right };
          { Net.module_id = 1; side = Net.Left } ] ]
  in
  Netlist.create ~name:"two" mods nets

let test_metrics_utilization () =
  let nl = two_module_nl () in
  let pl =
    Placement.empty ~chip_width:6.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 4. 2.))
    |> Fun.flip Placement.add (placed 1 (rect 4. 0. 2. 2.))
  in
  (* Chip 6 x 2 = 12; modules 8 + 4 = 12 -> 100 %. *)
  checkf "utilization" 1. (Metrics.utilization nl pl);
  checkf "bbox utilization" 1. (Metrics.utilization_bbox nl pl)

let test_metrics_hpwl () =
  let nl = two_module_nl () in
  let pl =
    Placement.empty ~chip_width:10.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 4. 2.))
    |> Fun.flip Placement.add (placed 1 (rect 6. 0. 2. 2.))
  in
  (* Pins: right of a = (4,1); left of b = (6,1) -> HPWL = 2. *)
  checkf "hpwl" 2. (Metrics.hpwl nl pl);
  (* Unplaced module: net skipped. *)
  let partial = Placement.add (Placement.empty ~chip_width:10.)
      (placed 0 (rect 0. 0. 4. 2.)) in
  checkf "partial hpwl" 0. (Metrics.hpwl nl partial)

(* ---------------------------- formulation --------------------------- *)

let solve_built ?(params = BB.default_params) built =
  BB.solve ~params built.Formulation.model

let test_formulation_single_rigid () =
  (* One 4x2 module in a width-4 strip: optimal height 2 (no rotation
     needed; rotated it would not fit). *)
  let def = Module_def.rigid ~id:0 ~name:"m" ~w:4. ~h:2. in
  let built =
    Formulation.build ~chip_width:4. ~height_bound:10.
      [ Formulation.plain_item def ]
  in
  match (solve_built built).BB.best with
  | Some (sol, obj) ->
    checkf "height 2" 2. obj;
    let envelope, silicon, rotated = (Formulation.extract built sol).(0) in
    Alcotest.(check bool) "not rotated" false rotated;
    checkf "w" 4. silicon.Rect.w;
    Alcotest.(check bool) "envelope = silicon" true
      (Rect.equal envelope silicon)
  | None -> Alcotest.fail "no solution"

let test_formulation_rotation_helps () =
  (* A 6x2 module in a width-2 strip only fits rotated: height 6. *)
  let def = Module_def.rigid ~id:0 ~name:"m" ~w:6. ~h:2. in
  let built =
    Formulation.build ~chip_width:2. ~height_bound:20.
      [ Formulation.plain_item def ]
  in
  match (solve_built built).BB.best with
  | Some (sol, obj) ->
    checkf "height 6" 6. obj;
    let _, silicon, rotated = (Formulation.extract built sol).(0) in
    Alcotest.(check bool) "rotated" true rotated;
    checkf "silicon w" 2. silicon.Rect.w
  | None -> Alcotest.fail "no solution"

let test_formulation_rotation_disabled () =
  let def = Module_def.rigid ~id:0 ~name:"m" ~w:6. ~h:2. in
  Alcotest.check_raises "too wide without rotation"
    (Invalid_argument
       "Formulation.build: item 0 (m) wider than the chip (6 > 2)") (fun () ->
      ignore
        (Formulation.build ~chip_width:2. ~height_bound:20.
           ~allow_rotation:false
           [ Formulation.plain_item def ]))

let test_formulation_two_rigid_side_by_side () =
  (* Two 2x3 modules in a width-4 strip: best is side by side, height 3
     (or rotated pair stacked 2+2=4 -> side-by-side wins). *)
  let d1 = Module_def.rigid ~id:0 ~name:"a" ~w:2. ~h:3. in
  let d2 = Module_def.rigid ~id:1 ~name:"b" ~w:2. ~h:3. in
  let built =
    Formulation.build ~chip_width:4. ~height_bound:12.
      [ Formulation.plain_item d1; Formulation.plain_item d2 ]
  in
  match (solve_built built).BB.best with
  | Some (_, obj) -> checkf "height 3" 3. obj
  | None -> Alcotest.fail "no solution"

let test_formulation_stacking_forced () =
  (* Width 2, two 2x3 modules: must stack -> height 6. *)
  let d1 = Module_def.rigid ~id:0 ~name:"a" ~w:2. ~h:3. in
  let d2 = Module_def.rigid ~id:1 ~name:"b" ~w:2. ~h:3. in
  let built =
    Formulation.build ~chip_width:2. ~height_bound:12. ~allow_rotation:false
      [ Formulation.plain_item d1; Formulation.plain_item d2 ]
  in
  match (solve_built built).BB.best with
  | Some (sol, obj) ->
    checkf "height 6" 6. obj;
    let r = Formulation.extract built sol in
    let _, s0, _ = r.(0) and _, s1, _ = r.(1) in
    Alcotest.(check bool) "no overlap" false (Rect.overlaps s0 s1)
  | None -> Alcotest.fail "no solution"

let test_formulation_obstacle () =
  (* A full-width obstacle of height 5; a 2x2 module must go above it. *)
  let def = Module_def.rigid ~id:0 ~name:"m" ~w:2. ~h:2. in
  let built =
    Formulation.build ~chip_width:4. ~height_bound:12.
      ~fixed:[ rect 0. 0. 4. 5. ]
      [ Formulation.plain_item def ]
  in
  (* Geometric presolve should have eliminated every binary: only the
     "above" relation is possible. *)
  Alcotest.(check int) "no integer variables" 0
    (Fp_milp.Model.num_integer_vars built.Formulation.model);
  match (solve_built built).BB.best with
  | Some (sol, obj) ->
    checkf "height 7" 7. obj;
    let _, silicon, _ = (Formulation.extract built sol).(0) in
    Alcotest.(check bool) "above the obstacle" true (silicon.Rect.y >= 5. -. 1e-6)
  | None -> Alcotest.fail "no solution"

let test_formulation_pocket_obstacle () =
  (* Obstacle occupying x in [0,3] up to height 4 in a width-5 strip: a
     2x2 module fits beside it at y=0 -> height stays 4. *)
  let def = Module_def.rigid ~id:0 ~name:"m" ~w:2. ~h:2. in
  let built =
    Formulation.build ~chip_width:5. ~height_bound:12.
      ~fixed:[ rect 0. 0. 3. 4. ]
      [ Formulation.plain_item def ]
  in
  match (solve_built built).BB.best with
  | Some (sol, obj) ->
    checkf "height stays 4" 4. obj;
    let _, silicon, _ = (Formulation.extract built sol).(0) in
    Alcotest.(check bool) "beside the obstacle" true
      (silicon.Rect.x >= 3. -. 1e-6)
  | None -> Alcotest.fail "no solution"

let test_formulation_flexible_secant_reshapes () =
  (* Flexible area 8, aspect [0.5, 2]: widths in [2, 4].  Strip width 2:
     must take w = 2, h = 4.  Secant reserves a bit more than 4. *)
  let def =
    Module_def.flexible ~id:0 ~name:"f" ~area:8. ~min_aspect:0.5 ~max_aspect:2.
  in
  let built =
    Formulation.build ~chip_width:2. ~height_bound:20.
      ~linearization:Formulation.Secant
      [ Formulation.plain_item def ]
  in
  match (solve_built built).BB.best with
  | Some (sol, obj) ->
    let envelope, silicon, _ = (Formulation.extract built sol).(0) in
    checkf "silicon w" 2. silicon.Rect.w;
    checkf "silicon h = S/w" 4. silicon.Rect.h;
    Alcotest.(check bool) "reserved >= true height" true
      (envelope.Rect.h >= 4. -. 1e-6);
    Alcotest.(check bool) "secant overestimates between endpoints" true
      (obj >= 4. -. 1e-6)
  | None -> Alcotest.fail "no solution"

let test_formulation_flexible_exact_at_endpoints () =
  (* At dw = 0 both linearizations are exact: strip width 4 admits
     w_max = 4, h = 2. *)
  List.iter
    (fun lin ->
      let def =
        Module_def.flexible ~id:0 ~name:"f" ~area:8. ~min_aspect:0.5
          ~max_aspect:2.
      in
      let built =
        Formulation.build ~chip_width:4. ~height_bound:20. ~linearization:lin
          [ Formulation.plain_item def ]
      in
      match (solve_built built).BB.best with
      | Some (_, obj) -> checkf "height 2" 2. obj
      | None -> Alcotest.fail "no solution")
    [ Formulation.Secant; Formulation.Tangent ]

let test_formulation_tangent_underestimates () =
  (* Tangent at w_max: at dw > 0 the linearized height is below the true
     hyperbola, so the reported envelope must be the hull. *)
  let def =
    Module_def.flexible ~id:0 ~name:"f" ~area:8. ~min_aspect:0.5 ~max_aspect:2.
  in
  let built =
    Formulation.build ~chip_width:2. ~height_bound:20.
      ~linearization:Formulation.Tangent
      [ Formulation.plain_item def ]
  in
  match (solve_built built).BB.best with
  | Some (sol, _) ->
    let envelope, silicon, _ = (Formulation.extract built sol).(0) in
    checkf "true silicon height" 4. silicon.Rect.h;
    Alcotest.(check bool) "hull contains silicon" true
      (Rect.contains_rect ~outer:envelope ~inner:silicon)
  | None -> Alcotest.fail "no solution"

let test_formulation_envelope_margins () =
  (* A 2x2 module with margins (1,1,1,1) in a width-4 strip: envelope is
     4x4, silicon centered. *)
  let def = Module_def.rigid ~id:0 ~name:"m" ~w:2. ~h:2. in
  let built =
    Formulation.build ~chip_width:4. ~height_bound:20.
      [ { Formulation.def; margins = (1., 1., 1., 1.) } ]
  in
  match (solve_built built).BB.best with
  | Some (sol, obj) ->
    checkf "height 4" 4. obj;
    let envelope, silicon, _ = (Formulation.extract built sol).(0) in
    checkf "env w" 4. envelope.Rect.w;
    checkf "sil w" 2. silicon.Rect.w;
    checkf "sil offset x" (envelope.Rect.x +. 1.) silicon.Rect.x;
    checkf "sil offset y" (envelope.Rect.y +. 1.) silicon.Rect.y
  | None -> Alcotest.fail "no solution"

let test_formulation_wire_objective () =
  (* Two modules connected by a net; wire weight pulls them together.
     Strip wide enough that area alone is indifferent. *)
  let nl = two_module_nl () in
  let items =
    [ Formulation.plain_item (Netlist.module_at nl 0);
      Formulation.plain_item (Netlist.module_at nl 1) ]
  in
  let built =
    Formulation.build ~chip_width:12. ~height_bound:8.
      ~objective:(Formulation.Min_height_plus_wire 0.05)
      ~wire_context:(nl, Placement.empty ~chip_width:12., [| 0; 1 |])
      items
  in
  Alcotest.(check bool) "nets captured" true
    (List.length built.Formulation.net_infos = 1);
  match (solve_built built).BB.best with
  | Some (sol, _) ->
    let r = Formulation.extract built sol in
    let _, s0, _ = r.(0) and _, s1, _ = r.(1) in
    Alcotest.(check bool) "no overlap" false (Rect.overlaps s0 s1);
    (* Modules should abut (pin-to-pin distance ~ 0). *)
    let gap =
      Float.max 0.
        (Float.max s0.Rect.x s1.Rect.x
         -. Float.min (Rect.x_max s0) (Rect.x_max s1))
    in
    Alcotest.(check bool) "pulled together" true (gap < 1.5)
  | None -> Alcotest.fail "no solution"

let test_formulation_net_length_bound () =
  (* Same two connected modules, but instead of a wire objective a hard
     HPWL bound on the net: the MILP must place them adjacently even
     though the area objective is indifferent. *)
  let nl = two_module_nl () in
  let items =
    [ Formulation.plain_item (Netlist.module_at nl 0);
      Formulation.plain_item (Netlist.module_at nl 1) ]
  in
  let built =
    Formulation.build ~chip_width:12. ~height_bound:8.
      ~wire_context:(nl, Placement.empty ~chip_width:12., [| 0; 1 |])
      ~net_length_bound:(fun _ -> Some 1.0)
      items
  in
  match (solve_built built).BB.best with
  | Some (sol, _) ->
    let r = Formulation.extract built sol in
    let _, s0, _ = r.(0) and _, s1, _ = r.(1) in
    (* Pins: right of module 0 and left of module 1; bound 1.0 forces
       them within HPWL 1. *)
    let p0 = Rect.side_midpoint s0 `Right and p1 = Rect.side_midpoint s1 `Left in
    let hp = Fp_geometry.Point.manhattan p0 p1 in
    Alcotest.(check bool) "net length respected" true (hp <= 1.0 +. 1e-5)
  | None -> Alcotest.fail "no solution"

let test_formulation_net_length_bound_infeasible () =
  (* A bound no placement can meet makes the step infeasible. *)
  let nl = two_module_nl () in
  let items =
    [ Formulation.plain_item (Netlist.module_at nl 0);
      Formulation.plain_item (Netlist.module_at nl 1) ]
  in
  let built =
    Formulation.build ~chip_width:12. ~height_bound:8.
      ~wire_context:(nl, Placement.empty ~chip_width:12., [| 0; 1 |])
      ~net_length_bound:(fun _ -> Some (-1.))
      items
  in
  let outcome = solve_built built in
  Alcotest.(check bool) "infeasible" true
    (outcome.BB.status = BB.Infeasible || outcome.BB.best = None)

let test_formulation_wire_requires_context () =
  let def = Module_def.rigid ~id:0 ~name:"m" ~w:1. ~h:1. in
  Alcotest.check_raises "wire without context"
    (Invalid_argument "Formulation.build: wire objective requires ~wire_context")
    (fun () ->
      ignore
        (Formulation.build ~chip_width:4. ~height_bound:4.
           ~objective:(Formulation.Min_height_plus_wire 0.1)
           [ Formulation.plain_item def ]))

let test_formulation_area_cut_bounds_lp () =
  (* The LP root bound must be at least total area / width. *)
  let defs =
    List.init 3 (fun i ->
        Module_def.rigid ~id:i ~name:(Printf.sprintf "m%d" i) ~w:2. ~h:2.)
  in
  let built =
    Formulation.build ~chip_width:4. ~height_bound:20.
      (List.map Formulation.plain_item defs)
  in
  let outcome = solve_built built in
  Alcotest.(check bool) "root bound >= area/W" true
    (outcome.BB.root_bound >= (12. /. 4.) -. 1e-6)

let test_rel_of_geometry () =
  let a = rect 0. 0. 2. 2. in
  Alcotest.(check bool) "left" true
    (Formulation.rel_of_geometry a (rect 2. 0. 2. 2.) = Some Formulation.Rel_left);
  Alcotest.(check bool) "above" true
    (Formulation.rel_of_geometry (rect 0. 2. 2. 2.) a = Some Formulation.Rel_above);
  Alcotest.(check bool) "overlap none" true
    (Formulation.rel_of_geometry a (rect 1. 1. 2. 2.) = None)

let test_assign_warm_feasible () =
  (* Warm assignment of a hand-made placement must satisfy the model. *)
  let d1 = Module_def.rigid ~id:0 ~name:"a" ~w:2. ~h:3. in
  let d2 = Module_def.rigid ~id:1 ~name:"b" ~w:2. ~h:3. in
  let built =
    Formulation.build ~chip_width:4. ~height_bound:12.
      ~fixed:[ rect 0. 0. 4. 1. ]
      [ Formulation.plain_item d1; Formulation.plain_item d2 ]
  in
  let env k = if k = 0 then rect 0. 1. 2. 3. else rect 2. 1. 2. 3. in
  let sol = Formulation.assign_warm built env ~rotated:(fun _ -> false) in
  checkf "feasible" 0.
    (Fp_lp.Lp_problem.constraint_violation
       (Fp_milp.Model.problem built.Formulation.model)
       sol);
  Alcotest.(check bool) "integral" true
    (Fp_milp.Model.integral built.Formulation.model sol)

let test_assign_warm_rejects_overlap () =
  let d1 = Module_def.rigid ~id:0 ~name:"a" ~w:2. ~h:3. in
  let d2 = Module_def.rigid ~id:1 ~name:"b" ~w:2. ~h:3. in
  let built =
    Formulation.build ~chip_width:4. ~height_bound:12.
      [ Formulation.plain_item d1; Formulation.plain_item d2 ]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Formulation.assign_warm built
            (fun _ -> rect 0. 0. 2. 3.)
            ~rotated:(fun _ -> false));
       false
     with Invalid_argument _ -> true)

(* ------------------------ formulation modes ------------------------- *)

(* Solve a built formulation the way production does: propagation
   rides the strengthened mode. *)
let solve_mode built =
  let params =
    { BB.default_params with
      BB.propagate = built.Formulation.formulation <> Formulation.Basic }
  in
  BB.solve ~params built.Formulation.model

let test_modes_agree_on_optimum =
  (* Basic and tight are the same integer program in two relaxations:
     on any instance both must certify optimal and agree on the optimal
     height. *)
  QCheck.Test.make ~name:"formulation modes agree on the optimum" ~count:20
    QCheck.(list_of_size (Gen.return 3) (pair (int_range 1 4) (int_range 1 4)))
    (fun dims ->
      QCheck.assume (dims <> []);
      let items =
        List.mapi
          (fun i (w, h) ->
            Formulation.plain_item
              (Module_def.rigid ~id:i ~name:(Printf.sprintf "m%d" i)
                 ~w:(float_of_int w) ~h:(float_of_int h)))
          dims
      in
      let solve mode =
        let built =
          Formulation.build ~chip_width:6. ~height_bound:30. ~check:true
            ~formulation:mode items
        in
        match solve_mode built with
        | { BB.status = BB.Optimal; best = Some (_, obj); _ } -> obj
        | _ -> QCheck.Test.fail_report "mode did not reach Optimal"
      in
      Float.abs (solve Formulation.Basic -. solve Formulation.Tight) <= 1e-5)

let test_per_pair_m_monotone () =
  (* Per-pair M starts at most at the direction cap and only shrinks
     when bounds tighten further. *)
  let items =
    List.init 2 (fun i ->
        Formulation.plain_item
          (Module_def.rigid ~id:i ~name:(Printf.sprintf "m%d" i) ~w:2. ~h:3.))
  in
  let built =
    Formulation.build ~chip_width:6. ~height_bound:20.
      ~formulation:Formulation.Tight items
  in
  Alcotest.(check bool) "sep rows recorded" true
    (built.Formulation.sep_rows <> []);
  List.iter
    (fun sr ->
      Alcotest.(check bool) "M <= cap" true
        (sr.Formulation.sr_m <= sr.Formulation.sr_cap +. 1e-9))
    built.Formulation.sep_rows;
  let before =
    List.map (fun sr -> sr.Formulation.sr_m) built.Formulation.sep_rows
  in
  let prob = Fp_milp.Model.problem built.Formulation.model in
  let h = built.Formulation.height in
  Fp_lp.Lp_problem.set_bounds prob h ~lb:(Fp_lp.Lp_problem.var_lb prob h)
    ~ub:8.;
  ignore (Formulation.retighten built : int);
  List.iter2
    (fun m0 sr ->
      Alcotest.(check bool) "M only shrinks" true
        (sr.Formulation.sr_m <= m0 +. 1e-9))
    before built.Formulation.sep_rows

let test_augment_modes_match_height () =
  (* End-to-end: the full augmentation flow reaches the same committed
     height whatever the formulation mode (same greedy decisions, since
     every step is solved to optimality on this size). *)
  let nl =
    Generator.generate
      { Generator.default_config with Generator.num_modules = 6; seed = 11 }
  in
  let run fm =
    (Augment.run
       ~config:{ Augment.default_config with Augment.formulation = fm }
       nl)
      .Augment.placement.Placement.height
  in
  checkf "tight height" (run Formulation.Basic) (run Formulation.Tight)

(* ---------------------------- warm start ---------------------------- *)

let test_warm_start_no_overlap () =
  let items =
    Array.of_list
      (List.map Formulation.plain_item
         [
           Module_def.rigid ~id:0 ~name:"a" ~w:4. ~h:2.;
           Module_def.rigid ~id:1 ~name:"b" ~w:3. ~h:3.;
           Module_def.rigid ~id:2 ~name:"c" ~w:2. ~h:2.;
           Module_def.flexible ~id:3 ~name:"f" ~area:6. ~min_aspect:0.5
             ~max_aspect:2.;
         ])
  in
  let sky = Skyline.create ~width:8. in
  let choices =
    Warm_start.place_group ~skyline:sky ~allow_rotation:true
      ~linearization:Formulation.Secant items
  in
  Array.iteri
    (fun i a ->
      Array.iteri
        (fun j b ->
          if j > i then
            Alcotest.(check bool) "no overlap" false
              (Rect.overlaps a.Warm_start.envelope b.Warm_start.envelope))
        choices)
    choices;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "inside strip" true
        (c.Warm_start.envelope.Rect.x >= -1e-6
         && Rect.x_max c.Warm_start.envelope <= 8. +. 1e-6))
    choices

let test_warm_start_respects_skyline () =
  let items =
    [| Formulation.plain_item (Module_def.rigid ~id:0 ~name:"a" ~w:4. ~h:1.) |]
  in
  let sky =
    Skyline.add_rect (Skyline.create ~width:4.) (rect 0. 0. 4. 5.)
  in
  let choices =
    Warm_start.place_group ~skyline:sky ~allow_rotation:false
      ~linearization:Formulation.Secant items
  in
  Alcotest.(check bool) "above profile" true
    (choices.(0).Warm_start.envelope.Rect.y >= 5. -. 1e-6)

let test_warm_start_too_wide () =
  let items =
    [| Formulation.plain_item (Module_def.rigid ~id:0 ~name:"a" ~w:9. ~h:9.) |]
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Warm_start.place_group ~skyline:(Skyline.create ~width:4.)
            ~allow_rotation:false ~linearization:Formulation.Secant items);
       false
     with Invalid_argument _ -> true)

(* ----------------------------- augment ------------------------------ *)

let small_cfg =
  {
    Augment.default_config with
    Augment.group_size = 3;
    milp = { Augment.default_config.Augment.milp with BB.node_limit = 600 };
  }

let test_augment_places_everything () =
  let nl =
    Generator.generate
      { Generator.default_config with Generator.num_modules = 8; seed = 21 }
  in
  let res = Augment.run ~config:small_cfg nl in
  let pl = res.Augment.placement in
  Alcotest.(check int) "all placed" 8 (Placement.num_placed pl);
  Alcotest.(check bool) "valid" true (Placement.valid pl = Ok ());
  Alcotest.(check bool) "some utilization" true
    (Metrics.utilization nl pl > 0.5);
  Alcotest.(check int) "steps" 3 (List.length res.Augment.steps)

let test_augment_deterministic () =
  let nl =
    Generator.generate
      { Generator.default_config with Generator.num_modules = 7; seed = 22 }
  in
  let a = Augment.run ~config:small_cfg nl in
  let b = Augment.run ~config:small_cfg nl in
  checkf "same height" a.Augment.placement.Placement.height
    b.Augment.placement.Placement.height

let test_augment_candidates_concurrent () =
  (* candidates > 1 changes the greedy search, and the candidates are
     evaluated concurrently; the commit must not depend on how the batch
     was scheduled, and the stats must record how many candidates were
     tried. *)
  let nl =
    Generator.generate
      { Generator.default_config with Generator.num_modules = 8; seed = 32 }
  in
  let run () =
    Augment.run ~config:{ small_cfg with Augment.candidates = 3 } nl
  in
  let a = run () and b = run () in
  Alcotest.(check int) "all placed" 8
    (Placement.num_placed a.Augment.placement);
  Alcotest.(check bool) "valid" true
    (Placement.valid a.Augment.placement = Ok ());
  checkf "repeat height" a.Augment.placement.Placement.height
    b.Augment.placement.Placement.height;
  Alcotest.(check bool) "identical rects" true
    (Placement.rects a.Augment.placement = Placement.rects b.Augment.placement);
  let first = List.hd a.Augment.steps in
  Alcotest.(check int) "first step tried 3 candidates" 3
    first.Augment.candidates_evaluated

let test_augment_rejects_bad_parallel_config () =
  let nl = two_module_nl () in
  Alcotest.check_raises "candidates < 1"
    (Invalid_argument "Augment.run: candidates < 1") (fun () ->
      ignore
        (Augment.run ~config:{ small_cfg with Augment.candidates = 0 } nl))

let test_augment_chip_width_respected () =
  let nl =
    Generator.generate
      { Generator.default_config with Generator.num_modules = 6; seed = 23 }
  in
  let cfg = { small_cfg with Augment.chip_width = Some 120. } in
  let res = Augment.run ~config:cfg nl in
  checkf "width as configured" 120. res.Augment.placement.Placement.chip_width;
  Alcotest.(check bool) "valid" true (Placement.valid res.Augment.placement = Ok ())

let test_augment_envelopes_add_margins () =
  let nl =
    Generator.generate
      { Generator.default_config with Generator.num_modules = 6; seed = 24 }
  in
  let cfg =
    { small_cfg with
      Augment.envelope =
        Some { Augment.pitch_h = 0.3; pitch_v = 0.3; share = 0.5 } }
  in
  let res = Augment.run ~config:cfg nl in
  let pl = res.Augment.placement in
  Alcotest.(check bool) "valid" true (Placement.valid pl = Ok ());
  (* At least one module has a strictly larger envelope than silicon. *)
  Alcotest.(check bool) "margins present" true
    (List.exists
       (fun p ->
         Rect.area p.Placement.envelope > Rect.area p.Placement.rect +. 1e-6)
       pl.Placement.placed)

let test_augment_covering_ablation () =
  (* With covering off the result must still be valid; integer counts per
     step are at least as large as with covering on (Theorem 2's point). *)
  let nl =
    Generator.generate
      { Generator.default_config with Generator.num_modules = 9; seed = 25 }
  in
  let with_cover = Augment.run ~config:small_cfg nl in
  let without =
    Augment.run ~config:{ small_cfg with Augment.use_covering = false } nl
  in
  Alcotest.(check bool) "both valid" true
    (Placement.valid with_cover.Augment.placement = Ok ()
     && Placement.valid without.Augment.placement = Ok ());
  let ints r =
    List.fold_left (fun a s -> a + s.Augment.num_integer_vars) 0
      r.Augment.steps
  in
  Alcotest.(check bool) "covering never uses more integer vars" true
    (ints with_cover <= ints without)

let test_augment_empty_instance () =
  let nl = Netlist.create ~name:"empty" [] [] in
  Alcotest.check_raises "empty" (Invalid_argument "Augment.run: empty instance")
    (fun () -> ignore (Augment.run nl))

let test_items_of_group_margins () =
  let nl = two_module_nl () in
  let cfg =
    { Augment.default_config with
      Augment.envelope = Some { Augment.pitch_h = 1.; pitch_v = 1.; share = 1. } }
  in
  match Augment.items_of_group cfg nl [ 0 ] with
  | [ item ] ->
    let _, r, _, _ = item.Formulation.margins in
    (* Module 0 has one pin on its right side. *)
    checkf "right margin = 1 pin * pitch" 1. r
  | _ -> Alcotest.fail "expected one item"

(* ----------------------------- topology ----------------------------- *)

(* Hand-made wasteful placement: stacked with a gap, height 7 where 4
   is optimal. *)
let gapped_stack () =
  Placement.empty ~chip_width:6.
  |> Fun.flip Placement.add (placed 0 (rect 0. 0. 4. 2.))
  |> Fun.flip Placement.add (placed 1 (rect 0. 5. 2. 2.))

let test_topology_improves_or_keeps () =
  let nl = two_module_nl () in
  let pl = gapped_stack () in
  let pl2, stats = Topology.optimize nl pl in
  Alcotest.(check int) "no integer vars" 0 stats.Topology.num_integer_vars;
  Alcotest.(check bool) "height reduced" true
    (pl2.Placement.height <= pl.Placement.height +. 1e-6);
  checkf "optimal stack" 4. pl2.Placement.height;
  Alcotest.(check bool) "valid" true (Placement.valid pl2 = Ok ())

(* A failed LP (here a forced iteration limit) leaves the input plan. *)
let test_topology_keeps_input_on_lp_failure () =
  let site = "revised.iteration_limit" in
  let pl = gapped_stack () in
  Fp_util.Fault.arm (Fp_util.Fault.spec site);
  let (pl2, stats), injected =
    Fun.protect ~finally:Fp_util.Fault.reset (fun () ->
        let r = Topology.optimize (two_module_nl ()) pl in
        (r, Fp_util.Fault.injections site))
  in
  Alcotest.(check int) "LP failed" 1 injected;
  Alcotest.(check bool) "input placement returned" true (pl2 = pl);
  checkf "height kept" stats.Topology.height_before stats.Topology.height_after

let test_topology_rejects_invalid () =
  let nl = two_module_nl () in
  let pl =
    Placement.empty ~chip_width:6.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 4. 2.))
    |> Fun.flip Placement.add (placed 1 (rect 1. 1. 2. 2.))
  in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Topology.optimize nl pl);
       false
     with Invalid_argument _ -> true)

let test_topology_flexible_reshape () =
  (* A flexible module stacked over a rigid one: topology LP may reshape
     it to reduce height while keeping the topology. *)
  let mods =
    [ Module_def.rigid ~id:0 ~name:"a" ~w:4. ~h:2.;
      Module_def.flexible ~id:1 ~name:"f" ~area:8. ~min_aspect:0.5
        ~max_aspect:2. ]
  in
  let nl = Netlist.create ~name:"mix" mods [] in
  let pl =
    Placement.empty ~chip_width:4.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 4. 2.))
    (* Flexible placed at its narrowest: w=2, h=4. *)
    |> Fun.flip Placement.add (placed 1 (rect 0. 2. 2. 4.))
  in
  let pl2, _ = Topology.optimize nl pl in
  (* Widening the flexible to w=4 gives h=2: total height 4 < 6. *)
  Alcotest.(check bool) "height reduced" true (pl2.Placement.height < 5.);
  Alcotest.(check bool) "valid" true (Placement.valid pl2 = Ok ())

(* ------------------------------ compact ----------------------------- *)

let test_compact_drops_floaters () =
  let pl =
    Placement.empty ~chip_width:10.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 3. 2.))
    |> Fun.flip Placement.add (placed 1 (rect 0. 6. 3. 2.))  (* floating *)
    |> Fun.flip Placement.add (placed 2 (rect 5. 3. 2. 2.))  (* floating *)
  in
  let pl2 = Compact.vertical pl in
  checkf "height" 4. pl2.Placement.height;
  Alcotest.(check bool) "valid" true (Placement.valid pl2 = Ok ());
  (match Placement.find pl2 2 with
  | Some p -> checkf "dropped to floor" 0. p.Placement.rect.Rect.y
  | None -> Alcotest.fail "module 2 missing");
  checkf "gap area zero" 0. (Compact.gap_area pl2)

let test_compact_idempotent () =
  let pl =
    Placement.empty ~chip_width:10.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 3. 2.))
    |> Fun.flip Placement.add (placed 1 (rect 1. 2. 3. 2.))
  in
  let a = Compact.vertical pl in
  let b = Compact.vertical a in
  checkf "idempotent height" a.Placement.height b.Placement.height

let test_compact_preserves_x () =
  let pl =
    Placement.add (Placement.empty ~chip_width:10.) (placed 0 (rect 4. 7. 2. 2.))
  in
  let pl2 = Compact.vertical pl in
  match Placement.find pl2 0 with
  | Some p ->
    checkf "x preserved" 4. p.Placement.rect.Rect.x;
    checkf "y dropped" 0. p.Placement.rect.Rect.y
  | None -> Alcotest.fail "missing"

(* ------------------------------ refine ------------------------------ *)

let test_refine_improves_bad_placement () =
  (* Tall narrow stack with room beside it: re-insertion should drop the
     top module next to the stack. *)
  let mods =
    [ Module_def.rigid ~id:0 ~name:"a" ~w:3. ~h:3.;
      Module_def.rigid ~id:1 ~name:"b" ~w:3. ~h:3.;
      Module_def.rigid ~id:2 ~name:"c" ~w:3. ~h:3. ]
  in
  let nl = Netlist.create ~name:"stack" mods [] in
  let pl =
    Placement.empty ~chip_width:9.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 3. 3.))
    |> Fun.flip Placement.add (placed 1 (rect 0. 3. 3. 3.))
    |> Fun.flip Placement.add (placed 2 (rect 0. 6. 3. 3.))
  in
  let pl2, report = Refine.reinsert_top nl pl in
  Alcotest.(check bool) "improved" true
    (pl2.Placement.height < pl.Placement.height -. 1e-6);
  Alcotest.(check bool) "rounds counted" true (report.Refine.rounds_improved >= 1);
  Alcotest.(check bool) "valid" true (Placement.valid pl2 = Ok ());
  checkf "reports heights" pl.Placement.height report.Refine.height_before

let test_refine_keeps_good_placement () =
  let mods =
    [ Module_def.rigid ~id:0 ~name:"a" ~w:4. ~h:2.;
      Module_def.rigid ~id:1 ~name:"b" ~w:4. ~h:2. ]
  in
  let nl = Netlist.create ~name:"tight" mods [] in
  let pl =
    Placement.empty ~chip_width:4.
    |> Fun.flip Placement.add (placed 0 (rect 0. 0. 4. 2.))
    |> Fun.flip Placement.add (placed 1 (rect 0. 2. 4. 2.))
  in
  let pl2, _ = Refine.reinsert_top nl pl in
  checkf "unchanged height" 4. pl2.Placement.height;
  Alcotest.(check bool) "valid" true (Placement.valid pl2 = Ok ())

(* --------------------- end-to-end property test --------------------- *)

let test_augment_always_valid =
  QCheck.Test.make ~name:"augment produces valid floorplans" ~count:8
    QCheck.(int_range 4 9)
    (fun seed ->
      let nl =
        Generator.generate
          { Generator.default_config with
            Generator.num_modules = 5 + (seed mod 3); seed }
      in
      let cfg =
        { small_cfg with
          Augment.milp = { small_cfg.Augment.milp with BB.node_limit = 200 } }
      in
      let res = Augment.run ~config:cfg nl in
      Placement.valid res.Augment.placement = Ok ()
      && Placement.num_placed res.Augment.placement = Netlist.num_modules nl)

let () =
  Alcotest.run "fp_core"
    [
      ( "placement",
        [
          Alcotest.test_case "add/find" `Quick test_placement_add_find;
          Alcotest.test_case "duplicate" `Quick test_placement_duplicate;
          Alcotest.test_case "detects overlap" `Quick
            test_placement_valid_detects_overlap;
          Alcotest.test_case "detects escape" `Quick
            test_placement_valid_detects_out_of_chip;
          Alcotest.test_case "abutting ok" `Quick test_placement_valid_ok_abutting;
          Alcotest.test_case "pin position" `Quick test_placement_pin_position;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "utilization" `Quick test_metrics_utilization;
          Alcotest.test_case "hpwl" `Quick test_metrics_hpwl;
        ] );
      ( "formulation",
        [
          Alcotest.test_case "single rigid" `Quick test_formulation_single_rigid;
          Alcotest.test_case "rotation helps" `Quick
            test_formulation_rotation_helps;
          Alcotest.test_case "rotation disabled" `Quick
            test_formulation_rotation_disabled;
          Alcotest.test_case "side by side" `Quick
            test_formulation_two_rigid_side_by_side;
          Alcotest.test_case "stacking forced" `Quick
            test_formulation_stacking_forced;
          Alcotest.test_case "obstacle" `Quick test_formulation_obstacle;
          Alcotest.test_case "pocket obstacle" `Quick
            test_formulation_pocket_obstacle;
          Alcotest.test_case "flexible secant" `Quick
            test_formulation_flexible_secant_reshapes;
          Alcotest.test_case "flexible endpoints" `Quick
            test_formulation_flexible_exact_at_endpoints;
          Alcotest.test_case "tangent hull" `Quick
            test_formulation_tangent_underestimates;
          Alcotest.test_case "envelope margins" `Quick
            test_formulation_envelope_margins;
          Alcotest.test_case "wire objective" `Quick
            test_formulation_wire_objective;
          Alcotest.test_case "wire needs context" `Quick
            test_formulation_wire_requires_context;
          Alcotest.test_case "net length bound" `Quick
            test_formulation_net_length_bound;
          Alcotest.test_case "net length infeasible" `Quick
            test_formulation_net_length_bound_infeasible;
          Alcotest.test_case "area cut" `Quick test_formulation_area_cut_bounds_lp;
          Alcotest.test_case "rel of geometry" `Quick test_rel_of_geometry;
          Alcotest.test_case "warm assignment feasible" `Quick
            test_assign_warm_feasible;
          Alcotest.test_case "warm rejects overlap" `Quick
            test_assign_warm_rejects_overlap;
        ] );
      ( "modes",
        [
          QCheck_alcotest.to_alcotest test_modes_agree_on_optimum;
          Alcotest.test_case "per-pair M monotone" `Quick
            test_per_pair_m_monotone;
          Alcotest.test_case "augment modes match height" `Slow
            test_augment_modes_match_height;
        ] );
      ( "warm_start",
        [
          Alcotest.test_case "no overlap" `Quick test_warm_start_no_overlap;
          Alcotest.test_case "respects skyline" `Quick
            test_warm_start_respects_skyline;
          Alcotest.test_case "too wide" `Quick test_warm_start_too_wide;
        ] );
      ( "augment",
        [
          Alcotest.test_case "places everything" `Quick
            test_augment_places_everything;
          Alcotest.test_case "deterministic" `Quick test_augment_deterministic;
          Alcotest.test_case "concurrent candidates" `Quick
            test_augment_candidates_concurrent;
          Alcotest.test_case "rejects bad parallel config" `Quick
            test_augment_rejects_bad_parallel_config;
          Alcotest.test_case "chip width respected" `Quick
            test_augment_chip_width_respected;
          Alcotest.test_case "envelopes add margins" `Quick
            test_augment_envelopes_add_margins;
          Alcotest.test_case "covering ablation" `Quick
            test_augment_covering_ablation;
          Alcotest.test_case "empty instance" `Quick test_augment_empty_instance;
          Alcotest.test_case "items of group margins" `Quick
            test_items_of_group_margins;
          QCheck_alcotest.to_alcotest test_augment_always_valid;
        ] );
      ( "topology",
        [
          Alcotest.test_case "improves or keeps" `Quick
            test_topology_improves_or_keeps;
          Alcotest.test_case "keeps input on LP failure" `Quick
            test_topology_keeps_input_on_lp_failure;
          Alcotest.test_case "rejects invalid" `Quick test_topology_rejects_invalid;
          Alcotest.test_case "flexible reshape" `Quick
            test_topology_flexible_reshape;
        ] );
      ( "compact",
        [
          Alcotest.test_case "drops floaters" `Quick test_compact_drops_floaters;
          Alcotest.test_case "idempotent" `Quick test_compact_idempotent;
          Alcotest.test_case "preserves x" `Quick test_compact_preserves_x;
        ] );
      ( "refine",
        [
          Alcotest.test_case "improves bad placement" `Quick
            test_refine_improves_bad_placement;
          Alcotest.test_case "keeps good placement" `Quick
            test_refine_keeps_good_placement;
        ] );
    ]
