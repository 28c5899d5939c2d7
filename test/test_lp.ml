(* Tests for Fp_lp: the model builder and the bounded-variable revised
   simplex on known LPs.  Includes a brute-force 2-D vertex enumeration
   cross-check of optimality. *)

module Lp = Fp_lp.Lp_problem
module Revised = Fp_lp.Revised

let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let solve p = fst (Revised.solve p)

let solve_opt p =
  match solve p with
  | Revised.Optimal { x; obj; _ } -> (x, obj)
  | Revised.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Revised.Unbounded -> Alcotest.fail "unexpected unbounded"
  | Revised.Iteration_limit -> Alcotest.fail "unexpected iteration limit"

(* ------------------------- model builder --------------------------- *)

let test_builder_basics () =
  let p = Lp.create ~name:"m" () in
  let x = Lp.add_var p ~lb:1. ~ub:5. ~obj:2. "x" in
  let y = Lp.add_var p "y" in
  Lp.add_constr p [ (1., x); (2., y) ] Lp.Le 10.;
  Alcotest.(check int) "vars" 2 (Lp.num_vars p);
  Alcotest.(check int) "constrs" 1 (Lp.num_constrs p);
  Alcotest.(check string) "name" "x" (Lp.var_name p x);
  checkf "lb" 1. (Lp.var_lb p x);
  checkf "ub" 5. (Lp.var_ub p x);
  checkf "obj" 2. (Lp.obj_coeff p x)

let test_builder_duplicate_terms () =
  let p = Lp.create () in
  let x = Lp.add_var p "x" in
  Lp.add_constr p [ (1., x); (2., x) ] Lp.Eq 6.;
  Lp.set_obj_coeff p x 1.;
  let sol, obj = solve_opt p in
  checkf "merged coefficients" 2. sol.(x);
  checkf "objective" 2. obj

let test_builder_bad_var () =
  let p = Lp.create () in
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Lp_problem.add_constr: unknown variable 3") (fun () ->
      Lp.add_constr p [ (1., 3) ] Lp.Le 1.)

let test_builder_bad_bounds () =
  let p = Lp.create () in
  Alcotest.check_raises "ub < lb"
    (Invalid_argument "Lp_problem.add_var x: ub (0) < lb (1)") (fun () ->
      ignore (Lp.add_var p ~lb:1. ~ub:0. "x"))

let test_tighten_bounds () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:1. ~ub:5. "x" in
  Alcotest.(check bool) "tightens" true
    (Lp.tighten_bounds p x ~lb:2. ~ub:7.);
  checkf "lb" 2. (Lp.var_lb p x);
  checkf "ub" 5. (Lp.var_ub p x);
  Alcotest.(check bool) "empty refused" false
    (Lp.tighten_bounds p x ~lb:6. ~ub:8.);
  checkf "lb untouched" 2. (Lp.var_lb p x);
  checkf "ub untouched" 5. (Lp.var_ub p x)

let test_violation () =
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:2. "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge 1.;
  checkf "feasible point" 0. (Lp.constraint_violation p [| 1.5 |]);
  checkf "bound violated" 1. (Lp.constraint_violation p [| 3. |]);
  checkf "row violated" 0.5 (Lp.constraint_violation p [| 0.5 |])

(* --------------------------- known LPs ------------------------------ *)

let test_textbook_max () =
  (* max 3x + 5y; x <= 4; 2y <= 12; 3x + 2y <= 18. Optimum (2, 6) -> 36. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:3. "x" in
  let y = Lp.add_var p ~obj:5. "y" in
  Lp.set_sense p Lp.Maximize;
  Lp.add_constr p [ (1., x) ] Lp.Le 4.;
  Lp.add_constr p [ (2., y) ] Lp.Le 12.;
  Lp.add_constr p [ (3., x); (2., y) ] Lp.Le 18.;
  let sol, obj = solve_opt p in
  checkf "obj" 36. obj;
  checkf "x" 2. sol.(x);
  checkf "y" 6. sol.(y)

let test_degenerate_lp () =
  (* Degenerate vertex: several constraints meet at the optimum. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:(-1.) "x" in
  let y = Lp.add_var p ~obj:(-1.) "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Le 1.;
  Lp.add_constr p [ (1., x) ] Lp.Le 1.;
  Lp.add_constr p [ (1., y) ] Lp.Le 1.;
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Le 1.;
  let _, obj = solve_opt p in
  checkf "obj" (-1.) obj

let test_equality_system () =
  (* x + y = 3; x - y = -1 -> (1, 2). *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:neg_infinity ~obj:1. "x" in
  let y = Lp.add_var p ~obj:1. "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Eq 3.;
  Lp.add_constr p [ (1., x); (-1., y) ] Lp.Eq (-1.);
  let sol, _ = solve_opt p in
  checkf "x" 1. sol.(x);
  checkf "y" 2. sol.(y)

let test_free_variable () =
  (* min x st x >= -7, via free variable and a Ge row. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:neg_infinity ~obj:1. "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge (-7.);
  let sol, obj = solve_opt p in
  checkf "x" (-7.) sol.(x);
  checkf "obj" (-7.) obj

let test_upper_bounded_only () =
  (* max x with x <= 3 as a pure bound, lb = -inf. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:neg_infinity ~ub:3. ~obj:1. "x" in
  Lp.set_sense p Lp.Maximize;
  let sol, obj = solve_opt p in
  checkf "x" 3. sol.(x);
  checkf "obj" 3. obj

let test_bound_flips () =
  (* Optimum rests on upper bounds; exercises the bound-flip path. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:1. ~obj:(-1.) "x" in
  let y = Lp.add_var p ~ub:1. ~obj:(-2.) "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Le 1.5;
  let sol, obj = solve_opt p in
  checkf "obj" (-2.5) obj;
  checkf "x" 0.5 sol.(x);
  checkf "y" 1. sol.(y)

let test_fixed_variable () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:2. ~ub:2. ~obj:1. "x" in
  let y = Lp.add_var p ~ub:4. ~obj:1. "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Ge 5.;
  let sol, obj = solve_opt p in
  checkf "x fixed" 2. sol.(x);
  checkf "obj" 5. obj

let test_infeasible () =
  let p = Lp.create () in
  let x = Lp.add_var p "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge 5.;
  Lp.add_constr p [ (1., x) ] Lp.Le 3.;
  Alcotest.(check bool) "infeasible" true (solve p = Revised.Infeasible)

let test_infeasible_equalities () =
  let p = Lp.create () in
  let x = Lp.add_var p "x" in
  let y = Lp.add_var p "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Eq 1.;
  Lp.add_constr p [ (2., x); (2., y) ] Lp.Eq 3.;
  Alcotest.(check bool) "inconsistent" true (solve p = Revised.Infeasible)

let test_unbounded () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1. "x" in
  let y = Lp.add_var p ~obj:(-1.) "y" in
  Lp.add_constr p [ (1., x); (-1., y) ] Lp.Le 0.;
  Alcotest.(check bool) "unbounded" true (solve p = Revised.Unbounded)

let test_empty_objective () =
  (* Pure feasibility problem. *)
  let p = Lp.create () in
  let x = Lp.add_var p "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge 2.;
  let sol, obj = solve_opt p in
  checkf "obj 0" 0. obj;
  Alcotest.(check bool) "feasible" true (sol.(x) >= 2. -. 1e-6)

let test_redundant_rows () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1. "x" in
  for _ = 1 to 5 do
    Lp.add_constr p [ (1., x) ] Lp.Ge 1.
  done;
  Lp.add_constr p [ (2., x) ] Lp.Ge 2.;
  let _, obj = solve_opt p in
  checkf "obj" 1. obj

(* ----------------- brute-force 2-D cross-check --------------------- *)

(* Enumerate candidate vertices of a 2-D LP: intersections of all pairs
   of constraint boundaries (including box bounds), filter feasible, and
   take the best objective.  Exact for non-degenerate bounded problems. *)
let brute_force_2d ~c1 ~c2 ~rows ~ub1 ~ub2 =
  (* Lines: a x + b y = r, from rows and the four bounds. *)
  let lines =
    rows
    @ [ (1., 0., 0.); (0., 1., 0.); (1., 0., ub1); (0., 1., ub2) ]
  in
  let feasible (x, y) =
    x >= -1e-7 && y >= -1e-7 && x <= ub1 +. 1e-7 && y <= ub2 +. 1e-7
    && List.for_all (fun (a, b, r) -> (a *. x) +. (b *. y) <= r +. 1e-7) rows
  in
  let best = ref infinity in
  List.iteri
    (fun i (a1, b1, r1) ->
      List.iteri
        (fun j (a2, b2, r2) ->
          if j > i then begin
            let det = (a1 *. b2) -. (a2 *. b1) in
            if Float.abs det > 1e-9 then begin
              let x = ((r1 *. b2) -. (r2 *. b1)) /. det in
              let y = ((a1 *. r2) -. (a2 *. r1)) /. det in
              if feasible (x, y) then begin
                let v = (c1 *. x) +. (c2 *. y) in
                if v < !best then best := v
              end
            end
          end)
        lines)
    lines;
  !best

let random_2d_lp_arb =
  (* Coefficients in small integers; constraints of the form
     a x + b y <= r with a, b >= 0 and r > 0, so (0,0) is feasible and the
     box keeps everything bounded. *)
  QCheck.make
    ~print:(fun (c1, c2, rows) ->
      Printf.sprintf "c=(%g,%g) rows=[%s]" c1 c2
        (String.concat "; "
           (List.map (fun (a, b, r) -> Printf.sprintf "%gx+%gy<=%g" a b r) rows)))
    QCheck.Gen.(
      triple
        (map (fun n -> float_of_int (n - 5)) (int_bound 10))
        (map (fun n -> float_of_int (n - 5)) (int_bound 10))
        (list_size (int_range 1 5)
           (map
              (fun (a, b, r) ->
                (float_of_int a, float_of_int b, float_of_int (r + 1)))
              (triple (int_bound 4) (int_bound 4) (int_bound 20)))))

let test_simplex_matches_brute_force =
  QCheck.Test.make ~name:"simplex = 2-D vertex enumeration" ~count:500
    random_2d_lp_arb (fun (c1, c2, rows) ->
      let ub1 = 25. and ub2 = 25. in
      let p = Lp.create () in
      let x = Lp.add_var p ~ub:ub1 ~obj:c1 "x" in
      let y = Lp.add_var p ~ub:ub2 ~obj:c2 "y" in
      List.iter (fun (a, b, r) -> Lp.add_constr p [ (a, x); (b, y) ] Lp.Le r) rows;
      match solve p with
      | Revised.Optimal { obj; x = sol; _ } ->
        let expected = brute_force_2d ~c1 ~c2 ~rows ~ub1 ~ub2 in
        Float.abs (obj -. expected) < 1e-5
        && Lp.constraint_violation p sol < 1e-6
      | _ -> false)

let test_solution_always_feasible =
  QCheck.Test.make ~name:"optimal solutions satisfy all constraints"
    ~count:300 random_2d_lp_arb (fun (c1, c2, rows) ->
      let p = Lp.create () in
      let x = Lp.add_var p ~ub:50. ~obj:c1 "x" in
      let y = Lp.add_var p ~ub:50. ~obj:c2 "y" in
      List.iter (fun (a, b, r) -> Lp.add_constr p [ (a, x); (b, y) ] Lp.Le r) rows;
      match solve p with
      | Revised.Optimal { x = sol; _ } -> Lp.constraint_violation p sol < 1e-6
      | _ -> false)

(* ---------------------- interval propagation ----------------------- *)

let test_propagate_tightens_and_restores () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:0. ~ub:10. "x" in
  let y = Lp.add_var p ~lb:0. ~ub:10. "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Le 4.;
  (match Lp.propagate_bounds p with
  | `Ok undo ->
    checkf "x ub" 4. (Lp.var_ub p x);
    checkf "y ub" 4. (Lp.var_ub p y);
    Alcotest.(check int) "both touched" 2 (List.length undo);
    List.iter (fun (v, lb, ub) -> Lp.set_bounds p v ~lb ~ub) undo;
    checkf "x ub restored" 10. (Lp.var_ub p x);
    checkf "y ub restored" 10. (Lp.var_ub p y)
  | `Infeasible _ -> Alcotest.fail "unexpected infeasible")

let test_propagate_integral_snap () =
  (* 2b >= 1 forces lb(b) = 0.5; integral snapping rounds it to 1. *)
  let p = Lp.create () in
  let b = Lp.add_var p ~lb:0. ~ub:1. "b" in
  Lp.add_constr p [ (2., b) ] Lp.Ge 1.;
  (match Lp.propagate_bounds ~integral:(fun v -> v = b) p with
  | `Ok _ ->
    checkf "b fixed at 1" 1. (Lp.var_lb p b);
    checkf "b ub" 1. (Lp.var_ub p b)
  | `Infeasible _ -> Alcotest.fail "unexpected infeasible")

let test_propagate_detects_infeasible () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:0. ~ub:1. "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge 2.;
  (match Lp.propagate_bounds p with
  | `Ok _ -> Alcotest.fail "should be infeasible"
  | `Infeasible undo ->
    Alcotest.(check bool) "x recorded" true
      (List.exists (fun (v, _, _) -> v = x) undo))

let test_propagate_chains_rows () =
  (* x <= 2 (row), then y <= x + 1 must give y <= 3 on the next sweep. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:0. ~ub:10. "x" in
  let y = Lp.add_var p ~lb:0. ~ub:10. "y" in
  Lp.add_constr p [ (1., x) ] Lp.Le 2.;
  Lp.add_constr p [ (1., y); (-1., x) ] Lp.Le 1.;
  (match Lp.propagate_bounds p with
  | `Ok _ -> checkf "y ub chained" 3. (Lp.var_ub p y)
  | `Infeasible _ -> Alcotest.fail "unexpected infeasible")

(* Rows that cross a bound by 1e-7 — rounding, not infeasibility —
   must leave every interval well-formed, so saving and restoring the
   bounds with [set_bounds] cannot raise. *)
let test_propagate_clamps_hairline_crossing () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:0. ~ub:5. "x" in
  let y = Lp.add_var p ~lb:5. ~ub:10. "y" in
  Lp.add_constr p [ (1., x) ] Lp.Ge (5. +. 1e-7);
  Lp.add_constr p [ (1., y) ] Lp.Le (5. -. 1e-7);
  match Lp.propagate_bounds p with
  | `Ok _ ->
    List.iter
      (fun (name, v) ->
        let lb = Lp.var_lb p v and ub = Lp.var_ub p v in
        Alcotest.(check bool) (name ^ ": lb <= ub") true (lb <= ub);
        Lp.set_bounds p v ~lb ~ub)
      [ ("x", x); ("y", y) ];
    checkf "x fixed at its ub" 5. (Lp.var_lb p x);
    checkf "y fixed at its lb" 5. (Lp.var_ub p y)
  | `Infeasible _ -> Alcotest.fail "a 1e-7 crossing is not infeasible"

let test_objective_interval () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:1. ~ub:2. ~obj:2. "x" in
  let y = Lp.add_var p ~lb:0. ~ub:3. ~obj:(-1.) "y" in
  ignore x;
  ignore y;
  let lo, hi = Lp.objective_interval p in
  checkf "lo" (-1.) lo;
  checkf "hi" 4. hi

let () =
  Alcotest.run "fp_lp"
    [
      ( "builder",
        [
          Alcotest.test_case "basics" `Quick test_builder_basics;
          Alcotest.test_case "duplicate terms" `Quick test_builder_duplicate_terms;
          Alcotest.test_case "bad var" `Quick test_builder_bad_var;
          Alcotest.test_case "bad bounds" `Quick test_builder_bad_bounds;
          Alcotest.test_case "tighten bounds" `Quick test_tighten_bounds;
          Alcotest.test_case "violation" `Quick test_violation;
        ] );
      ( "propagate",
        [
          Alcotest.test_case "tightens and restores" `Quick
            test_propagate_tightens_and_restores;
          Alcotest.test_case "integral snap" `Quick test_propagate_integral_snap;
          Alcotest.test_case "detects infeasible" `Quick
            test_propagate_detects_infeasible;
          Alcotest.test_case "chains rows" `Quick test_propagate_chains_rows;
          Alcotest.test_case "clamps hairline crossing" `Quick
            test_propagate_clamps_hairline_crossing;
          Alcotest.test_case "objective interval" `Quick test_objective_interval;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "degenerate" `Quick test_degenerate_lp;
          Alcotest.test_case "equalities" `Quick test_equality_system;
          Alcotest.test_case "free variable" `Quick test_free_variable;
          Alcotest.test_case "upper bounded only" `Quick test_upper_bounded_only;
          Alcotest.test_case "bound flips" `Quick test_bound_flips;
          Alcotest.test_case "fixed variable" `Quick test_fixed_variable;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "infeasible equalities" `Quick
            test_infeasible_equalities;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "empty objective" `Quick test_empty_objective;
          Alcotest.test_case "redundant rows" `Quick test_redundant_rows;
          QCheck_alcotest.to_alcotest test_simplex_matches_brute_force;
          QCheck_alcotest.to_alcotest test_solution_always_feasible;
        ] );
    ]
