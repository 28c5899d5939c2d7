(* Tests for Fp_milp: the expression DSL, the model wrapper, and the
   branch-and-bound solver — including a brute-force cross-check over all
   0-1 assignments of small random MILPs. *)

module Expr = Fp_milp.Expr
module Model = Fp_milp.Model
module BB = Fp_milp.Branch_bound
module Lp = Fp_lp.Lp_problem

let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let work =
  Alcotest.testable
    (fun ppf (w : BB.work) ->
      Format.fprintf ppf
        "{nodes=%d; warm_hits=%d; pivots=%d; refactorizations=%d; \
         numerical_recoveries=%d}"
        w.nodes w.warm_hits w.pivots w.refactorizations w.numerical_recoveries)
    ( = )

let best_exn outcome =
  match outcome.BB.best with
  | Some (x, obj) -> (x, obj)
  | None -> Alcotest.fail "expected a solution"

(* ------------------------------ Expr -------------------------------- *)

let test_expr_algebra () =
  let m = Model.create () in
  let a = Model.add_continuous m "a" in
  let b = Model.add_continuous m "b" in
  let e = Expr.(var a + (2. * var b) - const 3. + var a) in
  checkf "constant" (-3.) (Expr.constant e);
  let terms = Expr.terms e in
  Alcotest.(check int) "two distinct vars" 2 (List.length terms);
  checkf "a coeff" 2. (List.assoc_opt a (List.map (fun (c, v) -> (v, c)) terms)
                       |> Option.get);
  checkf "eval" 5. (Expr.eval e [| 2.; 2. |])

let test_expr_zero_coeffs_dropped () =
  let m = Model.create () in
  let a = Model.add_continuous m "a" in
  let e = Expr.(var a - var a) in
  Alcotest.(check int) "cancels" 0 (List.length (Expr.terms e))

let test_expr_sum_neg () =
  let m = Model.create () in
  let a = Model.add_continuous m "a" in
  let e = Expr.(sum [ var a; neg (var a); const 4. ]) in
  checkf "eval sum" 4. (Expr.eval e [| 100. |])

(* ------------------------------ Model ------------------------------- *)

let test_model_integrality_bookkeeping () =
  let m = Model.create () in
  let x = Model.add_continuous m "x" in
  let b = Model.add_binary m "b" in
  let k = Model.add_integer m ~lb:0. ~ub:7. "k" in
  Alcotest.(check bool) "x not integer" false (Model.is_integer_var m x);
  Alcotest.(check bool) "b integer" true (Model.is_integer_var m b);
  Alcotest.(check (list int)) "order" [ b; k ] (Model.integer_vars m);
  Alcotest.(check int) "count" 2 (Model.num_integer_vars m)

let test_model_pair_validation () =
  let m = Model.create () in
  let x = Model.add_continuous m "x" in
  let b = Model.add_binary m "b" in
  Alcotest.check_raises "non-binary pair"
    (Invalid_argument "Model.declare_pair: both variables must be binary")
    (fun () -> Model.declare_pair m b x)

let test_model_integral_and_round () =
  let m = Model.create () in
  let _x = Model.add_continuous m "x" in
  let b = Model.add_binary m "b" in
  Alcotest.(check bool) "integral" true (Model.integral m [| 0.3; 1. |]);
  Alcotest.(check bool) "not integral" false (Model.integral m [| 0.3; 0.4 |]);
  let r = Model.round_integers m [| 0.3; 0.6 |] in
  checkf "continuous untouched" 0.3 r.(0);
  checkf "binary rounded" 1. r.(b)

let test_model_objective_constant () =
  let m = Model.create () in
  let x = Model.add_continuous m ~ub:10. "x" in
  Model.set_objective m `Minimize Expr.(var x + const 5.);
  let outcome = BB.solve m in
  let _, obj = best_exn outcome in
  checkf "constant included" 5. obj

(* --------------------------- known MILPs ---------------------------- *)

let test_knapsack () =
  (* max 60a + 100b + 120c st 10a + 20b + 30c <= 50 -> 220 at (0,1,1). *)
  let m = Model.create () in
  let a = Model.add_binary m "a" in
  let b = Model.add_binary m "b" in
  let c = Model.add_binary m "c" in
  Model.add_constr m
    Expr.((10. * var a) + (20. * var b) + (30. * var c))
    Model.Le (Expr.const 50.);
  Model.set_objective m `Maximize
    Expr.((60. * var a) + (100. * var b) + (120. * var c));
  let outcome = BB.solve m in
  let sol, obj = best_exn outcome in
  checkf "obj" 220. obj;
  checkf "a" 0. sol.(a);
  checkf "b" 1. sol.(b);
  checkf "c" 1. sol.(c);
  Alcotest.(check bool) "proved optimal" true (outcome.BB.status = BB.Optimal)

let test_integrality_gap () =
  (* max x1 + x2 st 2x1 + 2x2 <= 3, binaries: LP gives 1.5, MILP 1. *)
  let m = Model.create () in
  let x1 = Model.add_binary m "x1" in
  let x2 = Model.add_binary m "x2" in
  Model.add_constr m Expr.((2. * var x1) + (2. * var x2)) Model.Le (Expr.const 3.);
  Model.set_objective m `Maximize Expr.(var x1 + var x2);
  let outcome = BB.solve m in
  let _, obj = best_exn outcome in
  checkf "milp optimum" 1. obj;
  checkf "lp bound" 1.5 outcome.BB.root_bound

let test_general_integer () =
  (* min 3x + 4y st x + 2y >= 7, integers 0..10 -> try x=7,y=0: 21;
     x=1,y=3: 15; x=3,y=2: 17; best is y=3,x=1 -> 15. *)
  let m = Model.create () in
  let x = Model.add_integer m ~lb:0. ~ub:10. "x" in
  let y = Model.add_integer m ~lb:0. ~ub:10. "y" in
  Model.add_constr m Expr.(var x + (2. * var y)) Model.Ge (Expr.const 7.);
  Model.set_objective m `Minimize Expr.((3. * var x) + (4. * var y));
  let _, obj = best_exn (BB.solve m) in
  checkf "obj" 15. obj

let test_infeasible_milp () =
  let m = Model.create () in
  let a = Model.add_binary m "a" in
  let b = Model.add_binary m "b" in
  Model.add_constr m Expr.(var a + var b) Model.Ge (Expr.const 3.);
  let outcome = BB.solve m in
  Alcotest.(check bool) "infeasible" true (outcome.BB.status = BB.Infeasible);
  Alcotest.(check bool) "no point" true (outcome.BB.best = None);
  (* The root LP is still a node, solved cold. *)
  Alcotest.(check int) "root is one node" 1 outcome.BB.work.nodes;
  Alcotest.(check int) "root LP cold" 0 outcome.BB.work.warm_hits

let test_unbounded_milp () =
  let m = Model.create () in
  let x = Model.add_continuous m "x" in
  Model.set_objective m `Maximize (Expr.var x);
  let outcome = BB.solve m in
  Alcotest.(check bool) "unbounded" true (outcome.BB.status = BB.Unbounded)

let test_pure_lp_through_bb () =
  (* No integer variables: branch and bound should return the LP optimum
     from the root. *)
  let m = Model.create () in
  let x = Model.add_continuous m ~ub:4. "x" in
  Model.set_objective m `Maximize (Expr.var x);
  let outcome = BB.solve m in
  let _, obj = best_exn outcome in
  checkf "lp opt" 4. obj;
  Alcotest.(check int) "one node" 1 outcome.BB.work.nodes

let test_warm_start_accepted () =
  let m = Model.create () in
  let a = Model.add_binary m "a" in
  let b = Model.add_binary m "b" in
  Model.add_constr m Expr.(var a + var b) Model.Le (Expr.const 1.);
  Model.set_objective m `Maximize Expr.((2. * var a) + (3. * var b)) ;
  (* Warm start with the suboptimal (1, 0). *)
  let outcome = BB.solve ~warm:[| 1.; 0. |] m in
  let sol, obj = best_exn outcome in
  checkf "improved beyond warm" 3. obj;
  checkf "b" 1. sol.(b)

let test_warm_start_rejected () =
  (* An infeasible warm start must be ignored, not believed. *)
  let m = Model.create () in
  let a = Model.add_binary m "a" in
  Model.add_constr m (Expr.var a) Model.Le (Expr.const 0.);
  Model.set_objective m `Maximize (Expr.var a);
  let outcome = BB.solve ~warm:[| 1. |] m in
  let _, obj = best_exn outcome in
  checkf "true optimum" 0. obj

let test_node_limit_returns_feasible () =
  (* A problem big enough not to finish in 3 nodes, with a warm start:
     must return the warm incumbent with status Feasible. *)
  let m = Model.create () in
  let vars = List.init 14 (fun i -> Model.add_binary m (Printf.sprintf "b%d" i)) in
  List.iteri
    (fun i v ->
      List.iteri
        (fun j w ->
          if j > i then
            Model.add_constr m Expr.(var v + var w) Model.Le (Expr.const 1.))
        vars)
    vars;
  Model.set_objective m `Maximize (Expr.sum (List.map Expr.var vars));
  let params = { BB.default_params with BB.node_limit = 3 } in
  let warm = Array.make 14 0. in
  warm.(0) <- 1.;
  let outcome = BB.solve ~params ~warm m in
  Alcotest.(check bool) "status feasible" true (outcome.BB.status = BB.Feasible);
  let _, obj = best_exn outcome in
  Alcotest.(check bool) "at least warm" true (obj >= 1. -. 1e-9)

let test_constr_or_bound_folds_singletons () =
  (* Singleton rows become bounds; multi-term rows stay rows; an empty
     tightening survives as an infeasible row. *)
  let m = Model.create () in
  let x = Model.add_continuous m ~ub:10. "x" in
  let y = Model.add_continuous m ~ub:10. "y" in
  Model.add_constr_or_bound m Expr.(2. * var x) Model.Le (Expr.const 8.);
  Model.add_constr_or_bound m (Expr.var x) Model.Ge (Expr.const 1.);
  Model.add_constr_or_bound m Expr.(var x + var y) Model.Le (Expr.const 12.);
  Alcotest.(check int) "only the 2-term row remains" 1 (Model.num_constrs m);
  let lb, ub = Model.var_bounds m x in
  checkf "folded lb" 1. lb;
  checkf "folded ub" 4. ub;
  Model.add_constr_or_bound m (Expr.var y) Model.Ge (Expr.const 11.);
  Alcotest.(check int) "empty tightening kept as row" 2 (Model.num_constrs m);
  Model.set_objective m `Minimize (Expr.var x);
  let outcome = BB.solve m in
  Alcotest.(check bool) "infeasible via kept row" true
    (outcome.BB.status = BB.Infeasible)

let test_budget_accounting_exact () =
  (* One LP per node, the root cold; a node budget stops the search at
     exactly that many nodes, and the work it reports repeats exactly. *)
  let build () =
    let m = Model.create () in
    let x = Model.add_integer m ~lb:0. ~ub:10. "x" in
    let y = Model.add_integer m ~lb:0. ~ub:10. "y" in
    Model.add_constr m Expr.(var x + (2. * var y)) Model.Ge (Expr.const 7.);
    Model.set_objective m `Minimize Expr.((3. * var x) + (4. * var y));
    m
  in
  let full = BB.solve (build ()) in
  Alcotest.(check bool) "root LP cold, children warm" true
    (full.BB.work.warm_hits > 0 && full.BB.work.warm_hits < full.BB.work.nodes);
  let limit = full.BB.work.nodes - 1 in
  let cut =
    BB.solve ~params:{ BB.default_params with BB.node_limit = limit } (build ())
  in
  Alcotest.(check int) "stops at the budget" limit cut.BB.work.nodes;
  Alcotest.(check bool) "budget-bound status" true (cut.BB.status <> BB.Optimal);
  let again =
    BB.solve ~params:{ BB.default_params with BB.node_limit = limit } (build ())
  in
  Alcotest.(check work) "deterministic" cut.BB.work again.BB.work

let test_pure_lp_single_solve () =
  (* The root LP must be solved exactly once, not once for the bound and
     again for the root node. *)
  let m = Model.create () in
  let x = Model.add_continuous m ~ub:4. "x" in
  Model.set_objective m `Maximize (Expr.var x);
  let outcome = BB.solve m in
  Alcotest.(check int) "one node" 1 outcome.BB.work.nodes;
  Alcotest.(check int) "solved cold" 0 outcome.BB.work.warm_hits

let test_zero_node_limit () =
  (* With a zero node budget nothing may be solved, not even the root. *)
  let m = Model.create () in
  let a = Model.add_binary m "a" in
  Model.set_objective m `Maximize (Expr.var a);
  let params = { BB.default_params with BB.node_limit = 0 } in
  let outcome = BB.solve ~params m in
  Alcotest.(check work) "no work" BB.no_work outcome.BB.work;
  Alcotest.(check bool) "no solution" true
    (outcome.BB.status = BB.No_solution)

let test_warm_hits () =
  (* A branched search warm-starts children from the parent basis. *)
  let m = Model.create () in
  let vars =
    List.init 6 (fun i -> Model.add_binary m (Printf.sprintf "b%d" i))
  in
  List.iteri
    (fun i v ->
      List.iteri
        (fun j w ->
          if j > i && (i + j) mod 2 = 1 then
            Model.add_constr m
              Expr.((2. * var v) + (2. * var w))
              Model.Le (Expr.const 3.))
        vars)
    vars;
  Model.set_objective m `Maximize
    (Expr.sum
       (List.mapi
          (fun i v ->
            let c = float_of_int (i + 1) in
            Expr.(c * var v))
          vars));
  let out = BB.solve m in
  ignore (best_exn out);
  Alcotest.(check bool) "warm path exercised" true (out.BB.work.warm_hits > 0)

let test_pair_branching_used () =
  (* Exactly-one-of-four via a declared pair: constraints force the combo
     (1, 1); make sure pair branching converges there. *)
  let m = Model.create () in
  let bx = Model.add_binary m "bx" in
  let by = Model.add_binary m "by" in
  Model.declare_pair m bx by;
  Model.add_constr m Expr.(var bx + var by) Model.Ge (Expr.const 2.);
  Model.set_objective m `Minimize Expr.(var bx + var by);
  let sol, obj = best_exn (BB.solve m) in
  checkf "obj" 2. obj;
  checkf "bx" 1. sol.(bx);
  checkf "by" 1. sol.(by)

(* The search effort and the answer on six rectangles, pinned to the
   bit: any change to the node LPs' arithmetic or pivot order moves the
   tree, the pivot count or the rounding residue in the point
   (y0 = -2^-50, y4 = 3 - ulp), which a node-count slack would not
   catch.  Entries compare with [Float.equal], which leaves free only
   the sign of a zero: the LP solves skip terms that are signed zeros. *)
let test_search_effort_pinned () =
  let dims = [| (4., 3.); (3., 5.); (5., 2.); (2., 4.); (3., 3.); (6., 1.) |] in
  let out = BB.solve (Strip_packing.model ~chip_w:10. ~big_h:20. dims) in
  Alcotest.(check work) "work"
    { BB.nodes = 2969; warm_hits = 2968; pivots = 9628; refactorizations = 0;
      numerical_recoveries = 0 }
    out.BB.work;
  Alcotest.(check bool) "optimal" true (out.BB.status = BB.Optimal);
  let x, obj = best_exn out in
  let expected =
    [| 0x1p+0; 0x1.cp+2; 0x1.4p+2; 0x1.4p+2; 0x1p+1; 0x0p+0;
       (-.0x1p-50); 0x1p+1; 0x0p+0; 0x1p+1; 0x1.7fffffffffffep+1; 0x1.8p+2;
       0x1.cp+2; 0x0p+0; 0x0p+0; 0x0p+0; 0x0p+0; 0x0p+0;
       0x0p+0; 0x0p+0; 0x1p+0; 0x0p+0; 0x1p+0; 0x1p+0;
       0x1p+0; 0x1p+0; 0x0p+0; 0x1p+0; 0x0p+0; 0x1p+0;
       0x0p+0; 0x0p+0; 0x1p+0; 0x1p+0; 0x0p+0; 0x0p+0;
       0x1p+0; 0x1p+0; 0x0p+0; 0x0p+0; 0x1p+0; 0x0p+0;
       0x1p+0 |]
  in
  let hex_floats =
    Alcotest.testable
      (fun ppf a -> Array.iter (Format.fprintf ppf "%h;@ ") a)
      (fun a b ->
        Array.length a = Array.length b && Array.for_all2 Float.equal a b)
  in
  Alcotest.check hex_floats "best point" expected x;
  Alcotest.check hex_floats "objective" [| 0x1.cp+2 |] [| obj |]

(* ------------------- brute-force cross-check ------------------------ *)

(* Random small 0-1 MILPs: n binaries, one continuous variable in [0, 10],
   a few <= rows with small integer coefficients.  Brute-force over all
   2^n assignments; for each, the continuous part is a 1-D LP solved by
   hand (take the largest feasible value if its objective coefficient is
   positive, else the smallest). *)
let random_milp_arb =
  QCheck.make
    ~print:(fun (n, cc, rows) ->
      Printf.sprintf "n=%d cc=%g rows=%d" n cc (List.length rows))
    QCheck.Gen.(
      triple (int_range 2 6)
        (map (fun v -> float_of_int (v - 2)) (int_bound 4))
        (list_size (int_range 1 4)
           (pair
              (list_size (int_range 2 6)
                 (map (fun v -> float_of_int (v - 2)) (int_bound 5)))
              (map (fun v -> float_of_int (v + 1)) (int_bound 12)))))

let brute_force_milp n cc rows obj_coeffs =
  (* maximize sum obj_coeffs_i b_i + cc * t  st rows; t in [0, 10]. *)
  let best = ref neg_infinity in
  for mask = 0 to (1 lsl n) - 1 do
    let b i = if mask land (1 lsl i) <> 0 then 1. else 0. in
    (* Each row: sum a_i b_i + a_t t <= r, where a_t is the last coeff. *)
    let t_lo = ref 0. and t_hi = ref 10. and feasible = ref true in
    List.iter
      (fun (coeffs, r) ->
        let coeffs = Array.of_list coeffs in
        let fixed = ref 0. in
        for i = 0 to n - 1 do
          if i < Array.length coeffs then fixed := !fixed +. (coeffs.(i) *. b i)
        done;
        (* Indices >= n all multiply t in the model; mirror that here. *)
        let a_t = ref 0. in
        for i = n to Array.length coeffs - 1 do
          a_t := !a_t +. coeffs.(i)
        done;
        let a_t = !a_t in
        let slack = r -. !fixed in
        if Float.abs a_t < 1e-9 then begin
          if slack < -1e-9 then feasible := false
        end
        else if a_t > 0. then t_hi := Float.min !t_hi (slack /. a_t)
        else t_lo := Float.max !t_lo (slack /. a_t))
      rows;
    if !feasible && !t_lo <= !t_hi +. 1e-9 then begin
      let t = if cc >= 0. then !t_hi else !t_lo in
      let v =
        cc *. t
        +. List.fold_left ( +. ) 0.
             (List.init n (fun i -> obj_coeffs.(i) *. b i))
      in
      if v > !best then best := v
    end
  done;
  !best

let test_bb_matches_brute_force =
  QCheck.Test.make ~name:"branch-and-bound = exhaustive enumeration"
    ~count:200 random_milp_arb (fun (n, cc, rows) ->
      let obj_coeffs = Array.init n (fun i -> float_of_int ((i mod 3) + 1)) in
      let m = Model.create () in
      let bs = List.init n (fun i -> Model.add_binary m (Printf.sprintf "b%d" i)) in
      let t = Model.add_continuous m ~ub:10. "t" in
      List.iter
        (fun (coeffs, r) ->
          let terms =
            List.mapi
              (fun i c ->
                if i < n then Expr.(c * var (List.nth bs i))
                else Expr.(c * var t))
              coeffs
          in
          Model.add_constr m (Expr.sum terms) Model.Le (Expr.const r))
        rows;
      Model.set_objective m `Maximize
        Expr.(
          sum (List.mapi (fun i b -> obj_coeffs.(i) * var b) bs)
          + (cc * var t));
      let outcome = BB.solve m in
      let expected = brute_force_milp n cc rows obj_coeffs in
      match outcome.BB.best with
      | Some (_, obj) -> Float.abs (obj -. expected) < 1e-5
      | None -> expected = neg_infinity)

let test_bb_solutions_integral =
  QCheck.Test.make ~name:"incumbents are integral and feasible" ~count:150
    random_milp_arb (fun (n, cc, rows) ->
      let m = Model.create () in
      let bs = List.init n (fun i -> Model.add_binary m (Printf.sprintf "b%d" i)) in
      let t = Model.add_continuous m ~ub:10. "t" in
      List.iter
        (fun (coeffs, r) ->
          let terms =
            List.mapi
              (fun i c ->
                if i < n then Expr.(c * var (List.nth bs i))
                else Expr.(c * var t))
              coeffs
          in
          Model.add_constr m (Expr.sum terms) Model.Le (Expr.const r))
        rows;
      Model.set_objective m `Maximize Expr.(sum (List.map var bs) + (cc * var t));
      match (BB.solve m).BB.best with
      | Some (x, _) ->
        Model.integral m x && Lp.constraint_violation (Model.problem m) x < 1e-5
      | None -> true)

let () =
  Alcotest.run "fp_milp"
    [
      ( "expr",
        [
          Alcotest.test_case "algebra" `Quick test_expr_algebra;
          Alcotest.test_case "zero coeffs dropped" `Quick
            test_expr_zero_coeffs_dropped;
          Alcotest.test_case "sum and neg" `Quick test_expr_sum_neg;
        ] );
      ( "model",
        [
          Alcotest.test_case "integrality bookkeeping" `Quick
            test_model_integrality_bookkeeping;
          Alcotest.test_case "pair validation" `Quick test_model_pair_validation;
          Alcotest.test_case "integral / round" `Quick
            test_model_integral_and_round;
          Alcotest.test_case "objective constant" `Quick
            test_model_objective_constant;
        ] );
      ( "branch_bound",
        [
          Alcotest.test_case "knapsack" `Quick test_knapsack;
          Alcotest.test_case "integrality gap" `Quick test_integrality_gap;
          Alcotest.test_case "general integer" `Quick test_general_integer;
          Alcotest.test_case "infeasible" `Quick test_infeasible_milp;
          Alcotest.test_case "unbounded" `Quick test_unbounded_milp;
          Alcotest.test_case "pure LP" `Quick test_pure_lp_through_bb;
          Alcotest.test_case "warm start accepted" `Quick
            test_warm_start_accepted;
          Alcotest.test_case "warm start rejected" `Quick
            test_warm_start_rejected;
          Alcotest.test_case "node limit -> feasible" `Quick
            test_node_limit_returns_feasible;
          Alcotest.test_case "constr or bound" `Quick
            test_constr_or_bound_folds_singletons;
          Alcotest.test_case "budget accounting exact" `Quick
            test_budget_accounting_exact;
          Alcotest.test_case "pure LP single solve" `Quick
            test_pure_lp_single_solve;
          Alcotest.test_case "zero node limit" `Quick test_zero_node_limit;
          Alcotest.test_case "warm hits" `Quick test_warm_hits;
          Alcotest.test_case "pair branching" `Quick test_pair_branching_used;
          Alcotest.test_case "search effort pinned" `Quick
            test_search_effort_pinned;
          QCheck_alcotest.to_alcotest test_bb_matches_brute_force;
          QCheck_alcotest.to_alcotest test_bb_solutions_integral;
        ] );
    ]
