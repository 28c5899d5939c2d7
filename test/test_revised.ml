(* Tests for Fp_lp.Revised: deterministic known LPs, a qcheck oracle
   pitting the revised simplex against the dense tableau solver in
   [Dense_simplex] on random bounded LPs, warm-vs-cold equivalence on
   branched (bound-tightened) subproblems, and the sparse Basis kernels
   against the dense ones in [Dense_basis]. *)

module Lp = Fp_lp.Lp_problem
module Revised = Fp_lp.Revised
module Basis = Fp_lp.Basis

let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let solve_opt p =
  match Revised.solve p with
  | Revised.Optimal { x; obj; _ }, _ -> (x, obj)
  | Revised.Infeasible, _ -> Alcotest.fail "unexpected infeasible"
  | Revised.Unbounded, _ -> Alcotest.fail "unexpected unbounded"
  | Revised.Iteration_limit, _ -> Alcotest.fail "unexpected iteration limit"

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

let test_equality_system () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:neg_infinity ~obj:1. "x" in
  let y = Lp.add_var p ~obj:1. "y" in
  Lp.add_constr p [ (1., x); (1., y) ] Lp.Eq 3.;
  Lp.add_constr p [ (1., x); (-1., y) ] Lp.Eq (-1.);
  let sol, _ = solve_opt p in
  checkf "x" 1. sol.(x);
  checkf "y" 2. sol.(y)

let test_free_variable () =
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:neg_infinity ~obj:1. "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge (-7.);
  let sol, obj = solve_opt p in
  checkf "x" (-7.) sol.(x);
  checkf "obj" (-7.) obj

let test_no_rows () =
  (* Pure-bound LP: zero constraint rows, m = 0 basis. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~lb:neg_infinity ~ub:3. ~obj:1. "x" in
  let y = Lp.add_var p ~lb:(-2.) ~ub:5. ~obj:(-1.) "y" in
  Lp.set_sense p Lp.Maximize;
  let sol, obj = solve_opt p in
  checkf "x" 3. sol.(x);
  checkf "y" (-2.) sol.(y);
  checkf "obj" 5. obj

let test_bound_flips () =
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
  let _x = Lp.add_var p ~lb:2. ~ub:2. ~obj:1. "x" in
  let _y = Lp.add_var p ~ub:4. ~obj:1. "y" in
  Lp.add_constr p [ (1., _x); (1., _y) ] Lp.Ge 5.;
  let _, obj = solve_opt p in
  checkf "obj" 5. obj

let test_infeasible () =
  let p = Lp.create () in
  let x = Lp.add_var p "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge 5.;
  Lp.add_constr p [ (1., x) ] Lp.Le 3.;
  Alcotest.(check bool) "infeasible" true
    (match Revised.solve p with Revised.Infeasible, _ -> true | _ -> false)

let test_unbounded () =
  let p = Lp.create () in
  let x = Lp.add_var p ~obj:1. "x" in
  let y = Lp.add_var p ~obj:(-1.) "y" in
  Lp.add_constr p [ (1., x); (-1., y) ] Lp.Le 0.;
  Alcotest.(check bool) "unbounded" true
    (match Revised.solve p with Revised.Unbounded, _ -> true | _ -> false)

let test_warm_after_bound_change () =
  (* Re-solve after a branch-style bound tightening: the warm path must
     engage (stats.warm) and agree with a cold solve. *)
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:10. ~obj:(-3.) "x" in
  let y = Lp.add_var p ~ub:10. ~obj:(-5.) "y" in
  Lp.add_constr p [ (1., x); (2., y) ] Lp.Le 14.;
  Lp.add_constr p [ (3., x); (-1., y) ] Lp.Ge 0.;
  Lp.add_constr p [ (1., x); (-1., y) ] Lp.Le 2.;
  let basis =
    match Revised.solve p with
    | Revised.Optimal { basis; _ }, _ -> basis
    | _ -> Alcotest.fail "root solve failed"
  in
  Lp.set_bounds p x ~lb:0. ~ub:3.;
  let warm_res, warm_stats = Revised.solve_from basis p in
  let cold_res, _ = Revised.solve p in
  (match (warm_res, cold_res) with
  | Revised.Optimal { obj = a; _ }, Revised.Optimal { obj = b; _ } ->
    checkf "warm obj = cold obj" b a
  | _ -> Alcotest.fail "expected optimal on both paths");
  Alcotest.(check bool) "warm path used" true warm_stats.Revised.warm

let test_warm_detects_infeasible () =
  let p = Lp.create () in
  let x = Lp.add_var p ~ub:10. ~obj:1. "x" in
  Lp.add_constr p [ (1., x) ] Lp.Ge 4.;
  let basis =
    match Revised.solve p with
    | Revised.Optimal { basis; _ }, _ -> basis
    | _ -> Alcotest.fail "root solve failed"
  in
  Lp.set_bounds p x ~lb:0. ~ub:2.;
  (match Revised.solve_from basis p with
  | Revised.Infeasible, _ -> ()
  | _ -> Alcotest.fail "expected infeasible after tightening")

(* --------------------- random bounded LPs -------------------------- *)

type rlp = {
  sense_max : bool;
  bounds : (float * float) array;
  obj : float array;
  rows : (float array * Lp.cmp * float) list;
}

let print_rlp r =
  let cmp_str = function Lp.Le -> "<=" | Lp.Ge -> ">=" | Lp.Eq -> "=" in
  Printf.sprintf "%s obj=[%s] bounds=[%s] rows=[%s]"
    (if r.sense_max then "max" else "min")
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%g") r.obj)))
    (String.concat ","
       (Array.to_list
          (Array.map (fun (l, u) -> Printf.sprintf "(%g,%g)" l u) r.bounds)))
    (String.concat "; "
       (List.map
          (fun (cs, cmp, rhs) ->
            Printf.sprintf "[%s] %s %g"
              (String.concat ","
                 (Array.to_list (Array.map (Printf.sprintf "%g") cs)))
              (cmp_str cmp) rhs)
          r.rows))

let rlp_gen =
  QCheck.Gen.(
    let* nv = int_range 2 5 in
    let* sense_max = bool in
    let* bounds =
      array_repeat nv
        (let* lb_kind = int_bound 4 in
         let* span = int_range 1 12 in
         let lb =
           match lb_kind with
           | 0 -> -3.
           | 1 -> -1.
           | 4 -> neg_infinity
           | _ -> 0.
         in
         let* open_ub = int_bound 4 in
         let ub =
           if open_ub = 0 && lb > neg_infinity then infinity
           else (if lb = neg_infinity then -3. else lb) +. float_of_int span
         in
         return (lb, ub))
    in
    let* obj =
      array_repeat nv (map (fun n -> float_of_int (n - 5)) (int_bound 10))
    in
    let* rows =
      list_size (int_range 1 6)
        (let* coeffs =
           array_repeat nv (map (fun n -> float_of_int (n - 3)) (int_bound 6))
         in
         let* cmp =
           frequency [ (5, return Lp.Le); (3, return Lp.Ge); (1, return Lp.Eq) ]
         in
         let* rhs = map (fun n -> float_of_int (n - 10)) (int_bound 20) in
         return (coeffs, cmp, rhs))
    in
    return { sense_max; bounds; obj; rows })

let rlp_arb = QCheck.make ~print:print_rlp rlp_gen

let build r =
  let p = Lp.create () in
  let nv = Array.length r.bounds in
  let vars =
    Array.init nv (fun i ->
        let lb, ub = r.bounds.(i) in
        Lp.add_var p ~lb ~ub ~obj:r.obj.(i) (Printf.sprintf "v%d" i))
  in
  if r.sense_max then Lp.set_sense p Lp.Maximize;
  List.iter
    (fun (coeffs, cmp, rhs) ->
      let terms = ref [] in
      Array.iteri
        (fun i c -> if c <> 0. then terms := (c, vars.(i)) :: !terms)
        coeffs;
      if !terms <> [] then Lp.add_constr p !terms cmp rhs)
    r.rows;
  p

let agree p r_dense r_rev =
  match (r_dense, r_rev) with
  | Dense_simplex.Optimal { obj = a; _ }, Revised.Optimal { obj = b; x; _ } ->
    Float.abs (a -. b) < 1e-5 && Lp.constraint_violation p x < 1e-6
  | Dense_simplex.Infeasible, Revised.Infeasible -> true
  | Dense_simplex.Unbounded, Revised.Unbounded -> true
  | Dense_simplex.Iteration_limit, _ | _, Revised.Iteration_limit -> true
  | _ -> false

let test_revised_matches_dense =
  QCheck.Test.make ~name:"revised = dense simplex on random bounded LPs"
    ~count:220 rlp_arb (fun r ->
      let p = build r in
      agree p (Dense_simplex.solve p) (fst (Revised.solve p)))

let agree_rev p r1 r2 =
  match (r1, r2) with
  | Revised.Optimal { obj = a; x; _ }, Revised.Optimal { obj = b; _ } ->
    Float.abs (a -. b) < 1e-5 && Lp.constraint_violation p x < 1e-6
  | Revised.Infeasible, Revised.Infeasible -> true
  | Revised.Unbounded, Revised.Unbounded -> true
  | Revised.Iteration_limit, _ | _, Revised.Iteration_limit -> true
  | _ -> false

let test_warm_equals_cold =
  QCheck.Test.make
    ~name:"solve_from parent basis = cold solve on branched subproblems"
    ~count:120 rlp_arb (fun r ->
      let p = build r in
      match Revised.solve p with
      | Revised.Optimal { x; basis; _ }, _ ->
        let ok = ref true in
        Array.iteri
          (fun v xv ->
            if !ok then begin
              let lb = Lp.var_lb p v and ub = Lp.var_ub p v in
              (* Down and up branches around the LP value, as B&B does. *)
              List.iter
                (fun (nlb, nub) ->
                  if !ok && nub >= nlb then begin
                    Lp.set_bounds p v ~lb:nlb ~ub:nub;
                    let warm, stats = Revised.solve_from basis p in
                    let cold, _ = Revised.solve p in
                    ignore stats;
                    if not (agree_rev p warm cold) then ok := false;
                    Lp.set_bounds p v ~lb ~ub
                  end)
                [
                  (lb, Float.min ub (Float.floor xv));
                  (Float.max lb (Float.ceil xv), ub);
                ]
            end)
          x;
        !ok
      | _ -> true)

(* A search's workspace and shared starts must give exactly what fresh
   standalone solves give: same answers, same bits, same pivot counts. *)
let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       a b

let same_answer (r1, (s1 : Revised.stats)) (r2, (s2 : Revised.stats)) =
  s1 = s2
  &&
  match (r1, r2) with
  | Revised.Optimal { x = a; obj = oa; _ }, Revised.Optimal { x = b; obj = ob; _ }
    ->
    same_bits a b && same_bits [| oa |] [| ob |]
  | Revised.Infeasible, Revised.Infeasible
  | Revised.Unbounded, Revised.Unbounded
  | Revised.Iteration_limit, Revised.Iteration_limit ->
    true
  | _ -> false

let test_workspace_equals_standalone =
  QCheck.Test.make
    ~name:"workspace resolves from shared starts = standalone solves, bit for bit"
    ~count:120 rlp_arb (fun r ->
      let p = build r in
      let ws = Revised.workspace p in
      let cold = Revised.solve p in
      same_answer cold (Revised.resolve ws None)
      &&
      match cold with
      | Revised.Optimal { x; basis; _ }, _ ->
        (* Every branch of every variable starts from one shared start,
           as the sibling nodes of a branch-and-bound search do. *)
        let start = Revised.start basis in
        let ok = ref true in
        Array.iteri
          (fun v xv ->
            let lb = Lp.var_lb p v and ub = Lp.var_ub p v in
            List.iter
              (fun (nlb, nub) ->
                if !ok && nub >= nlb then begin
                  Lp.set_bounds p v ~lb:nlb ~ub:nub;
                  let fresh = Revised.solve_from basis p in
                  if not (same_answer fresh (Revised.resolve ws (Some start)))
                  then ok := false;
                  Lp.set_bounds p v ~lb ~ub
                end)
              [
                (lb, Float.min ub (Float.floor xv));
                (Float.max lb (Float.ceil xv), ub);
              ])
          x;
        !ok
      | _ -> true)

(* ------------------------ Basis kernels ----------------------------- *)

(* A matrix shaped like a branch-and-bound node LP's [A | I]: [ns]
   structural columns with 2-8 nonzeros each (small integers, so pivot
   magnitudes tie, or random reals), then one unit logical column per
   row.  The starting basis is the logical one with up to m/3 positions
   taken by random structural columns, which is singular often enough
   to test that both kernels reject the same bases. *)
let node_like_basis rng m =
  let ns = m + 1 + Random.State.int rng m in
  let cols =
    Array.init (ns + m) (fun j ->
        if j >= ns then [| (j - ns, 1.) |]
        else begin
          let k = Int.min m (2 + Random.State.int rng 7) in
          let rows = Array.init m Fun.id in
          for i = m - 1 downto 1 do
            let r = Random.State.int rng (i + 1) in
            let t = rows.(i) in
            rows.(i) <- rows.(r);
            rows.(r) <- t
          done;
          let rows = Array.sub rows 0 k in
          Array.sort Int.compare rows;
          let integral = Random.State.bool rng in
          Array.map
            (fun i ->
              let v =
                if integral then float_of_int (Random.State.int rng 7 - 3)
                else Random.State.float rng 4. -. 2.
              in
              (i, if v = 0. then 1. else v))
            rows
        end)
  in
  let col_start = Array.make (Array.length cols + 1) 0 in
  Array.iteri (fun j c -> col_start.(j + 1) <- col_start.(j) + Array.length c) cols;
  let flat f = Array.concat (Array.to_list (Array.map (Array.map f) cols)) in
  let mat = { Basis.m; col_start; row = flat fst; value = flat snd } in
  let basis = Array.init m (fun i -> ns + i) in
  for _ = 1 to Random.State.int rng (m / 3 + 1) do
    (* Mostly as a pivot would: the column takes the position of one of
       its rows; sometimes anywhere. *)
    let c = Random.State.int rng ns in
    let p =
      if Random.State.int rng 8 = 0 then Random.State.int rng m
      else fst cols.(c).(Random.State.int rng (Array.length cols.(c)))
    in
    basis.(p) <- c
  done;
  (mat, basis)

let random_vector rng m =
  Array.init m (fun _ ->
      match Random.State.int rng 4 with
      | 0 -> 0.
      | 1 -> -0.
      | 2 -> float_of_int (Random.State.int rng 9 - 4)
      | _ -> Random.State.float rng 2. -. 1.)

let test_sparse_basis_matches_dense =
  QCheck.Test.make ~name:"sparse Basis = dense kernels through 70+ updates"
    ~count:100 ~long_factor:100
    QCheck.(pair (int_range 1 80) int)
    (fun (m, seed) ->
      let rng = Random.State.make [| seed |] in
      let mat, basis = node_like_basis rng m in
      let sparse =
        (* Half the cases start from factors computed on another basis
           of the same matrix and loaded, as sibling nodes do. *)
        if Random.State.bool rng then Basis.create mat basis
        else
          let ncols = Array.length mat.col_start - 1 in
          match Basis.create mat (Array.init m (fun i -> ncols - m + i)) with
          | Error `Singular -> Error `Singular
          | Ok t ->
            Result.map
              (fun f ->
                Basis.load t f;
                t)
              (Basis.factorize t basis)
      in
      match (sparse, Dense_basis.create mat basis) with
      | Error `Singular, Error `Singular -> true
      | Ok _, Error `Singular | Error `Singular, Ok _ -> false
      | Ok s, Ok d ->
        let ncols = Array.length mat.col_start - 1 in
        let ok = ref true and updates = ref 0 and tries = ref 0 in
        (* Every entry equal as a float: only the sign of a zero may
           differ. *)
        let both f g v =
          let a = Array.copy v and b = Array.copy v in
          f a;
          g b;
          if not (Array.for_all2 Float.equal a b) then ok := false;
          a
        in
        while !ok && !updates < 72 && !tries < 400 do
          incr tries;
          let v = random_vector rng m in
          ignore (both (Basis.ftran s) (Dense_basis.ftran d) v);
          ignore (both (Basis.btran s) (Dense_basis.btran d) v);
          let col = Random.State.int rng ncols in
          let a = Array.make m 0. in
          for e = mat.col_start.(col) to mat.col_start.(col + 1) - 1 do
            a.(mat.row.(e)) <- mat.value.(e)
          done;
          let dcol = both (Basis.ftran s) (Dense_basis.ftran d) a in
          (* Leave at the largest pivot, the first one on ties. *)
          let row = ref 0 in
          Array.iteri
            (fun i x -> if Float.abs x > Float.abs dcol.(!row) then row := i)
            dcol;
          if Float.abs dcol.(!row) > 1e-6 then begin
            let rs = Basis.update s ~row:!row ~col ~d:dcol
            and rd = Dense_basis.update d ~row:!row ~col ~d:dcol in
            if rs <> rd then ok := false
            else
              match rs with
              | Ok _ -> incr updates
              | Error _ -> tries := max_int - 1
          end
        done;
        !ok
        && (!updates < 72 || Basis.refactorizations s = 1)
        && Basis.refactorizations s = Dense_basis.refactorizations d
        && Basis.basis s = Dense_basis.basis d)

let () =
  Alcotest.run "fp_lp_revised"
    [
      ( "known",
        [
          Alcotest.test_case "textbook max" `Quick test_textbook_max;
          Alcotest.test_case "equalities" `Quick test_equality_system;
          Alcotest.test_case "free variable" `Quick test_free_variable;
          Alcotest.test_case "no rows" `Quick test_no_rows;
          Alcotest.test_case "bound flips" `Quick test_bound_flips;
          Alcotest.test_case "fixed variable" `Quick test_fixed_variable;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "warm after bound change" `Quick
            test_warm_after_bound_change;
          Alcotest.test_case "warm detects infeasible" `Quick
            test_warm_detects_infeasible;
        ] );
      ( "oracle",
        [
          QCheck_alcotest.to_alcotest test_revised_matches_dense;
          QCheck_alcotest.to_alcotest test_warm_equals_cold;
          QCheck_alcotest.to_alcotest test_workspace_equals_standalone;
        ] );
      ( "basis",
        [ QCheck_alcotest.to_alcotest test_sparse_basis_matches_dense ] );
    ]
