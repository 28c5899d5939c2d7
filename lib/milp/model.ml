module Lp_problem = Fp_lp.Lp_problem

type var = Lp_problem.var
type cmp = Lp_problem.cmp = Le | Ge | Eq

type t = {
  prob : Lp_problem.t;
  mutable ints : var list;     (* reverse insertion order *)
  int_set : (var, unit) Hashtbl.t;
  mutable pair_list : (var * var) list;
  mutable obj_const : float;
}

let create ?name () =
  {
    prob = Lp_problem.create ?name ();
    ints = [];
    int_set = Hashtbl.create 64;
    pair_list = [];
    obj_const = 0.;
  }

let add_continuous t ?(lb = 0.) ?(ub = infinity) name =
  Lp_problem.add_var t.prob ~lb ~ub name

let mark_integer t v =
  t.ints <- v :: t.ints;
  Hashtbl.replace t.int_set v ()

let add_binary t name =
  let v = Lp_problem.add_var t.prob ~lb:0. ~ub:1. name in
  mark_integer t v;
  v

let add_integer t ~lb ~ub name =
  let v = Lp_problem.add_var t.prob ~lb ~ub name in
  mark_integer t v;
  v

let is_integer_var t v = Hashtbl.mem t.int_set v

let is_binary t v =
  is_integer_var t v
  && Lp_problem.var_lb t.prob v = 0.
  && Lp_problem.var_ub t.prob v = 1.

let add_constr t ?name lhs cmp rhs =
  let diff = Expr.(lhs - rhs) in
  Lp_problem.add_constr t.prob ?name (Expr.terms diff) cmp
    (-.Expr.constant diff)

let add_constr_or_bound t lhs cmp rhs =
  let diff = Expr.(lhs - rhs) in
  let as_row () =
    Lp_problem.add_constr t.prob (Expr.terms diff) cmp
      (-.Expr.constant diff)
  in
  match Expr.terms diff with
  | [ (a, v) ] when a <> 0. ->
    let b = -.Expr.constant diff /. a in
    let applied =
      match (cmp, a > 0.) with
      | Le, true | Ge, false ->
        Lp_problem.tighten_bounds t.prob v ~lb:neg_infinity ~ub:b
      | Ge, true | Le, false ->
        Lp_problem.tighten_bounds t.prob v ~lb:b ~ub:infinity
      | Eq, _ -> Lp_problem.tighten_bounds t.prob v ~lb:b ~ub:b
    in
    (* An empty intersection stays a row so infeasibility is detected by
       the solver instead of raised here. *)
    if not applied then as_row ()
  | _ -> as_row ()

let declare_pair t a b =
  if not (is_binary t a && is_binary t b) then
    invalid_arg "Model.declare_pair: both variables must be binary";
  t.pair_list <- (a, b) :: t.pair_list

let set_objective t sense expr =
  (match sense with
  | `Minimize -> Lp_problem.set_sense t.prob Lp_problem.Minimize
  | `Maximize -> Lp_problem.set_sense t.prob Lp_problem.Maximize);
  t.obj_const <- Expr.constant expr;
  (* Reset all coefficients, then install the new ones. *)
  for v = 0 to Lp_problem.num_vars t.prob - 1 do
    Lp_problem.set_obj_coeff t.prob v 0.
  done;
  List.iter (fun (c, v) -> Lp_problem.set_obj_coeff t.prob v c)
    (Expr.terms expr)

let problem t = t.prob
let integer_vars t = List.rev t.ints

let var_bounds t v =
  (Lp_problem.var_lb t.prob v, Lp_problem.var_ub t.prob v)

let sense t =
  match Lp_problem.sense t.prob with
  | Lp_problem.Minimize -> `Minimize
  | Lp_problem.Maximize -> `Maximize

let iter_vars t f =
  for v = 0 to Lp_problem.num_vars t.prob - 1 do
    f v
  done

let fold_vars t ~init ~f =
  let acc = ref init in
  iter_vars t (fun v -> acc := f !acc v);
  !acc

let iter_constrs t f =
  Array.iter f (Lp_problem.constraints t.prob)

let fold_constrs t ~init ~f =
  Array.fold_left f init (Lp_problem.constraints t.prob)

let objective_terms t =
  List.rev
    (fold_vars t ~init:[] ~f:(fun acc v ->
         let c = Lp_problem.obj_coeff t.prob v in
         if c = 0. then acc else (c, v) :: acc))
let pairs t = List.rev t.pair_list
let objective_constant t = t.obj_const
let num_vars t = Lp_problem.num_vars t.prob
let num_integer_vars t = List.length t.ints
let num_constrs t = Lp_problem.num_constrs t.prob
let var_name t v = Lp_problem.var_name t.prob v

let integral ?(tol = 1e-6) t x =
  List.for_all
    (fun v -> Float.abs (x.(v) -. Float.round x.(v)) <= tol)
    t.ints

let round_integers t x =
  let y = Array.copy x in
  List.iter (fun v -> y.(v) <- Float.round y.(v)) t.ints;
  y
