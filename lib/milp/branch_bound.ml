module Lp_problem = Fp_lp.Lp_problem
module Revised = Fp_lp.Revised
module Fault = Fp_util.Fault

let src = Logs.Src.create "fp.milp" ~doc:"branch-and-bound"

module Log = (val Logs.src_log src : Logs.LOG)

(* Fault site: forced budget exhaustion (the anytime path — the best
   incumbent, usually the caller's warm start, is returned
   immediately). *)
let site_budget = Fault.register "branch_bound.budget"

type params = {
  node_limit : int;
  time_limit : float;
  min_improvement : float;
  propagate : bool;
}

let default_params =
  {
    node_limit = 200_000;
    time_limit = 120.;
    min_improvement = 1e-7;
    propagate = false;
  }

(* Integrality tolerance: a value this close to an integer counts as
   integral for branching, warm-start acceptance and pseudo points. *)
let int_tol = 1e-6

type status = Optimal | Feasible | Infeasible | Unbounded | No_solution

type work = {
  nodes : int;
  warm_hits : int;
  pivots : int;
  refactorizations : int;
  numerical_recoveries : int;
}

let no_work =
  { nodes = 0; warm_hits = 0; pivots = 0; refactorizations = 0;
    numerical_recoveries = 0 }

type outcome = {
  status : status;
  best : (float array * float) option;
  work : work;
  root_bound : float;
}

type search = {
  model : Model.t;
  prob : Lp_problem.t;
  prm : params;
  sense_mult : float;           (* +1 minimize, -1 maximize *)
  partner : (int, int) Hashtbl.t; (* pair membership, symmetric *)
  is_integer : int -> bool;     (* integer-variable membership, for
                                   bound snapping during propagation *)
  ints : int array;             (* integer variables, declaration order *)
  lp : Revised.workspace;       (* the node-LP state *)
  deadline : float;
  mutable work : work;          (* everything the search did *)
  mutable best_m : float;       (* incumbent objective, minimized form *)
  mutable best_x : float array option;
  mutable out_of_budget : bool;
  mutable root_unbounded : bool;
  mutable bound_incomplete : bool;
      (* true when a subtree had to be abandoned without a trustworthy
         bound; demotes Optimal to Feasible *)
}

let fractionality x v =
  let f = x.(v) -. Float.round x.(v) in
  Float.abs f

(* Branch on the first fractional integer variable in declaration order,
   or None when the point is integral — the modeler encodes "decide the
   big modules first" by declaring their variables first. *)
let pick_branch_var s x =
  Array.find_opt (fun v -> fractionality x v > int_tol) s.ints

let update_incumbent s x m =
  if m < s.best_m -. s.prm.min_improvement then begin
    s.best_m <- m;
    s.best_x <- Some (Array.copy x)
  end

(* Explore under temporarily tightened bounds; always restores. *)
let with_bounds s settings k =
  let saved =
    List.map
      (fun (v, _, _) -> (v, Lp_problem.var_lb s.prob v, Lp_problem.var_ub s.prob v))
      settings
  in
  List.iter (fun (v, lb, ub) -> Lp_problem.set_bounds s.prob v ~lb ~ub) settings;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (v, lb, ub) -> Lp_problem.set_bounds s.prob v ~lb ~ub)
        saved)
    k

let budget_exhausted s =
  s.work.nodes >= s.prm.node_limit
  || Unix.gettimeofday () > s.deadline
  || Fault.fire site_budget

(* One node: its LP relaxation, warm-started from the parent's optimal
   basis via the dual simplex when there is one (bound-only changes keep
   it dual feasible), cold at the root.  It runs in the search's
   workspace [s.lp], which standardized the problem once; siblings share
   the parent's [Revised.start], so its basis is factorized once for all
   of them.  [Revised.resolve] falls back to a cold solve on singular or
   stale bases; stats.warm records which path produced the answer.  A
   recovery is a requested warm start that fell back to a cold solve, or
   an LP that hit its own iteration limit (the parent-bound retreat). *)
let solve_node_lp s parent_basis =
  let result, (st : Revised.stats) = Revised.resolve s.lp parent_basis in
  let recovered =
    (Option.is_some parent_basis && not st.warm)
    || (match result with Revised.Iteration_limit -> true | _ -> false)
  in
  let w = s.work in
  s.work <-
    {
      nodes = w.nodes + 1;
      warm_hits = (w.warm_hits + if st.warm then 1 else 0);
      pivots = w.pivots + st.primal_pivots + st.dual_pivots;
      refactorizations = w.refactorizations + st.refactorizations;
      numerical_recoveries =
        (w.numerical_recoveries + if recovered then 1 else 0);
    };
  result

(* A stand-in LP point when the node's LP failed: every unfixed integer
   variable sits strictly between its bounds so the branching rule sees
   it as fractional; fixed variables take their value. *)
let pseudo_point s =
  Array.init (Lp_problem.num_vars s.prob) (fun v ->
      let lb = Lp_problem.var_lb s.prob v and ub = Lp_problem.var_ub s.prob v in
      if ub -. lb <= int_tol then lb
      else if lb > neg_infinity then lb +. 0.5
      else if ub < infinity then ub -. 0.5
      else 0.5)

(* Node-entry bound propagation ([params.propagate], the Tight
   formulation): run the LP's interval sweep with integer snapping
   under the branching fixings in force.  Two prunes need no LP at all —
   an emptied interval (the fixed relations are geometrically
   impossible) and an objective box bound already at the cutoff.  Both
   are sound: interval propagation only ever excludes points no feasible
   completion can take.  The surviving tightenings stay applied while
   the subtree runs (the node LP and every descendant see them) and are
   restored on exit. *)
let propagate_node s =
  if not s.prm.propagate then `Open []
  else begin
    let restore undo =
      List.iter
        (fun (v, lb, ub) -> Lp_problem.set_bounds s.prob v ~lb ~ub)
        undo
    in
    match
      Lp_problem.propagate_bounds ~integral:s.is_integer s.prob
    with
    | `Infeasible undo ->
      restore undo;
      `Pruned
    | `Ok undo ->
      let lo, hi = Lp_problem.objective_interval s.prob in
      let m_lo =
        (if s.sense_mult > 0. then lo else -.hi)
        +. (s.sense_mult *. Model.objective_constant s.model)
      in
      if m_lo >= s.best_m -. s.prm.min_improvement then begin
        restore undo;
        `Pruned
      end
      else `Open undo
  end

let rec explore s ~depth ~parent_basis ~parent_bound =
  if budget_exhausted s then s.out_of_budget <- true
  else begin
    match propagate_node s with
    | `Pruned -> () (* pruned without becoming a node *)
    | `Open undo ->
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun (v, lb, ub) -> Lp_problem.set_bounds s.prob v ~lb ~ub)
            undo)
        (fun () ->
          expand s ~depth ~parent_basis ~parent_bound
            (solve_node_lp s parent_basis))
  end

and expand s ~depth ~parent_basis ~parent_bound result =
  match result with
  | Revised.Infeasible -> ()
  | Revised.Iteration_limit ->
    (* No bound from this node's own LP, but the node is a restriction
       of its parent, so the parent's LP bound still applies: prune on
       it if possible, otherwise branch blind and keep going — only
       when the node is fully fixed must the subtree be abandoned, and
       then optimality can no longer be claimed. *)
    if parent_bound >= s.best_m -. s.prm.min_improvement then ()
    else begin
      Log.warn (fun f ->
          f "LP iteration limit at depth %d; retreating to parent bound"
            depth);
      let x = pseudo_point s in
      match pick_branch_var s x with
      | Some v -> branch s ~depth x v ~basis:parent_basis ~bound:parent_bound
      | None -> s.bound_incomplete <- true
    end
  | Revised.Unbounded ->
    if depth = 0 then s.root_unbounded <- true
    (* Deeper nodes are restrictions of the root; if the root was
       bounded this cannot happen. *)
  | Revised.Optimal { x; obj; basis } ->
    let m = s.sense_mult *. (obj +. Model.objective_constant s.model) in
    if m >= s.best_m -. s.prm.min_improvement then () (* bound prune *)
    else begin
      match pick_branch_var s x with
      | None ->
        (* Integral (within tolerance): snap and accept. *)
        let snapped = Model.round_integers s.model x in
        let m_exact =
          s.sense_mult
          *. (Lp_problem.objective_value s.prob snapped
             +. Model.objective_constant s.model)
        in
        (* Rounding can only move the objective through integer terms;
           re-check feasibility to be safe. *)
        if Lp_problem.constraint_violation s.prob snapped <= 1e-5 then
          update_incumbent s snapped m_exact
        else update_incumbent s x m
      | Some v ->
        branch s ~depth x v ~basis:(Some (Revised.start basis)) ~bound:m
    end

and branch s ~depth x v ~basis ~bound =
  let child settings =
    with_bounds s settings (fun () ->
        explore s ~depth:(depth + 1) ~parent_basis:basis ~parent_bound:bound)
  in
  match Hashtbl.find_opt s.partner v with
  | Some w when fractionality x v > int_tol || fractionality x w > int_tol ->
    (* 4-way branching on the disjunction pair (v, w): each child fixes a
       combination, visiting the combination closest to the LP point
       first. *)
    let combos = [ (0., 0.); (0., 1.); (1., 0.); (1., 1.) ] in
    let dist (a, b) = Float.abs (x.(v) -. a) +. Float.abs (x.(w) -. b) in
    let ordered =
      List.sort (fun c1 c2 -> compare (dist c1) (dist c2)) combos
    in
    List.iter
      (fun (a, b) ->
        if not s.out_of_budget then child [ (v, a, a); (w, b, b) ])
      ordered
  | _ ->
    (* Plain floor/ceil split, nearest side first. *)
    let lo = Float.floor x.(v) and hi = Float.ceil x.(v) in
    let lb = Lp_problem.var_lb s.prob v and ub = Lp_problem.var_ub s.prob v in
    let down () =
      if lo >= lb -. 1e-9 && not s.out_of_budget then child [ (v, lb, lo) ]
    and up () =
      if hi <= ub +. 1e-9 && not s.out_of_budget then child [ (v, hi, ub) ]
    in
    if x.(v) -. lo <= hi -. x.(v) then begin
      down ();
      up ()
    end
    else begin
      up ();
      down ()
    end

let solve ?(params = default_params) ?warm model =
  let prob = Model.problem model in
  let sense_mult =
    match Lp_problem.sense prob with
    | Lp_problem.Minimize -> 1.
    | Lp_problem.Maximize -> -1.
  in
  let partner = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      Hashtbl.replace partner a b;
      Hashtbl.replace partner b a)
    (Model.pairs model);
  let ints = Array.of_list (Model.integer_vars model) in
  let is_integer =
    let a = Array.make (Lp_problem.num_vars prob) false in
    Array.iter (fun v -> a.(v) <- true) ints;
    fun v -> v < Array.length a && a.(v)
  in
  let deadline = Unix.gettimeofday () +. params.time_limit in
  let s =
    {
      model; prob; prm = params; sense_mult; partner; is_integer; ints;
      lp = Revised.workspace prob; deadline;
      work = no_work; best_m = infinity; best_x = None;
      out_of_budget = false; root_unbounded = false; bound_incomplete = false;
    }
  in
  (* Install the warm start if it checks out. *)
  (match warm with
  | Some x
    when Array.length x = Model.num_vars model
         && Model.integral ~tol:int_tol model x
         && Lp_problem.constraint_violation prob x <= 1e-5 ->
    let m =
      sense_mult
      *. (Lp_problem.objective_value prob x +. Model.objective_constant model)
    in
    s.best_m <- m;
    s.best_x <- Some (Array.copy x)
  | Some _ ->
    Log.warn (fun f -> f "warm start rejected (infeasible or non-integral)")
  | None -> ());
  let finish ~root_bound =
    let best = Option.map (fun x -> (x, s.sense_mult *. s.best_m)) s.best_x in
    let status =
      if s.root_unbounded then Unbounded
      else
        match (best, s.out_of_budget || s.bound_incomplete) with
        | Some _, false -> Optimal
        | Some _, true -> Feasible
        | None, false -> Infeasible
        | None, true -> No_solution
    in
    { status; best; work = s.work; root_bound }
  in
  if budget_exhausted s then begin
    (* Exhausted before the root LP: report without solving anything, so
       the node count stays exact (0). *)
    s.out_of_budget <- true;
    finish ~root_bound:nan
  end
  else begin
    (* Root LP: solved exactly once, reused both for the reported root
       bound and as the root node of the search. *)
    let root_result = solve_node_lp s None in
    let root_bound =
      match root_result with
      | Revised.Optimal { obj; _ } ->
        (sense_mult *. obj) +. (sense_mult *. Model.objective_constant model)
      | Revised.Unbounded | Revised.Iteration_limit -> neg_infinity
      | Revised.Infeasible -> infinity
    in
    if root_bound = infinity && s.best_x = None then finish ~root_bound:nan
    else begin
      expand s ~depth:0 ~parent_basis:None ~parent_bound:neg_infinity
        root_result;
      finish ~root_bound:(sense_mult *. root_bound)
    end
  end
