module Lp_problem = Fp_lp.Lp_problem
module Revised = Fp_lp.Revised
module Pool = Fp_util.Pool
module Fault = Fp_util.Fault

let src = Logs.Src.create "fp.milp" ~doc:"branch-and-bound"

module Log = (val Logs.src_log src : Logs.LOG)

(* Fault sites: forced budget exhaustion (the anytime path — the best
   incumbent, usually the caller's warm start, is returned immediately)
   and frontier-task loss (a captured subtree's result vanishes; the
   consume loop re-runs it on the calling domain under the exact
   contract the sequential search would have given it, so determinism
   survives the loss). *)
let site_budget = Fault.register "branch_bound.budget"
let site_task_loss = Fault.register "branch_bound.task_loss"

type params = {
  node_limit : int;
  time_limit : float;
  min_improvement : float;
  ramp_nodes : int;
  propagate : bool;
}

let default_params =
  {
    node_limit = 200_000;
    time_limit = 120.;
    min_improvement = 1e-7;
    ramp_nodes = 32;
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

let add_work a b =
  {
    nodes = a.nodes + b.nodes;
    warm_hits = a.warm_hits + b.warm_hits;
    pivots = a.pivots + b.pivots;
    refactorizations = a.refactorizations + b.refactorizations;
    numerical_recoveries = a.numerical_recoveries + b.numerical_recoveries;
  }

type outcome = {
  status : status;
  best : (float array * float) option;
  work : work;
  tasks_lost : int;
  root_bound : float;
  per_domain : work array;
  frontier_tasks : int;
  waves : int;
}

(* A subtree handed to the pool: the accumulated variable-bound settings
   from the root (absolute values, root-first, later entries override
   earlier ones for the same variable), plus the parent's LP bound and
   basis snapshot ({!Revised.snapshot} is immutable, so sharing it across
   domains is safe — each domain wraps it in its own {!Revised.start}). *)
type task = {
  t_trail : (int * float * float) list;
  t_depth : int;
  t_basis : Revised.snapshot option;
  t_bound : float;
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
  lp : Revised.workspace;       (* this domain's node-LP state *)
  deadline : float;
  mutable node_budget : int;    (* stop at [work.nodes >= node_budget] *)
  mutable capture : (task -> unit) option;
  mutable ramp_limit : int;     (* capture instead of exploring beyond this *)
  mutable work : work;          (* everything this domain's search did *)
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
  s.work.nodes >= s.node_budget
  || Unix.gettimeofday () > s.deadline
  || Fault.fire site_budget

(* One node: its LP relaxation, warm-started from the parent's optimal
   basis via the dual simplex when there is one (bound-only changes keep
   it dual feasible), cold at the root.  It runs in this domain's
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
   restored on exit; they are also pushed onto the trail, so captured
   tasks replay the exact bounds on a worker. *)
let propagate_node s =
  if not s.prm.propagate then `Open ([], [])
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
      else
        `Open
          ( undo,
            List.map
              (fun (v, _, _) ->
                (v, Lp_problem.var_lb s.prob v, Lp_problem.var_ub s.prob v))
              undo )
  end

(* [trail] is the accumulated bound-setting path from the root, newest
   first; it only matters while a capture hook is installed (parallel
   ramp-up), where it lets a pending subtree be replayed on another
   domain's copy of the problem. *)
let rec explore s ~depth ~trail ~parent_basis ~parent_bound =
  match s.capture with
  | Some push when s.work.nodes >= s.ramp_limit ->
    (* Ramp-up budget spent: hand the whole pending subtree to the pool
       instead of exploring it.  Captures happen in DFS order, so task
       order is exactly the order the sequential search would have
       visited the subtrees in. *)
    push
      { t_trail = List.rev trail; t_depth = depth; t_bound = parent_bound;
        t_basis = Option.map Revised.start_snapshot parent_basis }
  | _ ->
    if budget_exhausted s then s.out_of_budget <- true
    else begin
      match propagate_node s with
      | `Pruned -> () (* pruned without becoming a node *)
      | `Open (undo, applied) ->
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun (v, lb, ub) -> Lp_problem.set_bounds s.prob v ~lb ~ub)
              undo)
          (fun () ->
            let trail = List.rev_append applied trail in
            expand s ~depth ~trail ~parent_basis ~parent_bound
              (solve_node_lp s parent_basis))
    end

and expand s ~depth ~trail ~parent_basis ~parent_bound result =
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
      | Some v -> branch s ~depth ~trail x v ~basis:parent_basis ~bound:parent_bound
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
        branch s ~depth ~trail x v ~basis:(Some (Revised.start basis)) ~bound:m
    end

and branch s ~depth ~trail x v ~basis ~bound =
  let child settings =
    with_bounds s settings (fun () ->
        explore s ~depth:(depth + 1)
          ~trail:(List.rev_append settings trail)
          ~parent_basis:basis ~parent_bound:bound)
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

(* ------------------------------------------------------------------ *)
(* Parallel task execution                                             *)
(* ------------------------------------------------------------------ *)

(* What one subtree exploration reported, and under which contract
   (starting incumbent + node budget) it ran — the deterministic replay
   decides from the contract whether the speculation is admissible. *)
type task_result = {
  r_entry : float;
  r_budget : int;
  r_found : (float array * float) option;   (* minimized form *)
  r_nodes : int;
  r_hit_nodes : bool;
  r_hit_time : bool;
  r_bound_incomplete : bool;
}

(* Run one captured subtree on worker state [s] (its own problem copy):
   apply the trail, explore, restore the trail's variables from the root
   bounds.  Pure function of (task, entry, budget) apart from the wall
   clock. *)
let run_task s ~base_lb ~base_ub task ~entry ~budget =
  s.best_m <- entry;
  s.best_x <- None;
  s.out_of_budget <- false;
  s.bound_incomplete <- false;
  let nodes_before = s.work.nodes in
  s.node_budget <- nodes_before + budget;
  List.iter
    (fun (v, lb, ub) -> Lp_problem.set_bounds s.prob v ~lb ~ub)
    task.t_trail;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (v, _, _) ->
          Lp_problem.set_bounds s.prob v ~lb:base_lb.(v) ~ub:base_ub.(v))
        task.t_trail)
    (fun () ->
      explore s ~depth:task.t_depth ~trail:[]
        ~parent_basis:(Option.map Revised.start task.t_basis)
        ~parent_bound:task.t_bound);
  let nodes_used = s.work.nodes - nodes_before in
  {
    r_entry = entry;
    r_budget = budget;
    r_found =
      (match s.best_x with
      | Some x when s.best_m < entry -> Some (x, s.best_m)
      | _ -> None);
    r_nodes = nodes_used;
    r_hit_nodes = s.out_of_budget && nodes_used >= budget;
    r_hit_time = s.out_of_budget && nodes_used < budget;
    r_bound_incomplete = s.bound_incomplete;
  }

(* Explore the captured frontier on [pool], replaying the sequential
   search exactly.  [s] is the caller's search state, just finished with
   the ramp-up (its problem is back at root bounds); [finish] packages
   the outcome.

   Subtrees are explored speculatively in parallel (every task of a wave
   entering with the same incumbent bound), then their results are
   consumed in DFS order; a task whose speculation contract no longer
   matches what the sequential search would have given it — an earlier
   subtree improved the incumbent, or the node budget no longer covers
   what it used — is re-explored, incumbent-stale tasks as a fresh wave
   and budget-stale tasks alone with the exact remaining budget.  With a
   good warm start incumbent improvements are rare and one wave usually
   suffices.  Every task writes only its own domain's search state and
   its own slot of [results]. *)
let solve_frontier s ~pool ~mk_search ~tasks ~finish =
  let base_lb =
    Array.init (Lp_problem.num_vars s.prob) (Lp_problem.var_lb s.prob)
  and base_ub =
    Array.init (Lp_problem.num_vars s.prob) (Lp_problem.var_ub s.prob)
  in
  (* Worker 0 is the calling domain and reuses the ramp-up search state;
     every other worker gets its own copy of the problem.  The copies
     MUST be taken here, before any task runs: worker 0 mutates [s.prob]
     bounds while executing its tasks, so a copy taken lazily mid-wave
     could capture a sibling's branch bounds as its root. *)
  let states =
    Array.init (Pool.jobs pool) (fun w ->
        if w = 0 then s else mk_search (Lp_problem.copy s.prob))
  in
  let state_of worker = states.(worker) in
  let n = Array.length tasks in
  let results : task_result option array = Array.make n None in
  let chain_m = ref s.best_m and chain_x = ref s.best_x in
  let consumed = ref s.work.nodes in
  let out_of_budget = ref s.out_of_budget in
  let bound_incomplete = ref s.bound_incomplete in
  let waves = ref 0 in
  let tasks_lost = ref 0 in
  let launch_wave ~from ~entry ~budget =
    incr waves;
    Pool.run pool ~n:(n - from) (fun ~worker k ->
        let i = from + k in
        results.(i) <-
          Some (run_task (state_of worker) ~base_lb ~base_ub tasks.(i)
                  ~entry ~budget));
    (* A subtree's result vanishes (simulated worker loss).  Fired here,
       in task order on the calling domain, so which results a counted
       fault spec drops does not depend on scheduling. *)
    for i = from to n - 1 do
      if Fault.fire site_task_loss then results.(i) <- None
    done
  in
  (* Re-run a lost subtree inline on the calling domain, under the exact
     contract the consumer needs.  Sits outside [launch_wave]'s injection
     point, so recovery cannot itself be lost. *)
  let recover i ~entry ~budget =
    incr tasks_lost;
    let r = run_task (state_of 0) ~base_lb ~base_ub tasks.(i) ~entry ~budget in
    results.(i) <- Some r;
    r
  in
  let accept r =
    consumed := !consumed + r.r_nodes;
    if r.r_bound_incomplete then bound_incomplete := true;
    match r.r_found with
    | Some (x, m) ->
      (* [run_task] only reports strict improvements over its entry
         bound, which was the chain value. *)
      chain_m := m;
      chain_x := Some x
    | None -> ()
  in
  (* If the ramp-up itself ran out of budget the sequential search
     would touch none of the captured subtrees. *)
  let i = ref 0 and stop = ref !out_of_budget in
  while !i < n && not !stop do
    let remaining = s.prm.node_limit - !consumed in
    if remaining <= 0 then begin
      (* The sequential search checks the budget before every node, so
         it would refuse to open any further subtree. *)
      out_of_budget := true;
      stop := true
    end
    else begin
      (match results.(!i) with
      | Some r when r.r_entry = !chain_m -> ()
      | _ ->
        (* Incumbent is stale (or first visit): every remaining task
           speculated on the wrong entry bound, so relaunch them all
           as one wave under the current chain value. *)
        launch_wave ~from:!i ~entry:!chain_m ~budget:remaining);
      let r =
        match results.(!i) with
        | Some r -> r
        | None ->
          (* Lost even after the relaunch: recover inline with the
             exact sequential contract, which also makes the result
             admissible by construction. *)
          recover !i ~entry:!chain_m ~budget:remaining
      in
      if r.r_hit_time then begin
        (* Wall clock ran out mid-subtree: accept what was found;
           exactness — and hence replay determinism — ends here, as it
           does for any time-limited run. *)
        accept r;
        out_of_budget := true;
        stop := true
      end
      else if r.r_hit_nodes && r.r_budget = remaining then begin
        (* Ran with the exact remaining budget and exhausted it: the
           sequential search runs out of nodes inside this very
           subtree, finding the same incumbents on the way. *)
        accept r;
        out_of_budget := true;
        stop := true
      end
      else if r.r_nodes > remaining || r.r_hit_nodes then
        (* Speculated past the real budget (or was cut off below it):
           re-run this one subtree with the exact remaining budget.
           The next iteration consumes it via one of the cases above. *)
        results.(!i) <-
          Some
            (run_task (state_of 0) ~base_lb ~base_ub tasks.(!i)
               ~entry:!chain_m ~budget:remaining)
      else begin
        (* Admissible: byte-for-byte what the sequential search would
           have done with this subtree. *)
        accept r;
        incr i
      end
    end
  done;
  s.best_m <- !chain_m;
  s.best_x <- !chain_x;
  s.out_of_budget <- !out_of_budget;
  s.bound_incomplete <- !bound_incomplete;
  let per_domain = Array.map (fun st -> st.work) states in
  finish ~per_domain ~waves:!waves ~tasks_lost:!tasks_lost

let solve ?(params = default_params) ?warm ?pool model =
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
  (* A pool of one worker cannot run a frontier in parallel. *)
  let pool =
    match pool with Some p when Pool.jobs p > 1 -> Some p | _ -> None
  in
  let start = Unix.gettimeofday () in
  let mk_search prob =
    {
      model; prob; prm = params; sense_mult; partner; is_integer; ints;
      lp = Revised.workspace prob;
      deadline = start +. params.time_limit;
      node_budget = params.node_limit; capture = None;
      ramp_limit = max_int; work = no_work;
      best_m = infinity; best_x = None;
      out_of_budget = false; root_unbounded = false; bound_incomplete = false;
    }
  in
  let s = mk_search prob in
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
  (* Capture hook for the parallel ramp-up: once [ramp_nodes] node LPs
     have been spent, pending subtrees are queued (in DFS order, which is
     the order the sequential search would visit them) instead of
     explored. *)
  let tasks_rev = ref [] in
  if Option.is_some pool then begin
    s.capture <- Some (fun t -> tasks_rev := t :: !tasks_rev);
    s.ramp_limit <- Int.min params.ramp_nodes params.node_limit
  end;
  let finish ~root_bound ~per_domain ~frontier ~waves ~tasks_lost =
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
    {
      status; best; work = Array.fold_left add_work no_work per_domain;
      tasks_lost; root_bound; per_domain; frontier_tasks = frontier; waves;
    }
  in
  let seq_finish ~root_bound =
    finish ~root_bound ~per_domain:[| s.work |] ~frontier:0 ~waves:0
      ~tasks_lost:0
  in
  if budget_exhausted s then begin
    (* Exhausted before the root LP: report without solving anything, so
       the node count stays exact (0). *)
    s.out_of_budget <- true;
    seq_finish ~root_bound:nan
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
    if root_bound = infinity && s.best_x = None then
      seq_finish ~root_bound:nan
    else begin
      expand s ~depth:0 ~trail:[] ~parent_basis:None ~parent_bound:neg_infinity
        root_result;
      s.capture <- None;
      let tasks = Array.of_list (List.rev !tasks_rev) in
      match pool with
      | Some pool when Array.length tasks > 0 ->
        solve_frontier s ~pool ~mk_search ~tasks
          ~finish:(finish ~root_bound:(sense_mult *. root_bound)
                     ~frontier:(Array.length tasks))
      | _ ->
        (* Sequential run, or a ramp-up that exhausted the whole tree. *)
        seq_finish ~root_bound:(sense_mult *. root_bound)
    end
  end
