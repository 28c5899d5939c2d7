(* Bounded-variable revised simplex over a factorized basis (Basis).

   Design points:
   - variable bounds are first class: no shift / mirror / split columns,
     the internal column space is exactly [structural + one logical per
     row], so a basis snapshot is meaningful across bound changes;
   - the basis inverse is an LU factorization plus a product-form eta
     file, refactorized periodically (Basis.refactor_every);
   - a dual simplex phase re-solves a problem whose bounds changed while
     the parent basis stays dual feasible — the branch-and-bound hot
     path. *)

module Fault = Fp_util.Fault

(* Fault sites (see Fp_util.Fault and docs/robustness.md): a stalled
   solve (forced Iteration_limit, exercising the branch-and-bound's
   parent-bound retreat) and a singular LU on the warm path (exercising
   the documented cold-solve fallback).  The singular site sits only on
   the warm path: a forced singularity on the cold path would turn into
   a spurious Infeasible answer, which no recovery could make honest. *)
let site_iteration_limit = Fault.register "revised.iteration_limit"
let site_singular_lu = Fault.register "basis.singular_lu"

type vstat = VBasic | VLower | VUpper | VFree

type snapshot = {
  sm : int;
  sn : int;
  sbasis : int array;
  sstat : vstat array;
}

type result =
  | Optimal of { x : float array; obj : float; basis : snapshot }
  | Infeasible
  | Unbounded
  | Iteration_limit

type stats = {
  primal_pivots : int;
  dual_pivots : int;
  refactorizations : int;
  warm : bool;
}

let feas_tol = 1e-7
let dual_tol = 1e-7
let warm_dual_tol = 1e-6
let ratio_tol = 1e-9
let degenerate_streak_limit = 60

(* ------------------------------------------------------------------ *)
(* Standardization                                                     *)
(* ------------------------------------------------------------------ *)

(* Structural columns first, then one logical column per row with
   bounds encoding the row sense:  Le -> [0, +inf), Ge -> (-inf, 0],
   Eq -> [0, 0].  Rows become  A x + s = b. *)
type std = {
  m : int;
  n : int;
  nstruct : int;
  mat : Basis.mat;
  lo : float array;
  up : float array;
  cost : float array;  (* minimization costs *)
  b : float array;
}

let standardize prob =
  let nstruct = Lp_problem.num_vars prob in
  let rows = Lp_problem.constraints prob in
  let m = Array.length rows in
  let n = nstruct + m in
  let acc = Array.make nstruct [] in
  Array.iteri
    (fun i row ->
      List.iter
        (fun (c, v) -> if c <> 0. then acc.(v) <- (i, c) :: acc.(v))
        row.Lp_problem.terms)
    rows;
  let col_start = Array.make (n + 1) 0 in
  for j = 0 to n - 1 do
    col_start.(j + 1) <-
      (col_start.(j) + if j < nstruct then List.length acc.(j) else 1)
  done;
  let row = Array.make col_start.(n) 0 and value = Array.make col_start.(n) 0. in
  for v = 0 to nstruct - 1 do
    List.iteri
      (fun k (i, c) ->
        row.(col_start.(v) + k) <- i;
        value.(col_start.(v) + k) <- c)
      (List.rev acc.(v))
  done;
  let lo = Array.make n 0. and up = Array.make n 0. in
  let cost = Array.make n 0. and b = Array.make m 0. in
  let sign =
    match Lp_problem.sense prob with
    | Lp_problem.Minimize -> 1.
    | Lp_problem.Maximize -> -1.
  in
  for v = 0 to nstruct - 1 do
    lo.(v) <- Lp_problem.var_lb prob v;
    up.(v) <- Lp_problem.var_ub prob v;
    cost.(v) <- sign *. Lp_problem.obj_coeff prob v
  done;
  Array.iteri
    (fun i (r : Lp_problem.constr) ->
      let j = nstruct + i in
      row.(col_start.(j)) <- i;
      value.(col_start.(j)) <- 1.;
      b.(i) <- r.rhs;
      match r.cmp with
      | Lp_problem.Le ->
        lo.(j) <- 0.;
        up.(j) <- infinity
      | Lp_problem.Ge ->
        lo.(j) <- neg_infinity;
        up.(j) <- 0.
      | Lp_problem.Eq ->
        lo.(j) <- 0.;
        up.(j) <- 0.)
    rows;
  { m; n; nstruct; mat = { Basis.m; col_start; row; value }; lo; up; cost; b }

(* ------------------------------------------------------------------ *)
(* Solver state                                                        *)
(* ------------------------------------------------------------------ *)

(* One workspace serves every solve of a problem: the standardization,
   the basis (reloaded from each solve's factors) and the scratch
   vectors are built once, and a solve re-reads only the structural
   bounds. *)
type workspace = {
  prob : Lp_problem.t;
  std : std;
  logical : Basis.factors;  (* the all-logical basis, B = I *)
  bas : Basis.t;
  stat : vstat array;  (* length n *)
  xb : float array;    (* length m, basic values by row position *)
  y : float array;     (* length m, duals / phase-1 costs *)
  d : float array;     (* length m, transformed entering column *)
  rho : float array;   (* length m, dual simplex pivot row *)
}

let workspace prob =
  let std = standardize prob in
  let bas =
    match Basis.create std.mat (Array.init std.m (fun i -> std.nstruct + i)) with
    | Ok bas -> bas
    | Error `Singular -> assert false (* an identity matrix *)
  in
  {
    prob; std; logical = Basis.factors bas; bas;
    stat = Array.make std.n VLower;
    xb = Array.make std.m 0.; y = Array.make std.m 0.;
    d = Array.make std.m 0.; rho = Array.make std.m 0.;
  }

(* The only part of the problem a search changes between solves. *)
let load_bounds ws =
  let prob = ws.prob and std = ws.std in
  if Lp_problem.num_vars prob <> std.nstruct
     || Lp_problem.num_constrs prob <> std.m
  then invalid_arg "Revised: the problem changed shape after its workspace was built";
  for v = 0 to std.nstruct - 1 do
    std.lo.(v) <- Lp_problem.var_lb prob v;
    std.up.(v) <- Lp_problem.var_ub prob v
  done

let nb_value st ~lo ~up j =
  match st.stat.(j) with
  | VLower -> lo.(j)
  | VUpper -> up.(j)
  | VFree -> 0.
  | VBasic -> assert false

(* Basic values from scratch: x_B = B^-1 (b - N x_N). *)
let compute_xb st ~lo ~up =
  let std = st.std in
  let { Basis.col_start; row; value; _ } = std.mat in
  let rhs = st.xb in
  Array.blit std.b 0 rhs 0 std.m;
  for j = 0 to std.n - 1 do
    if st.stat.(j) <> VBasic then begin
      let v = nb_value st ~lo ~up j in
      if v <> 0. then
        for e = col_start.(j) to col_start.(j + 1) - 1 do
          let i = row.(e) in
          rhs.(i) <- rhs.(i) -. (value.(e) *. v)
        done
    end
  done;
  Basis.ftran st.bas rhs

let compute_duals st ~cost =
  let basis = Basis.basis st.bas in
  for i = 0 to st.std.m - 1 do
    st.y.(i) <- cost.(basis.(i))
  done;
  Basis.btran st.bas st.y

let col_dot (cols : Basis.mat) y j =
  let acc = ref 0. in
  for e = cols.col_start.(j) to cols.col_start.(j + 1) - 1 do
    acc := !acc +. (cols.value.(e) *. y.(cols.row.(e)))
  done;
  !acc

(* d <- column j of A, on a zeroed d. *)
let scatter_col (cols : Basis.mat) d j =
  for e = cols.col_start.(j) to cols.col_start.(j + 1) - 1 do
    d.(cols.row.(e)) <- cols.value.(e)
  done

let primal_infeasibility st ~lo ~up =
  let basis = Basis.basis st.bas in
  let worst = ref 0. in
  for i = 0 to st.std.m - 1 do
    let k = basis.(i) in
    let v = st.xb.(i) in
    if lo.(k) -. v > !worst then worst := lo.(k) -. v;
    if v -. up.(k) > !worst then worst := v -. up.(k)
  done;
  !worst

(* ------------------------------------------------------------------ *)
(* Primal simplex                                                      *)
(* ------------------------------------------------------------------ *)

type phase = P_optimal | P_unbounded | P_iters | P_singular

(* Bounded primal simplex on the given cost vector and bounds (phase 1
   passes relaxed copies).  Assumes st.xb is NOT yet computed; leaves
   st.xb consistent on exit.  Dantzig pricing, Bland's rule after a
   degenerate streak. *)
let primal st ~cost ~lo ~up ~budget =
  let std = st.std in
  let cols = std.mat in
  let d = st.d in
  let iters = ref 0 and streak = ref 0 and bland = ref false in
  let outcome = ref P_optimal in
  let running = ref true in
  compute_xb st ~lo ~up;
  while !running do
    if !iters >= budget then begin
      outcome := P_iters;
      running := false
    end
    else begin
      compute_duals st ~cost;
      let best = ref (-1) and best_v = ref dual_tol and best_z = ref 0. in
      (try
         for j = 0 to std.n - 1 do
           if st.stat.(j) <> VBasic && up.(j) -. lo.(j) > ratio_tol then begin
             let z = cost.(j) -. col_dot cols st.y j in
             let a =
               match st.stat.(j) with
               | VLower -> -.z
               | VUpper -> z
               | VFree -> Float.abs z
               | VBasic -> 0.
             in
             if a > !best_v then begin
               best := j;
               best_v := a;
               best_z := z;
               if !bland then raise Exit
             end
           end
         done
       with Exit -> ());
      if !best < 0 then begin
        outcome := P_optimal;
        running := false
      end
      else begin
        let j = !best in
        let dir =
          match st.stat.(j) with
          | VLower -> 1.
          | VUpper -> -1.
          | VFree -> if !best_z <= 0. then 1. else -1.
          | VBasic -> assert false
        in
        Array.fill d 0 std.m 0.;
        scatter_col cols d j;
        Basis.ftran st.bas d;
        let basis = Basis.basis st.bas in
        let t_best = ref (up.(j) -. lo.(j)) in
        let leave = ref (-1) and leave_up = ref false in
        let consider i limit at_up =
          let better =
            limit < !t_best -. ratio_tol
            || (limit < !t_best +. ratio_tol
                && !leave >= 0
                &&
                if !bland then basis.(i) < basis.(!leave)
                else Float.abs d.(i) > Float.abs d.(!leave))
          in
          if better then begin
            t_best := Float.max 0. limit;
            leave := i;
            leave_up := at_up
          end
        in
        for i = 0 to std.m - 1 do
          let k = basis.(i) in
          let delta = dir *. d.(i) in
          if delta > ratio_tol then begin
            if lo.(k) > neg_infinity then
              consider i ((st.xb.(i) -. lo.(k)) /. delta) false
          end
          else if delta < -.ratio_tol then
            if up.(k) < infinity then
              consider i ((up.(k) -. st.xb.(i)) /. -.delta) true
        done;
        if !t_best = infinity then begin
          outcome := P_unbounded;
          running := false
        end
        else begin
          let step = Float.max 0. !t_best in
          let degen = step <= ratio_tol in
          (if !leave < 0 then begin
             (* Pure bound flip: no basis change. *)
             for i = 0 to std.m - 1 do
               st.xb.(i) <- st.xb.(i) -. (dir *. step *. d.(i))
             done;
             st.stat.(j) <-
               (match st.stat.(j) with VLower -> VUpper | _ -> VLower);
             incr iters
           end
           else begin
             let r = !leave in
             let k = basis.(r) in
             let enter_val = nb_value st ~lo ~up j +. (dir *. step) in
             match Basis.update st.bas ~row:r ~col:j ~d with
             | Error `Tiny_pivot | Error `Singular ->
               outcome := P_singular;
               running := false
             | Ok refreshed ->
               for i = 0 to std.m - 1 do
                 st.xb.(i) <- st.xb.(i) -. (dir *. step *. d.(i))
               done;
               st.xb.(r) <- enter_val;
               st.stat.(k) <- (if !leave_up then VUpper else VLower);
               st.stat.(j) <- VBasic;
               if refreshed = `Refactored then compute_xb st ~lo ~up;
               incr iters
           end);
          if !running then
            if degen then begin
              incr streak;
              if !streak > degenerate_streak_limit then bland := true
            end
            else begin
              streak := 0;
              bland := false
            end
        end
      end
    end
  done;
  (!outcome, !iters)

(* ------------------------------------------------------------------ *)
(* Primal phase 1 (composite objective)                                *)
(* ------------------------------------------------------------------ *)

(* Minimize the total bound violation of the basic variables with the
   classic composite objective: every variable keeps its true bounds,
   the phase-1 cost of a basic variable is -1 below its lower bound, +1
   above its upper bound, 0 inside, recomputed each iteration; the ratio
   test stops at the nearest bound breakpoint, which is where a violated
   variable re-enters its interval.  Nonbasic variables rest at true
   bounds throughout, so feasibility, once reached, is genuine. *)
let phase1 st ~budget =
  let std = st.std in
  let cols = std.mat in
  let lo = std.lo and up = std.up in
  let d = st.d in
  let iters = ref 0 and streak = ref 0 and bland = ref false in
  let outcome = ref `Feasible in
  let running = ref true in
  compute_xb st ~lo ~up;
  while !running do
    if !iters >= budget then begin
      outcome := `Iters;
      running := false
    end
    else begin
      let basis = Basis.basis st.bas in
      (* Composite costs live only on the basics, so c_B is built
         directly into the dual scratch vector. *)
      let nviol = ref 0 in
      for i = 0 to std.m - 1 do
        let k = basis.(i) in
        st.y.(i) <-
          (if st.xb.(i) < lo.(k) -. feas_tol then begin
             incr nviol;
             -1.
           end
           else if st.xb.(i) > up.(k) +. feas_tol then begin
             incr nviol;
             1.
           end
           else 0.)
      done;
      if !nviol = 0 then begin
        outcome := `Feasible;
        running := false
      end
      else begin
        Basis.btran st.bas st.y;
        let best = ref (-1) and best_v = ref dual_tol and best_z = ref 0. in
        (try
           for j = 0 to std.n - 1 do
             if st.stat.(j) <> VBasic && up.(j) -. lo.(j) > ratio_tol then begin
               let z = -.col_dot cols st.y j in
               let a =
                 match st.stat.(j) with
                 | VLower -> -.z
                 | VUpper -> z
                 | VFree -> Float.abs z
                 | VBasic -> 0.
               in
               if a > !best_v then begin
                 best := j;
                 best_v := a;
                 best_z := z;
                 if !bland then raise Exit
               end
             end
           done
         with Exit -> ());
        if !best < 0 then begin
          outcome := `Infeasible;
          running := false
        end
        else begin
          let j = !best in
          let dir =
            match st.stat.(j) with
            | VLower -> 1.
            | VUpper -> -1.
            | VFree -> if !best_z <= 0. then 1. else -1.
            | VBasic -> assert false
          in
          Array.fill d 0 std.m 0.;
          scatter_col cols d j;
          Basis.ftran st.bas d;
          let t_best = ref (up.(j) -. lo.(j)) in
          let leave = ref (-1) and leave_up = ref false in
          let consider i limit at_up =
            let better =
              limit < !t_best -. ratio_tol
              || (limit < !t_best +. ratio_tol
                  && !leave >= 0
                  &&
                  if !bland then basis.(i) < basis.(!leave)
                  else Float.abs d.(i) > Float.abs d.(!leave))
            in
            if better then begin
              t_best := Float.max 0. limit;
              leave := i;
              leave_up := at_up
            end
          in
          for i = 0 to std.m - 1 do
            let k = basis.(i) in
            let delta = dir *. d.(i) in
            let xi = st.xb.(i) in
            if delta > ratio_tol then begin
              (* Basic decreasing. *)
              if xi > up.(k) +. feas_tol then
                (* Violated above: breakpoint where it regains u_k. *)
                consider i ((xi -. up.(k)) /. delta) true
              else if lo.(k) > neg_infinity && xi >= lo.(k) -. feas_tol then
                consider i ((xi -. lo.(k)) /. delta) false
              (* Violated below and still decreasing: no block. *)
            end
            else if delta < -.ratio_tol then begin
              (* Basic increasing. *)
              if xi < lo.(k) -. feas_tol then
                consider i ((lo.(k) -. xi) /. -.delta) false
              else if up.(k) < infinity && xi <= up.(k) +. feas_tol then
                consider i ((up.(k) -. xi) /. -.delta) true
            end
          done;
          if !t_best = infinity then begin
            (* A strictly improving phase-1 ray with no breakpoint can
               only be numerical noise; report infeasible rather than
               looping. *)
            outcome := `Infeasible;
            running := false
          end
          else begin
            let step = Float.max 0. !t_best in
            let degen = step <= ratio_tol in
            (if !leave < 0 then begin
               for i = 0 to std.m - 1 do
                 st.xb.(i) <- st.xb.(i) -. (dir *. step *. d.(i))
               done;
               st.stat.(j) <-
                 (match st.stat.(j) with VLower -> VUpper | _ -> VLower);
               incr iters
             end
             else begin
               let r = !leave in
               let k = basis.(r) in
               let enter_val = nb_value st ~lo ~up j +. (dir *. step) in
               match Basis.update st.bas ~row:r ~col:j ~d with
               | Error `Tiny_pivot | Error `Singular ->
                 outcome := `Singular;
                 running := false
               | Ok refreshed ->
                 for i = 0 to std.m - 1 do
                   st.xb.(i) <- st.xb.(i) -. (dir *. step *. d.(i))
                 done;
                 st.xb.(r) <- enter_val;
                 st.stat.(k) <- (if !leave_up then VUpper else VLower);
                 st.stat.(j) <- VBasic;
                 if refreshed = `Refactored then compute_xb st ~lo ~up;
                 incr iters
             end);
            if !running then
              if degen then begin
                incr streak;
                if !streak > degenerate_streak_limit then bland := true
              end
              else begin
                streak := 0;
                bland := false
              end
          end
        end
      end
    end
  done;
  (!outcome, !iters)

(* ------------------------------------------------------------------ *)
(* Dual simplex                                                        *)
(* ------------------------------------------------------------------ *)

type dual_outcome = D_feasible | D_infeasible | D_iters | D_singular

(* Requires dual feasibility of the starting basis; drives out primal
   bound violations (the situation after a branch-and-bound bound
   change).  Short-step variant: the entering variable may overshoot its
   opposite bound and become the next leaving candidate. *)
let dual st ~budget =
  let std = st.std in
  let cols = std.mat in
  let lo = std.lo and up = std.up in
  let rho = st.rho and d = st.d in
  let iters = ref 0 and streak = ref 0 and bland = ref false in
  let retries = ref 0 in
  let outcome = ref D_feasible in
  let running = ref true in
  compute_xb st ~lo ~up;
  while !running do
    if !iters >= budget then begin
      outcome := D_iters;
      running := false
    end
    else begin
      let basis = Basis.basis st.bas in
      let r = ref (-1) and worst = ref feas_tol in
      for i = 0 to std.m - 1 do
        let k = basis.(i) in
        let v = Float.max (lo.(k) -. st.xb.(i)) (st.xb.(i) -. up.(k)) in
        if v > !worst then begin
          worst := v;
          r := i
        end
      done;
      if !r < 0 then begin
        outcome := D_feasible;
        running := false
      end
      else begin
        let r = !r in
        let k = basis.(r) in
        let to_upper = st.xb.(r) > up.(k) in
        Array.fill rho 0 std.m 0.;
        rho.(r) <- 1.;
        Basis.btran st.bas rho;
        compute_duals st ~cost:std.cost;
        let best = ref (-1)
        and best_ratio = ref infinity
        and best_alpha = ref 0. in
        (try
           for j = 0 to std.n - 1 do
             if st.stat.(j) <> VBasic && up.(j) -. lo.(j) > ratio_tol then begin
               let alpha = col_dot cols rho j in
               let ok =
                 match (st.stat.(j), to_upper) with
                 | VLower, true | VUpper, false -> alpha > ratio_tol
                 | VUpper, true | VLower, false -> alpha < -.ratio_tol
                 | VFree, _ -> Float.abs alpha > ratio_tol
                 | VBasic, _ -> false
               in
               if ok then begin
                 let z = std.cost.(j) -. col_dot cols st.y j in
                 let ratio = Float.abs z /. Float.abs alpha in
                 let better =
                   if !bland then !best < 0
                   else
                     ratio < !best_ratio -. 1e-12
                     || (ratio < !best_ratio +. 1e-12
                        && Float.abs alpha > Float.abs !best_alpha)
                 in
                 if better then begin
                   best := j;
                   best_ratio := ratio;
                   best_alpha := alpha;
                   if !bland then raise Exit
                 end
               end
             end
           done
         with Exit -> ());
        if !best < 0 then begin
          outcome := D_infeasible;
          running := false
        end
        else begin
          let j = !best in
          Array.fill d 0 std.m 0.;
          scatter_col cols d j;
          Basis.ftran st.bas d;
          if Float.abs d.(r) <= ratio_tol then begin
            (* btran row and ftran column disagree: stale factors. *)
            incr retries;
            if !retries > 3 then begin
              outcome := D_singular;
              running := false
            end
            else
              match Basis.refactorize st.bas with
              | Ok () -> compute_xb st ~lo ~up
              | Error `Singular ->
                outcome := D_singular;
                running := false
          end
          else begin
            retries := 0;
            let bound_k = if to_upper then up.(k) else lo.(k) in
            let delta = (st.xb.(r) -. bound_k) /. d.(r) in
            let enter_val = nb_value st ~lo ~up j +. delta in
            match Basis.update st.bas ~row:r ~col:j ~d with
            | Error `Tiny_pivot | Error `Singular ->
              outcome := D_singular;
              running := false
            | Ok refreshed ->
              for i = 0 to std.m - 1 do
                st.xb.(i) <- st.xb.(i) -. (delta *. d.(i))
              done;
              st.xb.(r) <- enter_val;
              st.stat.(k) <- (if to_upper then VUpper else VLower);
              st.stat.(j) <- VBasic;
              if refreshed = `Refactored then compute_xb st ~lo ~up;
              incr iters;
              if !best_ratio <= 1e-9 then begin
                incr streak;
                if !streak > degenerate_streak_limit then bland := true
              end
              else begin
                streak := 0;
                bland := false
              end
          end
        end
      end
    end
  done;
  (!outcome, !iters)

(* ------------------------------------------------------------------ *)
(* Extraction and snapshots                                            *)
(* ------------------------------------------------------------------ *)

let extract st =
  let std = st.std in
  let x = Array.make std.nstruct 0. in
  for j = 0 to std.nstruct - 1 do
    if st.stat.(j) <> VBasic then x.(j) <- nb_value st ~lo:std.lo ~up:std.up j
  done;
  let basis = Basis.basis st.bas in
  for i = 0 to std.m - 1 do
    if basis.(i) < std.nstruct then x.(basis.(i)) <- st.xb.(i)
  done;
  x

let snapshot_of st =
  {
    sm = st.std.m;
    sn = st.std.n;
    sbasis = Array.copy (Basis.basis st.bas);
    sstat = Array.copy st.stat;
  }

let dual_feasible st =
  let std = st.std in
  let cols = std.mat in
  compute_duals st ~cost:std.cost;
  let ok = ref true in
  for j = 0 to std.n - 1 do
    if !ok && st.stat.(j) <> VBasic && std.up.(j) -. std.lo.(j) > ratio_tol
    then begin
      let z = std.cost.(j) -. col_dot cols st.y j in
      match st.stat.(j) with
      | VLower -> if z < -.warm_dual_tol then ok := false
      | VUpper -> if z > warm_dual_tol then ok := false
      | VFree -> if Float.abs z > warm_dual_tol then ok := false
      | VBasic -> ()
    end
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let default_budget std = (50 * (std.m + std.n)) + 2000

let pending =
  Optimal
    { x = [||]; obj = 0.; basis = { sm = 0; sn = 0; sbasis = [||]; sstat = [||] } }

(* A warm start shared by the solves that begin from one snapshot: the
   first of them factorizes the snapshot's basis, the others reuse those
   factors.  The factors belong to one workspace's matrix; [Basis.load]
   refuses them anywhere else. *)
type start = {
  snap : snapshot;
  mutable lu : (Basis.factors, [ `Singular ]) Stdlib.result option;
}

let start snap = { snap; lu = None }

let factors_of ws s =
  match s.lu with
  | Some lu -> lu
  | None ->
    let lu = Basis.factorize ws.bas s.snap.sbasis in
    s.lu <- Some lu;
    lu

(* Cold solve: logical basis, composite phase 1 when the starting point
   violates bounds, then phase 2 on the true costs.  On [Optimal] the
   workspace holds the optimal basis (see [finish]). *)
let run_cold ws ~budget =
  let std = ws.std and stat = ws.stat in
  Array.fill stat 0 std.n VLower;
  for j = 0 to std.nstruct - 1 do
    stat.(j) <-
      (if std.lo.(j) > neg_infinity then VLower
       else if std.up.(j) < infinity then VUpper
       else VFree)
  done;
  for i = 0 to std.m - 1 do
    stat.(std.nstruct + i) <- VBasic
  done;
  Basis.load ws.bas ws.logical;
  let p1_outcome, p1_iters = phase1 ws ~budget in
  let refac () = Basis.refactorizations ws.bas in
  match p1_outcome with
  | `Infeasible -> (Infeasible, p1_iters, refac ())
  | `Iters | `Singular -> (Iteration_limit, p1_iters, refac ())
  | `Feasible ->
    let outcome, p2_iters =
      primal ws ~cost:std.cost ~lo:std.lo ~up:std.up
        ~budget:(Int.max 0 (budget - p1_iters))
    in
    let total = p1_iters + p2_iters in
    (match outcome with
    | P_optimal -> (pending, total, refac ())
    | P_unbounded -> (Unbounded, total, refac ())
    | P_iters | P_singular -> (Iteration_limit, total, refac ()))

(* The drivers answer [pending] for an optimum; [finish] reads the
   solution off the workspace. *)
let finish ws result =
  match result with
  | Optimal _ ->
    let x = extract ws in
    Optimal { x; obj = Lp_problem.objective_value ws.prob x;
              basis = snapshot_of ws }
  | r -> r

let valid_snapshot snap std =
  snap.sm = std.m && snap.sn = std.n
  && Array.for_all (fun e -> e >= 0 && e < std.n) snap.sbasis

let resolve ws from =
  if Fault.fire site_iteration_limit then
    ( Iteration_limit,
      { primal_pivots = 0; dual_pivots = 0; refactorizations = 0;
        warm = Option.is_some from } )
  else begin
  load_bounds ws;
  let std = ws.std in
  let budget = default_budget std in
  let cold ~dual_pivots ~refac0 =
    let result, pivots, refac = run_cold ws ~budget in
    ( finish ws result,
      { primal_pivots = pivots; dual_pivots;
        refactorizations = refac0 + refac; warm = false } )
  in
  match from with
  | None -> cold ~dual_pivots:0 ~refac0:0
  | Some from when not (valid_snapshot from.snap std) ->
    cold ~dual_pivots:0 ~refac0:0
  | Some from ->
    let stat = ws.stat in
    Array.blit from.snap.sstat 0 stat 0 std.n;
    (* Legalize rest statuses against the current bounds (a branch may
       have removed the bound a variable was parked at). *)
    for j = 0 to std.n - 1 do
      match stat.(j) with
      | VBasic -> ()
      | VLower ->
        if std.lo.(j) = neg_infinity then
          stat.(j) <- (if std.up.(j) < infinity then VUpper else VFree)
      | VUpper ->
        if std.up.(j) = infinity then
          stat.(j) <- (if std.lo.(j) > neg_infinity then VLower else VFree)
      | VFree ->
        if std.lo.(j) > neg_infinity then stat.(j) <- VLower
        else if std.up.(j) < infinity then stat.(j) <- VUpper
    done;
    let factored =
      if Fault.fire site_singular_lu then Error `Singular
      else factors_of ws from
    in
    match factored with
    | Error `Singular -> cold ~dual_pivots:0 ~refac0:0
    | Ok lu ->
      let bas = ws.bas in
      Basis.load bas lu;
      if dual_feasible ws then begin
        let douts, diters = dual ws ~budget in
        match douts with
        | D_feasible ->
          (* Dual feasible + primal feasible; the closing primal pass
             normally certifies optimality in zero pivots. *)
          let pouts, piters =
            primal ws ~cost:std.cost ~lo:std.lo ~up:std.up
              ~budget:(Int.max 0 (budget - diters))
          in
          let refac = Basis.refactorizations bas in
          let mk r =
            ( finish ws r,
              { primal_pivots = piters; dual_pivots = diters;
                refactorizations = refac; warm = true } )
          in
          (match pouts with
          | P_optimal -> mk pending
          | P_unbounded -> mk Unbounded
          | P_iters -> mk Iteration_limit
          | P_singular ->
            cold ~dual_pivots:diters ~refac0:refac)
        | D_infeasible ->
          ( Infeasible,
            { primal_pivots = 0; dual_pivots = diters;
              refactorizations = Basis.refactorizations bas; warm = true } )
        | D_iters ->
          ( Iteration_limit,
            { primal_pivots = 0; dual_pivots = diters;
              refactorizations = Basis.refactorizations bas; warm = true } )
        | D_singular ->
          cold ~dual_pivots:diters ~refac0:(Basis.refactorizations bas)
      end
      else begin
        (* Costs changed or tolerance drift: if the snapshot is at least
           primal feasible, restart primal phase 2 from it. *)
        compute_xb ws ~lo:std.lo ~up:std.up;
        if primal_infeasibility ws ~lo:std.lo ~up:std.up <= feas_tol then begin
          let pouts, piters =
            primal ws ~cost:std.cost ~lo:std.lo ~up:std.up ~budget
          in
          let refac = Basis.refactorizations bas in
          let mk r =
            ( finish ws r,
              { primal_pivots = piters; dual_pivots = 0;
                refactorizations = refac; warm = true } )
          in
          match pouts with
          | P_optimal -> mk pending
          | P_unbounded -> mk Unbounded
          | P_iters -> mk Iteration_limit
          | P_singular -> cold ~dual_pivots:0 ~refac0:refac
        end
        else cold ~dual_pivots:0 ~refac0:(Basis.refactorizations bas)
      end
  end

let solve prob = resolve (workspace prob) None
let solve_from snap prob = resolve (workspace prob) (Some (start snap))
