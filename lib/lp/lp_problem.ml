type var = int
type sense = Minimize | Maximize
type cmp = Le | Ge | Eq
type term = float * var

type constr = {
  cname : string;
  terms : term list;
  cmp : cmp;
  rhs : float;
}

type vinfo = {
  vname : string;
  mutable lb : float;
  mutable ub : float;
  mutable obj : float;
}

type t = {
  pname : string;
  mutable vars : vinfo array;
  mutable nvars : int;
  mutable rows : constr array;
  mutable nrows : int;
  mutable psense : sense;
}

let create ?(name = "lp") () =
  { pname = name; vars = [||]; nvars = 0; rows = [||]; nrows = 0;
    psense = Minimize }

let name t = t.pname

(* Rows are immutable records, so sharing them is safe; vinfo records are
   mutable and must be duplicated. *)
let copy t =
  {
    t with
    vars = Array.map (fun vi -> { vi with vname = vi.vname }) t.vars;
    rows = Array.copy t.rows;
  }

let grow_vars t =
  let cap = Array.length t.vars in
  if t.nvars >= cap then begin
    let bigger =
      Array.make (Int.max 8 (2 * cap))
        { vname = ""; lb = 0.; ub = 0.; obj = 0. }
    in
    Array.blit t.vars 0 bigger 0 t.nvars;
    t.vars <- bigger
  end

let grow_rows t =
  let cap = Array.length t.rows in
  if t.nrows >= cap then begin
    let bigger =
      Array.make (Int.max 8 (2 * cap))
        { cname = ""; terms = []; cmp = Le; rhs = 0. }
    in
    Array.blit t.rows 0 bigger 0 t.nrows;
    t.rows <- bigger
  end

let add_var t ?(lb = 0.) ?(ub = infinity) ?(obj = 0.) vname =
  if ub < lb then
    invalid_arg
      (Printf.sprintf "Lp_problem.add_var %s: ub (%g) < lb (%g)" vname ub lb);
  grow_vars t;
  t.vars.(t.nvars) <- { vname; lb; ub; obj };
  t.nvars <- t.nvars + 1;
  t.nvars - 1

let check_var t v fn =
  if v < 0 || v >= t.nvars then
    invalid_arg (Printf.sprintf "Lp_problem.%s: unknown variable %d" fn v)

(* Sum duplicate variable mentions so downstream consumers see each column
   at most once per row. *)
let collapse_terms terms =
  let tbl = Hashtbl.create (List.length terms) in
  let order = ref [] in
  List.iter
    (fun (c, v) ->
      match Hashtbl.find_opt tbl v with
      | Some acc -> Hashtbl.replace tbl v (acc +. c)
      | None ->
        Hashtbl.add tbl v c;
        order := v :: !order)
    terms;
  List.rev_map (fun v -> (Hashtbl.find tbl v, v)) !order

let add_constr t ?name terms cmp rhs =
  List.iter (fun (_, v) -> check_var t v "add_constr") terms;
  grow_rows t;
  let cname =
    match name with Some n -> n | None -> Printf.sprintf "c%d" t.nrows
  in
  t.rows.(t.nrows) <- { cname; terms = collapse_terms terms; cmp; rhs };
  t.nrows <- t.nrows + 1

let check_row t i fn =
  if i < 0 || i >= t.nrows then
    invalid_arg (Printf.sprintf "Lp_problem.%s: unknown row %d" fn i)

let update_constr t i terms cmp rhs =
  check_row t i "update_constr";
  List.iter (fun (_, v) -> check_var t v "update_constr") terms;
  t.rows.(i) <- { (t.rows.(i)) with terms = collapse_terms terms; cmp; rhs }

let set_obj_coeff t v c =
  check_var t v "set_obj_coeff";
  t.vars.(v).obj <- c

let set_sense t s = t.psense <- s

let set_bounds t v ~lb ~ub =
  check_var t v "set_bounds";
  if ub < lb then
    invalid_arg
      (Printf.sprintf "Lp_problem.set_bounds %d: ub (%g) < lb (%g)" v ub lb);
  t.vars.(v).lb <- lb;
  t.vars.(v).ub <- ub

let tighten_bounds t v ~lb ~ub =
  check_var t v "tighten_bounds";
  let vi = t.vars.(v) in
  let nlb = Float.max vi.lb lb and nub = Float.min vi.ub ub in
  if nub < nlb then false
  else begin
    vi.lb <- nlb;
    vi.ub <- nub;
    true
  end

(* Row-driven interval propagation (feasibility-based bound tightening,
   the classic MIP presolve reduction).  For a row [sum a_i x_i <= b],
   every variable's contribution is bounded below by the other terms'
   interval minima, which caps it from above:

     a_k x_k <= b - min(sum_{i<>k} a_i x_i).

   [Ge] rows propagate through their negation and [Eq] rows through
   both.  Sweeps run in row order until a fixpoint or [max_sweeps], so
   the result is deterministic.  [integral v] lets the caller snap
   tightened bounds of integer variables to the enclosed integer range
   — on 0-1 variables that turns interval reasoning into implication
   propagation (a binary whose lower bound rises above 0 is fixed to
   1), which is where most of the search-tree pruning comes from. *)
let max_sweeps = 16

let propagate_bounds ?(integral = fun _ -> false) t =
  let changed = ref [] in
  (* First-touch undo record per variable, so callers can restore. *)
  let touched = Hashtbl.create 16 in
  let infeasible = ref false in
  let note v =
    if not (Hashtbl.mem touched v) then begin
      Hashtbl.add touched v ();
      changed := (v, t.vars.(v).lb, t.vars.(v).ub) :: !changed
    end
  in
  (* Improvements below this are noise: applying them would churn the
     fixpoint loop without helping the LP. *)
  let min_gain = 1e-7 in
  let progress = ref true in
  (* A bound that crosses the other one by at most 1e-6 is rounding,
     not infeasibility: it is clamped to the other bound, so an [`Ok]
     result never leaves [lb > ub] for a later [set_bounds] to reject. *)
  let apply_lb v nlb =
    let vi = t.vars.(v) in
    let nlb = if integral v then Float.round (Float.ceil (nlb -. 1e-6)) else nlb in
    let crossed = nlb > vi.ub +. 1e-6 in
    let nlb = if crossed then nlb else Float.min nlb vi.ub in
    if nlb > vi.lb +. min_gain then begin
      note v;
      vi.lb <- nlb;
      progress := true;
      if crossed then infeasible := true
    end
  in
  let apply_ub v nub =
    let vi = t.vars.(v) in
    let nub = if integral v then Float.round (Float.floor (nub +. 1e-6)) else nub in
    let crossed = vi.lb > nub +. 1e-6 in
    let nub = if crossed then nub else Float.max nub vi.lb in
    if nub < vi.ub -. min_gain then begin
      note v;
      vi.ub <- nub;
      progress := true;
      if crossed then infeasible := true
    end
  in
  (* One direction: [sum terms <= b]. *)
  let forward terms b =
    (* Interval minimum of the row, tracking how many contributions are
       infinite so a single unbounded term still lets the others
       propagate (inf - inf has no meaning; counting does). *)
    let finite_sum = ref 0. and n_inf = ref 0 in
    List.iter
      (fun (a, v) ->
        let m = if a > 0. then a *. t.vars.(v).lb else a *. t.vars.(v).ub in
        if Float.is_finite m then finite_sum := !finite_sum +. m
        else incr n_inf)
      terms;
    List.iter
      (fun (a, v) ->
        if a <> 0. then begin
          let own = if a > 0. then a *. t.vars.(v).lb else a *. t.vars.(v).ub in
          let rest =
            if !n_inf = 0 then Some (!finite_sum -. own)
            else if !n_inf = 1 && not (Float.is_finite own) then
              Some !finite_sum
            else None
          in
          match rest with
          | None -> ()
          | Some rest ->
            let limit = (b -. rest) /. a in
            if a > 0. then apply_ub v limit else apply_lb v limit
        end)
      terms
  in
  let sweep_row row =
    match row.cmp with
    | Le -> forward row.terms row.rhs
    | Ge -> forward (List.map (fun (a, v) -> (-.a, v)) row.terms) (-.row.rhs)
    | Eq ->
      forward row.terms row.rhs;
      forward (List.map (fun (a, v) -> (-.a, v)) row.terms) (-.row.rhs)
  in
  let sweeps = ref 0 in
  while !progress && not !infeasible && !sweeps < max_sweeps do
    progress := false;
    incr sweeps;
    let r = ref 0 in
    while not !infeasible && !r < t.nrows do
      sweep_row t.rows.(!r);
      incr r
    done
  done;
  if !infeasible then `Infeasible !changed else `Ok !changed

(* Interval of the objective over the current bound box — a valid lower
   bound on any feasible point's objective, used by the branch-and-bound
   to prune propagated nodes without an LP solve. *)
let objective_interval t =
  let lo = ref 0. and hi = ref 0. in
  for v = 0 to t.nvars - 1 do
    let vi = t.vars.(v) in
    if vi.obj > 0. then begin
      lo := !lo +. (vi.obj *. vi.lb);
      hi := !hi +. (vi.obj *. vi.ub)
    end
    else if vi.obj < 0. then begin
      lo := !lo +. (vi.obj *. vi.ub);
      hi := !hi +. (vi.obj *. vi.lb)
    end
  done;
  (!lo, !hi)

let num_vars t = t.nvars
let num_constrs t = t.nrows

let var_name t v = check_var t v "var_name"; t.vars.(v).vname
let var_lb t v = check_var t v "var_lb"; t.vars.(v).lb
let var_ub t v = check_var t v "var_ub"; t.vars.(v).ub
let obj_coeff t v = check_var t v "obj_coeff"; t.vars.(v).obj
let sense t = t.psense
let constraints t = Array.sub t.rows 0 t.nrows

let objective_value t x =
  let acc = ref 0. in
  for v = 0 to t.nvars - 1 do
    acc := !acc +. (t.vars.(v).obj *. x.(v))
  done;
  !acc

let constraint_violation t x =
  let worst = ref 0. in
  let note v = if v > !worst then worst := v in
  for v = 0 to t.nvars - 1 do
    note (t.vars.(v).lb -. x.(v));
    note (x.(v) -. t.vars.(v).ub)
  done;
  for i = 0 to t.nrows - 1 do
    let row = t.rows.(i) in
    let lhs = List.fold_left (fun a (c, v) -> a +. (c *. x.(v))) 0. row.terms in
    match row.cmp with
    | Le -> note (lhs -. row.rhs)
    | Ge -> note (row.rhs -. lhs)
    | Eq -> note (Float.abs (lhs -. row.rhs))
  done;
  !worst
