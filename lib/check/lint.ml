module Model = Fp_milp.Model
module Lp_problem = Fp_lp.Lp_problem
module Revised = Fp_lp.Revised
module D = Diagnostic

(* Big-M thresholds, documented at [model] in lint.mli.  [margin] only
   matters when the exact LP stops at its iteration limit: interval
   arithmetic overestimates correlated spans, and the margin absorbs
   that. *)
let margin = 0.25
let loose_factor = 1e3
let pair_loose_factor = 64.

(* ------------------------------------------------------------------ *)
(* Interval arithmetic over variable bounds                             *)
(* ------------------------------------------------------------------ *)

let term_sup lb ub (c, v) = if c > 0. then c *. ub.(v) else c *. lb.(v)
let term_inf lb ub (c, v) = if c > 0. then c *. lb.(v) else c *. ub.(v)

let sum_sup lb ub terms =
  List.fold_left (fun a t -> a +. term_sup lb ub t) 0. terms

let sum_inf lb ub terms =
  List.fold_left (fun a t -> a +. term_inf lb ub t) 0. terms

let nonzero terms = List.filter (fun (c, _) -> c <> 0.) terms

(* One row viewed as [terms <= rhs]; Ge rows are negated, Eq rows yield
   both directions. *)
let le_views (row : Lp_problem.constr) =
  let neg = List.map (fun (c, v) -> (-.c, v)) in
  match row.Lp_problem.cmp with
  | Lp_problem.Le -> [ (row.Lp_problem.terms, row.Lp_problem.rhs) ]
  | Lp_problem.Ge -> [ (neg row.Lp_problem.terms, -.row.Lp_problem.rhs) ]
  | Lp_problem.Eq ->
    [ (row.Lp_problem.terms, row.Lp_problem.rhs);
      (neg row.Lp_problem.terms, -.row.Lp_problem.rhs) ]

(* Bound tightening: propagate the rows' implied bounds into copies of the
   variable bounds, so the big-M analysis sees e.g. that a row
   [x + w <= W] elsewhere caps [x] at [W - w_min].  Rows containing a
   slack binary are excluded: an undersized big-M row [x - 2 b <= 5]
   implies the perfectly valid unconditional bound [x <= 7], and using it
   would hide exactly the clipping the analysis is looking for.  A few
   passes suffice for the formulation's shallow constraint graph; never
   tightens past the opposite bound. *)
let tighten_bounds ~is_slack rows lb ub =
  let improved tol fresh old = fresh < old -. tol in
  for _pass = 1 to 3 do
    Array.iter
      (fun (row : Lp_problem.constr) ->
        if not (List.exists (fun (_, v) -> is_slack v) row.Lp_problem.terms)
        then
        List.iter
          (fun (terms, rhs) ->
            let terms = nonzero terms in
            let n_inf = ref 0 and finite_sum = ref 0. in
            List.iter
              (fun t ->
                let i = term_inf lb ub t in
                if i = neg_infinity then incr n_inf
                else finite_sum := !finite_sum +. i)
              terms;
            List.iter
              (fun ((c, v) as t) ->
                let ti = term_inf lb ub t in
                let min_rest =
                  if ti = neg_infinity then
                    if !n_inf > 1 then neg_infinity else !finite_sum
                  else if !n_inf > 0 then neg_infinity
                  else !finite_sum -. ti
                in
                if min_rest > neg_infinity then begin
                  let bound = (rhs -. min_rest) /. c in
                  let tol = 1e-9 *. Float.max 1. (Float.abs bound) in
                  if c > 0. then begin
                    if improved tol bound ub.(v) && bound >= lb.(v) then
                      ub.(v) <- bound
                  end
                  else if improved tol (-.bound) (-.lb.(v)) && bound <= ub.(v)
                  then lb.(v) <- bound
                end)
              terms)
          (le_views row))
      rows
  done

(* ------------------------------------------------------------------ *)
(* Per-variable checks: ML001 bounds, ML002 unused, ML003 unbounded obj *)
(* ------------------------------------------------------------------ *)

let var_checks m rows =
  let prob = Model.problem m in
  let n = Model.num_vars m in
  let used = Array.make n false in
  Array.iter
    (fun row ->
      List.iter
        (fun (c, v) -> if c <> 0. then used.(v) <- true)
        row.Lp_problem.terms)
    rows;
  let minimize = Model.sense m = `Minimize in
  Model.fold_vars m ~init:[] ~f:(fun acc v ->
      let name = Model.var_name m v in
      let subject = Printf.sprintf "var %s" name in
      let lb, ub = Model.var_bounds m v in
      let obj = Lp_problem.obj_coeff prob v in
      let acc =
        if lb > ub then
          D.make ~code:"ML001" ~severity:D.Error ~subject
            "infeasible bounds: lb %g > ub %g (the model cannot have any \
             solution)"
            lb ub
          :: acc
        else acc
      in
      let acc =
        if (not used.(v)) && lb <> ub then
          D.make ~code:"ML002" ~severity:D.Warning ~subject
            "appears in no constraint%s"
            (if obj <> 0. then
               " but carries an objective coefficient (it will sit at its \
                cheapest bound)"
             else " and has no objective coefficient (dead variable)")
          :: acc
        else acc
      in
      let acc =
        if (not (Model.is_integer_var m v)) && obj <> 0. then
          let runaway_low = obj > 0. = minimize in
          let unbounded =
            if runaway_low then lb = neg_infinity else ub = infinity
          in
          if unbounded then
            D.make ~code:"ML003" ~severity:D.Warning ~subject
              "continuous variable with objective coefficient %g is \
               unbounded in its improving direction (%s); only constraints \
               can keep the LP bounded"
              obj
              (if runaway_low then "lb = -inf" else "ub = +inf")
            :: acc
          else acc
        else acc
      in
      acc)

(* ------------------------------------------------------------------ *)
(* Per-row checks: ML004 infeasible, ML005 vacuous, ML007 range         *)
(* ------------------------------------------------------------------ *)

let row_subject (row : Lp_problem.constr) =
  Printf.sprintf "row %s" row.Lp_problem.cname

let row_checks m rows lb ub =
  ignore m;
  Array.fold_left
    (fun acc row ->
      let subject = row_subject row in
      let terms = nonzero row.Lp_problem.terms in
      let rhs = row.Lp_problem.rhs in
      let tol = 1e-6 *. Float.max 1. (Float.abs rhs) in
      let sup = sum_sup lb ub terms and inf = sum_inf lb ub terms in
      let infeasible, vacuous =
        match row.Lp_problem.cmp with
        | Lp_problem.Le -> (inf > rhs +. tol, sup <= rhs +. tol)
        | Lp_problem.Ge -> (sup < rhs -. tol, inf >= rhs -. tol)
        | Lp_problem.Eq ->
          ( inf > rhs +. tol || sup < rhs -. tol,
            Float.abs (sup -. rhs) <= tol && Float.abs (inf -. rhs) <= tol )
      in
      let acc =
        if infeasible then
          D.make ~code:"ML004" ~severity:D.Error ~subject
            "trivially infeasible over the variable bounds (lhs range \
             [%g, %g] vs rhs %g)"
            inf sup rhs
          :: acc
        else if vacuous then
          D.make ~code:"ML005" ~severity:D.Info ~subject
            "vacuous: satisfied by every point within the variable bounds \
             (lhs range [%g, %g] vs rhs %g)"
            inf sup rhs
          :: acc
        else acc
      in
      match terms with
      | [] -> acc
      | _ ->
        let cmax =
          List.fold_left (fun a (c, _) -> Float.max a (Float.abs c)) 0. terms
        and cmin =
          List.fold_left
            (fun a (c, _) -> Float.min a (Float.abs c))
            infinity terms
        in
        if cmin > 0. && cmax /. cmin > 1e8 then
          D.make ~code:"ML007" ~severity:D.Warning ~subject
            "coefficient dynamic range %.1e (|c| in [%g, %g]) invites \
             numerical trouble in the simplex"
            (cmax /. cmin) cmin cmax
          :: acc
        else acc)
    [] rows

(* ------------------------------------------------------------------ *)
(* ML006: duplicate / parallel rows                                     *)
(* ------------------------------------------------------------------ *)

(* Canonical key: Ge negated into Le, terms sorted by variable and scaled
   by the leading |coefficient| (Eq rows additionally sign-normalized, as
   they may be negated freely).  Rows sharing a key have proportional
   left-hand sides, so one of them is redundant. *)
let canonical_key (row : Lp_problem.constr) =
  match nonzero row.Lp_problem.terms with
  | [] -> None
  | terms ->
    let cmp, terms =
      match row.Lp_problem.cmp with
      | Lp_problem.Ge ->
        (Lp_problem.Le, List.map (fun (c, v) -> (-.c, v)) terms)
      | c -> (c, terms)
    in
    let terms = List.sort (fun (_, a) (_, b) -> Int.compare a b) terms in
    let c0 = fst (List.hd terms) in
    let scale =
      match cmp with
      | Lp_problem.Eq -> 1. /. c0 (* sign-normalize: leading coeff +1 *)
      | _ -> 1. /. Float.abs c0
    in
    let tag = match cmp with Lp_problem.Eq -> "=" | _ -> "<=" in
    Some
      (String.concat ";"
         (tag
         :: List.map
              (fun (c, v) -> Printf.sprintf "%d:%.12g" v (c *. scale))
              terms))

let duplicate_checks rows =
  let seen = Hashtbl.create 64 in
  Array.fold_left
    (fun acc row ->
      match canonical_key row with
      | None -> acc
      | Some key -> (
        match Hashtbl.find_opt seen key with
        | None ->
          Hashtbl.add seen key row;
          acc
        | Some (first : Lp_problem.constr) ->
          let identical =
            Float.abs (first.Lp_problem.rhs -. row.Lp_problem.rhs)
            <= 1e-9 *. Float.max 1. (Float.abs first.Lp_problem.rhs)
          in
          D.make ~code:"ML006" ~severity:D.Warning ~subject:(row_subject row)
            "%s row %s (%s)"
            (if identical then "exact duplicate of" else "parallel to")
            first.Lp_problem.cname
            (if identical then "drop one"
             else "same left-hand side, different rhs: the looser row is \
                   redundant")
          :: acc))
    [] rows

(* ------------------------------------------------------------------ *)
(* ML008 / ML009: big-M sizing                                          *)
(* ------------------------------------------------------------------ *)

(* Exact refinement of an interval-suspicious row: maximize the row's
   left-hand side over every OTHER row of the model, with the row's slack
   binaries pinned to their deactivating values (and integrality
   relaxed).  The LP optimum is a valid upper bound on what the big-M
   must absorb, and — unlike interval arithmetic — it sees correlations
   such as [x_i + w_i <= W], so correctly sized constants are not
   flagged. *)
let lp_sup m ~skip_row ~pinned ~lbt ~ubt terms =
  let prob = Model.problem m in
  let lp = Lp_problem.create ~name:"bigm_probe" () in
  let n = Model.num_vars m in
  for v = 0 to n - 1 do
    let lb, ub =
      if List.mem_assq v pinned then
        let x = List.assq v pinned in
        (x, x)
      else (lbt.(v), ubt.(v))
    in
    ignore (Lp_problem.add_var lp ~lb ~ub (Lp_problem.var_name prob v))
  done;
  Array.iteri
    (fun i (row : Lp_problem.constr) ->
      if i <> skip_row then
        Lp_problem.add_constr lp ~name:row.Lp_problem.cname
          row.Lp_problem.terms row.Lp_problem.cmp row.Lp_problem.rhs)
    (Lp_problem.constraints prob);
  Lp_problem.set_sense lp Lp_problem.Maximize;
  List.iter (fun (c, v) -> Lp_problem.set_obj_coeff lp v c) terms;
  fst (Revised.solve lp)

let bigm_checks m ~is_slack ~pair_of rows lbt ubt =
  let acc = ref [] in
  let emit d = acc := d :: !acc in
  (* Rows whose switches all belong to one declared disjunction pair are
     judged per pair, not per row: every direction of a Choice4 pair is
     collected here and the pair is flagged once — and only when {e all}
     its directions are over-wide, since one naturally loose direction
     (a short module against a tall strip) is expected even under exact
     per-pair coefficients. *)
  let pair_rows : (Model.var * Model.var, (string * float) list ref) Hashtbl.t =
    Hashtbl.create 16
  in
  Array.iteri
    (fun ri (row : Lp_problem.constr) ->
      if row.Lp_problem.cmp <> Lp_problem.Eq then
        List.iter
          (fun (terms, rhs) ->
            let terms = nonzero terms in
            let slack_terms, rest =
              List.partition (fun (_, v) -> is_slack v) terms
            in
            (* [avail]: how much the deactivating assignment (negative-
               coefficient switches at 1) subtracts from the lhs.
               Positive-coefficient switches relax nothing and are folded
               into [need] at their worst case (value 1). *)
            let avail =
              List.fold_left
                (fun a (c, _) -> if c < 0. then a -. c else a)
                0. slack_terms
            in
            if slack_terms <> [] && rest <> [] && avail > 0. then begin
              let owning_pair =
                match List.filter_map (fun (_, v) -> pair_of v) slack_terms with
                | [] -> None
                | p :: ps -> if List.for_all (( = ) p) ps then Some p else None
              in
              let worst_pos_slack =
                List.fold_left
                  (fun a (c, _) -> if c > 0. then a +. c else a)
                  0. slack_terms
              in
              let sup_rest = sum_sup lbt ubt rest in
              let need = sup_rest +. worst_pos_slack -. rhs in
              let tol = 1e-6 *. Float.max 1. (Float.max (Float.abs rhs) avail) in
              let subject =
                match owning_pair with
                | Some (a, b) ->
                  Printf.sprintf "%s (pair %s/%s)" (row_subject row)
                    (Model.var_name m a) (Model.var_name m b)
                | None -> row_subject row
              in
              (match owning_pair with
              | Some p when need > tol ->
                let entries =
                  match Hashtbl.find_opt pair_rows p with
                  | Some r -> r
                  | None ->
                    let r = ref [] in
                    Hashtbl.add pair_rows p r;
                    r
                in
                entries := (row.Lp_problem.cname, avail /. need) :: !entries
              | _ -> ());
              if
                need > tol && owning_pair = None
                && avail > loose_factor *. need
              then
                emit
                  (D.make ~code:"ML009" ~severity:D.Warning ~subject
                     "big-M deactivation capacity %g is %.0fx the required \
                      span %g; oversize constants degrade LP conditioning \
                      and relaxation strength"
                     avail (avail /. need) need)
              else if need > tol && avail +. tol < need then begin
                (* Interval-suspicious: the bounds alone cannot prove the
                   big-M sufficient.  Refine with the exact LP. *)
                let refined =
                  let pinned =
                    List.filter_map
                      (fun (c, v) -> if c < 0. then Some (v, 1.) else None)
                      slack_terms
                  in
                  match lp_sup m ~skip_row:ri ~pinned ~lbt ~ubt terms with
                  | Revised.Optimal { obj; _ } -> Some (`Sup obj)
                  | Revised.Infeasible -> Some `Unreachable
                  | Revised.Unbounded -> Some (`Sup infinity)
                  | Revised.Iteration_limit -> None
                in
                match refined with
                | Some `Unreachable -> () (* deactivation never arises *)
                | Some (`Sup sup) ->
                  if sup > rhs +. tol then
                    emit
                      (D.make ~code:"ML008" ~severity:D.Error ~subject
                         "big-M too small: with its switches deactivated \
                          the row still clips the feasible region by %g \
                          (LP-verified; deactivation capacity %g)"
                         (sup -. rhs) avail)
                | None ->
                  let deficit = need -. avail in
                  if deficit > margin *. need then
                    emit
                      (D.make ~code:"ML008" ~severity:D.Error ~subject
                         "big-M too small: deactivation capacity %g covers \
                          only %.0f%% of the required span %g (interval \
                          estimate)"
                         avail
                         (100. *. avail /. need)
                         need)
                  else
                    emit
                      (D.make ~code:"ML008" ~severity:D.Warning ~subject
                         "big-M possibly too small: capacity %g vs \
                          interval-estimated span %g (within the %.0f%% \
                          correlation margin; the exact LP hit its \
                          iteration limit)"
                         avail need
                         (100. *. margin))
              end
            end)
          (le_views row))
    rows;
  (* Per-pair over-wide verdicts, deterministically ordered by pair. *)
  Hashtbl.fold (fun p entries l -> (p, !entries) :: l) pair_rows []
  |> List.sort compare
  |> List.iter (fun ((a, b), entries) ->
         let over = List.for_all (fun (_, r) -> r > pair_loose_factor) in
         if entries <> [] && over entries then begin
           let worst_row, worst =
             List.fold_left
               (fun (wn, wr) (n, r) -> if r > wr then (n, r) else (wn, wr))
               (List.hd entries) (List.tl entries)
           in
           emit
             (D.make ~code:"ML009" ~severity:D.Warning
                ~subject:
                  (Printf.sprintf "pair %s/%s" (Model.var_name m a)
                     (Model.var_name m b))
                "all %d big-M rows of this disjunction pair are over-wide \
                 (worst %.0fx the required span, row %s); per-pair \
                 coefficients from current bounds would strengthen the \
                 relaxation"
                (List.length entries) worst worst_row)
         end);
  !acc

(* ------------------------------------------------------------------ *)
(* ML010: binaries outside every declared disjunction pair              *)
(* ------------------------------------------------------------------ *)

let pair_coverage m =
  let paired = Hashtbl.create 16 in
  List.iter
    (fun (a, b) ->
      Hashtbl.replace paired a ();
      Hashtbl.replace paired b ())
    (Model.pairs m);
  let unpaired =
    List.filter
      (fun v -> Model.is_binary m v && not (Hashtbl.mem paired v))
      (Model.integer_vars m)
  in
  match unpaired with
  | [] -> []
  | _ ->
    let shown = List.filteri (fun i _ -> i < 4) unpaired in
    [ D.make ~code:"ML010" ~severity:D.Info ~subject:"model"
        "%d binar%s not covered by any declare_pair (2-way instead of \
         4-way branching): %s%s"
        (List.length unpaired)
        (if List.length unpaired = 1 then "y is" else "ies are")
        (String.concat ", " (List.map (Model.var_name m) shown))
        (if List.length unpaired > List.length shown then ", ..." else "") ]

(* ------------------------------------------------------------------ *)

let model ?slack_binaries m =
  let prob = Model.problem m in
  let rows = Lp_problem.constraints prob in
  let n = Model.num_vars m in
  let lb = Array.init n (Lp_problem.var_lb prob)
  and ub = Array.init n (Lp_problem.var_ub prob) in
  let base =
    var_checks m rows
    @ row_checks m rows lb ub
    @ duplicate_checks rows
    @ pair_coverage m
  in
  (* Big-M analysis on tightened copies; skip it entirely if the original
     bounds are already infeasible (garbage in, garbage out). *)
  let bounds_ok = Array.for_all2 (fun l u -> l <= u) lb ub in
  let bigm =
    if not bounds_ok then []
    else begin
      let slack_set = Hashtbl.create 16 in
      List.iter
        (fun v -> Hashtbl.replace slack_set v ())
        (match slack_binaries with
        | Some l -> l
        | None -> List.concat_map (fun (a, b) -> [ a; b ]) (Model.pairs m));
      let is_slack v = Hashtbl.mem slack_set v in
      let pair_owner = Hashtbl.create 16 in
      List.iter
        (fun (a, b) ->
          Hashtbl.replace pair_owner a (a, b);
          Hashtbl.replace pair_owner b (a, b))
        (Model.pairs m);
      let pair_of v = Hashtbl.find_opt pair_owner v in
      let lbt = Array.copy lb and ubt = Array.copy ub in
      tighten_bounds ~is_slack rows lbt ubt;
      if Array.for_all2 (fun l u -> l <= u) lbt ubt then
        bigm_checks m ~is_slack ~pair_of rows lbt ubt
      else []
    end
  in
  List.stable_sort D.compare (base @ bigm)

(* ------------------------------------------------------------------ *)
(* Formulation-level structural lint                                    *)
(* ------------------------------------------------------------------ *)

module F = Fp_core.Formulation
module Rect = Fp_geometry.Rect
module Tol = Fp_geometry.Tol

let sep_binaries (b : F.built) =
  List.concat_map
    (fun (_, _, sep) ->
      match sep with
      | F.Fixed_rel _ -> []
      | F.Choice2 { bin; _ } -> [ bin ]
      | F.Choice4 { bx; by } -> [ bx; by ])
    b.F.seps

let structural (b : F.built) =
  let n = Array.length b.F.items in
  let item_name i = b.F.items.(i).F.def.Fp_netlist.Module_def.name in
  let covered = Hashtbl.create 64 in
  List.iter
    (fun (i, other, _) ->
      match other with
      | F.Other_item j ->
        Hashtbl.replace covered (`Item (Int.min i j, Int.max i j)) ()
      | F.Other_fixed fi -> Hashtbl.replace covered (`Fixed (i, fi)) ())
    b.F.seps;
  let acc = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if not (Hashtbl.mem covered (`Item (i, j))) then
        acc :=
          D.make ~code:"FL001" ~severity:D.Error
            ~subject:(Printf.sprintf "items %s/%s" (item_name i) (item_name j))
            "no non-overlap disjunction between items %d and %d: the MILP \
             can place them on top of each other"
            i j
          :: !acc
    done
  done;
  List.iteri
    (fun fi r ->
      for i = 0 to n - 1 do
        if not (Hashtbl.mem covered (`Fixed (i, fi))) then
          acc :=
            D.make ~code:"FL002" ~severity:D.Error
              ~subject:(Printf.sprintf "item %s/fixed %d" (item_name i) fi)
              "no separation between item %d and fixed rectangle %d: the \
               MILP can place the item inside the partial floorplan"
              i fi
            :: !acc
      done;
      if
        Tol.lt r.Rect.x 0.
        || Tol.lt b.F.chip_width (Rect.x_max r)
        || Tol.lt r.Rect.y 0.
        || Tol.lt b.F.height_bound (Rect.y_max r)
      then
        acc :=
          D.make ~code:"FL003" ~severity:D.Error
            ~subject:(Printf.sprintf "fixed %d" fi)
            "fixed rectangle %s exceeds the chip strip [0, %g] x [0, %g]"
            (Rect.to_string r) b.F.chip_width b.F.height_bound
          :: !acc)
    b.F.fixed;
  !acc

let formulation (b : F.built) =
  List.stable_sort D.compare
    (structural b @ model ~slack_binaries:(sep_binaries b) b.F.model)
