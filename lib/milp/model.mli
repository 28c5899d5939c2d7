(** Mixed 0–1 integer linear programming model.

    Wraps an {!Fp_lp.Lp_problem} with integrality marks and optional
    {e disjunction pairs} — pairs of 0–1 variables [(x_ij, y_ij)] whose four
    value combinations select one of four disjuncts, exactly the structure
    of the paper's non-overlap constraints (eq. (2)).  Declaring the pair
    lets the branch-and-bound branch four ways on the {e pair} instead of
    twice on each variable, which matches the combinatorial structure and
    roughly halves the search depth. *)

type var = Fp_lp.Lp_problem.var

type cmp = Fp_lp.Lp_problem.cmp = Le | Ge | Eq

type t

val create : ?name:string -> unit -> t

val add_continuous :
  t -> ?lb:float -> ?ub:float -> string -> var
(** Continuous variable, default bounds [0, +inf). *)

val add_binary : t -> string -> var
(** 0–1 integer variable. *)

val add_integer : t -> lb:float -> ub:float -> string -> var
(** General bounded integer variable (branched by floor/ceil splitting). *)

val add_constr : t -> ?name:string -> Expr.t -> cmp -> Expr.t -> unit
(** [add_constr t lhs cmp rhs]: constants migrate to the right-hand side. *)

val add_constr_or_bound : t -> Expr.t -> cmp -> Expr.t -> unit
(** Like {!add_constr}, but a row mentioning a single variable is folded
    into that variable's bounds ({!Fp_lp.Lp_problem.tighten_bounds})
    instead of adding a row — the revised simplex then handles it for
    free instead of carrying it in the basis.  A tightening that would
    empty the interval is kept as an (infeasible) row so solvers report
    [Infeasible] normally.  Use for mechanically generated constraints
    ({!Fp_core.Formulation}); hand-written models usually want the row
    preserved for diagnostics. *)

val declare_pair : t -> var -> var -> unit
(** Mark two binaries as a disjunction pair for 4-way branching.
    @raise Invalid_argument if either variable is not binary. *)

val set_objective :
  t -> [ `Minimize | `Maximize ] -> Expr.t -> unit
(** The expression's constant term is remembered and added to reported
    objective values. *)

val problem : t -> Fp_lp.Lp_problem.t
(** The underlying LP (integrality relaxed).  The branch-and-bound mutates
    its bounds during search but always restores them. *)

val integer_vars : t -> var list
val pairs : t -> (var * var) list
val is_integer_var : t -> var -> bool

val is_binary : t -> var -> bool
(** Integer variable with bounds exactly [0, 1]. *)

val objective_constant : t -> float

(** {2 Read-only introspection}

    Static analyzers ({!Fp_check.Lint}) and serializers walk a model
    without mutating it.  Variables are visited in handle order (the
    declaration order), constraints in insertion order. *)

val iter_vars : t -> (var -> unit) -> unit
(** [iter_vars t f] applies [f] to every variable handle, continuous and
    integer alike, in declaration order. *)

val fold_vars : t -> init:'a -> f:('a -> var -> 'a) -> 'a
(** [fold_vars t ~init ~f] folds [f] over every variable handle in
    declaration order. *)

val iter_constrs : t -> (Fp_lp.Lp_problem.constr -> unit) -> unit
(** [iter_constrs t f] applies [f] to every constraint row in insertion
    order.  Rows are exposed as {!Fp_lp.Lp_problem.constr} records —
    normalized [terms cmp rhs] with constants already migrated to the
    right-hand side and duplicate variable mentions summed. *)

val fold_constrs :
  t -> init:'a -> f:('a -> Fp_lp.Lp_problem.constr -> 'a) -> 'a
(** [fold_constrs t ~init ~f] folds [f] over every constraint row in
    insertion order. *)

val var_bounds : t -> var -> float * float
(** [(lb, ub)] of a variable; [lb] may be [neg_infinity], [ub]
    [infinity]. *)

val objective_terms : t -> (float * var) list
(** Nonzero objective coefficients in declaration order (the constant
    term is {!objective_constant}). *)

val sense : t -> [ `Minimize | `Maximize ]
val num_vars : t -> int
val num_integer_vars : t -> int
val num_constrs : t -> int
val var_name : t -> var -> string

val integral : ?tol:float -> t -> float array -> bool
(** Do all integer variables take integral values at this point? *)

val round_integers : t -> float array -> float array
(** Copy of the point with every integer variable rounded to the nearest
    integer (no feasibility implication). *)
