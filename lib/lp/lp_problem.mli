(** Linear-program model builder.

    A thin, mutable builder for LPs of the shape

    {v min / max  c.x   s.t.   lb_i <= row_i . x  (cmp)  rhs_i,
                               lo_j <= x_j <= up_j v}

    Variables are identified by the integer handle returned from
    {!add_var}; handles are dense and index directly into the solution
    vector.  The builder is consumed by {!Revised.solve}. *)

type var = int

type sense = Minimize | Maximize

type cmp = Le | Ge | Eq

type term = float * var
(** A single [coefficient * variable] product. *)

type constr = {
  cname : string;
  terms : term list;
  cmp : cmp;
  rhs : float;
}

type t

val create : ?name:string -> unit -> t

val copy : t -> t
(** Independent copy: mutating the copy's bounds, objective, or rows
    never affects the original. *)

val name : t -> string

val add_var :
  t -> ?lb:float -> ?ub:float -> ?obj:float -> string -> var
(** [add_var t name] registers a variable and returns its handle.
    Default bounds are [0, +inf); [obj] is the objective coefficient
    (default [0.]).  [lb] may be [neg_infinity] and [ub] [infinity]. *)

val add_constr : t -> ?name:string -> term list -> cmp -> float -> unit
(** Append the constraint [terms cmp rhs].  Terms mentioning the same
    variable repeatedly are summed.  @raise Invalid_argument on an unknown
    variable handle. *)

val update_constr : t -> int -> term list -> cmp -> float -> unit
(** Rewrite the row at index [i] in place, keeping its name.  Used by the
    formulation layer to re-tighten per-pair big-M coefficients after
    variable bounds have shrunk.  @raise Invalid_argument on an unknown
    row or variable handle. *)

val set_obj_coeff : t -> var -> float -> unit
val set_sense : t -> sense -> unit
val set_bounds : t -> var -> lb:float -> ub:float -> unit

val tighten_bounds : t -> var -> lb:float -> ub:float -> bool
(** [tighten_bounds t v ~lb ~ub] intersects [v]'s interval with
    [[lb, ub]].  Returns [false] — leaving the variable untouched — when
    the intersection is empty, so callers can fall back to an explicit
    (infeasible) constraint row instead of raising. *)

val propagate_bounds :
  ?integral:(var -> bool) ->
  t ->
  [ `Ok of (var * float * float) list
  | `Infeasible of (var * float * float) list ]
(** Row-driven interval propagation (feasibility-based bound
    tightening): sweep every row in insertion order, shrinking each
    variable's interval to what the other terms' intervals leave
    possible, until a fixpoint or 16 sweeps.
    [integral v] (default: nobody) marks variables whose tightened
    bounds may be snapped to the enclosed integer range — on 0-1
    variables that turns the interval sweep into implication
    propagation.  Deterministic: same bounds in, same bounds out.

    Returns the first-touch undo list [(v, old_lb, old_ub)] of every
    changed variable — apply it with {!set_bounds} to restore —
    tagged [`Infeasible] when some interval emptied (beyond tolerance),
    in which case no feasible point existed under the entry bounds.
    Bounds are left in their tightened state either way; restoring is
    the caller's choice.  They cross only under [`Infeasible]: a
    crossing within tolerance (1e-6) is clamped to the other bound. *)

val objective_interval : t -> float * float
(** Interval of the objective function over the current bound box —
    [(lo, hi)] such that every point within bounds has objective in the
    interval.  A valid objective bound for pruning without a solve. *)

val num_vars : t -> int
val num_constrs : t -> int

val var_name : t -> var -> string
val var_lb : t -> var -> float
val var_ub : t -> var -> float
val obj_coeff : t -> var -> float
val sense : t -> sense
val constraints : t -> constr array
(** Snapshot of the current rows, in insertion order. *)

val objective_value : t -> float array -> float
(** Evaluate the objective at a point (no feasibility check). *)

val constraint_violation : t -> float array -> float
(** Maximum violation of any row or bound at a point; [0.] when feasible.
    Used by tests and by the MILP layer to sanity-check solutions. *)
