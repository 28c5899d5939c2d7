(** MILP formulation of one floorplanning (sub)problem — paper section 2.

    Builds the 0–1 mixed integer program for placing a group of {e items}
    (modules, possibly inflated into routing envelopes) into a chip strip
    of fixed width, around a set of {e fixed} rectangles (the covering
    rectangles of the partial floorplan).  Implements:

    - eq. (2)/(3): pairwise non-overlap via big-M disjunctions controlled
      by a 0–1 pair [(x_ij, y_ij)], chip bounds, minimized height [y];
    - eq. (4)/(5): optional 90° rotation of rigid modules via a 0–1 [z_i];
    - eq. (6)–(8): flexible modules with fixed area and linearized height
      [h_i = h_i(w_max) + Λ_i Δw_i] — tangent (the paper's Taylor
      expansion) or secant (conservative: the linearized height dominates
      the true hyperbola, so floorplans are overlap-free without a
      post-adjustment);
    - optional wirelength objective term: per-net half-perimeter bounding
      boxes over generalized pins (paper's "Chip Area + Wire Length"
      objective of Table 2);
    - a valid area cut [y >= occupied_area / W] that gives the LP
      relaxation a meaningful bound (big-M disjunctions alone relax to
      almost nothing);
    - geometric presolve of item-vs-fixed relations: relations that are
      impossible given the chip boundaries lose their integer variables
      (one relation left → no binaries at all, two → a single binary),
      which is what keeps subproblem integer counts low in practice.

    With one allowed relation per item pair ([build ~relations]) the
    same builder emits section 2.5's known-topology LP ({!Topology}). *)

module Rect = Fp_geometry.Rect
module Model = Fp_milp.Model
module Expr = Fp_milp.Expr

type linearization = Tangent | Secant

type mode = Basic | Tight
(** Formulation-strengthening mode.

    - [Basic]: the paper's formulation verbatim — every big-M coefficient
      is the direction cap (chip width / height bound).  Bit-identical to
      the historical behavior; the default.
    - [Tight]: the same rows with per-pair, per-direction big-M derived
      from variable bounds ({!retighten}), after one interval bound
      propagation pass over the root problem.  {!Augment} adds the
      incumbent clamp (under a height-only objective the height bound
      drops to the warm packing's) and bound propagation at every
      branch-and-bound node ([Branch_bound.params.propagate]).  It adds
      no rows. *)

val mode_to_string : mode -> string
(** ["basic" | "tight"] — CLI / bench / digest spelling. *)

type objective =
  | Min_height
  | Min_height_plus_wire of float
      (** [lambda]: minimize [y + lambda * total HPWL]. *)

type item = {
  def : Fp_netlist.Module_def.t;
  margins : float * float * float * float;
      (** (left, right, bottom, top) envelope margins; all zero when
          envelopes are off. *)
}

val plain_item : Fp_netlist.Module_def.t -> item
(** Item with zero margins. *)

type rel = Rel_left | Rel_right | Rel_below | Rel_above
(** Position of item [i] relative to the other object [j]. *)

type sep =
  | Fixed_rel of rel
  | Choice2 of { bin : Model.var; if0 : rel; if1 : rel }
  | Choice4 of { bx : Model.var; by : Model.var }

type other = Other_item of int | Other_fixed of int

type flex_line = {
  w_max_env : float;   (** envelope width at [dw = 0] *)
  h_base_env : float;  (** envelope height at [dw = 0] *)
  slope : float;       (** Λ_i of eq. (7), on the envelope *)
  dw_ub : float;       (** the whole window, [w_max - w_min] *)
}
(** Eq. (6)–(8) for one flexible item: giving up [dw] in [[0, dw_ub]]
    of its widest shape, its envelope is
    [(w_max_env - dw) x (h_base_env + slope * dw)] ({!flex_env}). *)

val flex_line : linearization:linearization -> item -> flex_line option
(** The item's envelope line; [None] for a rigid item.  {!build}, the
    area cut, the warm start's shapes and the augmentation height
    bound all read the line from here.  A secant over a window of at
    most [Tol.eps] has slope 0. *)

val flex_env : flex_line -> float -> float * float
(** [(w, h)] of the envelope at [dw]. *)

type flex_info = { dw_var : Model.var; line : flex_line }
(** A flexible item in a built model: its [dw] variable, bounded by
    [line.dw_ub], and its line. *)

type net_info = {
  net : Fp_netlist.Net.t;
  lx : Model.var;
  rx : Model.var;
  ly : Model.var;
  ry : Model.var;
  pin_exprs : (Expr.t * Expr.t) list;
}

type sep_row = {
  sr_row : int;         (** row index in the underlying {!Fp_lp.Lp_problem} *)
  sr_lhs : Expr.t;      (** extent of the pushed object *)
  sr_rhs : Expr.t;      (** position of the blocking object *)
  sr_slack : Expr.t;    (** 0 when the relation is selected, >= 1 otherwise *)
  sr_cap : float;       (** direction cap: chip width or height bound *)
  mutable sr_m : float; (** current big-M coefficient; only ever shrinks *)
}
(** One recorded big-M separation row, [sr_lhs <= sr_rhs + sr_m * sr_slack],
    re-tightenable in place via {!retighten}.  Recorded only by the
    [Tight] mode, and only when a real row was emitted (an M
    that collapses to 0 makes the relation unconditional and the row may
    fold into a variable bound instead). *)

type built = {
  model : Model.t;
  chip_width : float;
  height_bound : float;
  items : item array;
  x : Model.var array;
  y : Model.var array;
  rot : Model.var option array;
  flex : flex_info option array;
  w_expr : Expr.t array;  (** envelope width of each item *)
  h_expr : Expr.t array;  (** envelope height of each item *)
  height : Model.var;     (** chip height variable [y] *)
  seps : (int * other * sep) list;
  net_infos : net_info list;
  fixed : Rect.t list;
  linearization : linearization;
  formulation : mode;
  sep_rows : sep_row list;
      (** recorded big-M rows ([Tight] mode; empty in [Basic]) *)
}

exception No_feasible_relation of string
(** The model would have no feasible point: for the pair with this tag
    (["i0_i2"] for two items, ["i0_f1"] for an item and a fixed
    rectangle) neither side by side nor stacked fits the chip width and
    the height bound.  A step capped below what its group needs hits
    this; {!Augment} treats it as an infeasible step. *)

val build :
  chip_width:float ->
  height_bound:float ->
  ?objective:objective ->
  ?allow_rotation:bool ->
  ?linearization:linearization ->
  ?fixed:Rect.t list ->
  ?formulation:mode ->
  ?wire_context:Fp_netlist.Netlist.t * Placement.t * int array ->
  ?net_length_bound:(Fp_netlist.Net.t -> float option) ->
  ?relations:(int -> int -> rel list) ->
  item list ->
  built
(** [build ~chip_width ~height_bound items] assembles the model.

    [formulation] (default [Basic]) selects the strengthening mode; see
    {!mode}.  [Basic] emits exactly the historical model.

    [wire_context = (netlist, partial_placement, module_ids)] supplies
    what the wirelength term needs: [module_ids.(k)] is the netlist id of
    item [k]; nets touching at least one item and one other placed-or-item
    pin contribute a bounding-box term.  Required when [objective] is
    [Min_height_plus_wire].

    [net_length_bound] implements the paper's "additional constraints on
    the length of critical nets" (section 2.2): when it returns [Some b]
    for a captured net, the constraint [HPWL(net) <= b] is added — the
    MILP then refuses placements that stretch that net, independent of
    the objective.  Requires [wire_context] to capture the nets.

    [relations i j] (for items [i < j]; default all four, in the order
    left, right, below, above) lists the relations of item [i] to item
    [j] the pair may use.  Those that cannot fit the strip width or
    [height_bound] are dropped, and what is left sets the encoding: one
    relation is a plain row with no binary, two share one binary, more
    take the paper's pair [(x_ij, y_ij)].  With one relation per pair
    and [allow_rotation = false] the model is the pure LP of section 2.5
    ({!Topology}).

    @raise Invalid_argument if an item cannot fit the strip width, if
    [height_bound] is too small for any item, or if a wire objective is
    requested without [wire_context].
    @raise No_feasible_relation if some pair has no relation that fits
    the strip and [height_bound]. *)

val retighten : built -> int
(** Recompute every recorded per-pair big-M from the problem's current
    variable bounds and rewrite the rows in place
    ({!Fp_lp.Lp_problem.update_constr}).  Monotone: a coefficient only
    ever shrinks ([min] with its previous value), so repeated calls are
    sound as long as bounds have only tightened since emission.  Returns
    the number of rows that changed.  [build] calls it once at the end
    in [Tight] mode; exposed for the bound-tightening tests and
    for callers that shrink bounds after building. *)

val item_min_width : ?allow_rotation:bool -> item -> float
(** Smallest feasible envelope width over rotation / flexing. *)

val item_min_height : ?allow_rotation:bool -> item -> float

val item_min_reserved_area : linearization:linearization -> item -> float
(** Smallest area the item's reserved envelope can take over rotation /
    flexing — a term of the valid cut [W * y >= occupied area]. *)

val rel_of_geometry :
  Rect.t -> Rect.t -> rel option
(** Relation of rectangle [a] to rectangle [b] if some non-overlap
    disjunct is satisfied (preference order: left, right, below, above);
    [None] when they overlap. *)

val assign_warm :
  built -> (int -> Rect.t) -> rotated:(int -> bool) -> float array
(** Build a full variable assignment from a concrete envelope placement
    of the items: [f k] is the placed envelope of item [k]; [rotated k]
    whether a rigid item was rotated.  Fills positions, rotation and
    flex variables, all separation binaries, net bounding boxes, and the
    chip height.  The result is suitable as a warm start for
    {!Fp_milp.Branch_bound.solve}.
    @raise Invalid_argument if some pair of placed envelopes overlaps. *)

val decode_item : item -> Rect.t -> rotated:bool -> Rect.t * Rect.t * bool
(** [(envelope, silicon, rotated)] of an item whose envelope is placed
    at this rectangle: the silicon sits inside the margins (rotated with
    a rotated rigid module), and a flexible module's silicon has its
    exact area [S / w].  For tangent linearization that silicon may stick
    out of the reserved envelope; the returned envelope is then the hull
    of both (see DESIGN.md). *)

val extract :
  built -> float array -> (Rect.t * Rect.t * bool) array
(** Per item: {!decode_item} of the envelope and rotation read from a
    solution vector. *)
