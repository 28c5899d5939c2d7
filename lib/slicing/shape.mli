(** Shape curves and floorplan realization for slicing trees.

    Bottom-up sizing of a slicing floorplan (Otten / Stockmeyer): each
    subtree carries the Pareto frontier of its feasible (width, height)
    bounding boxes.  A vertical cut [V] places children side by side
    (widths add, heights max); a horizontal cut [H] stacks them (heights
    add, widths max).  Leaves offer both orientations of a rigid module,
    or sampled points of the exact hyperbola [h = S / w] of a flexible
    one — the slicing baseline gets the {e exact} shape function, unlike
    the MILP which linearizes it.

    A cut merges its children's curves in one linear pass (Stockmeyer
    1983): a curve runs in increasing width and decreasing height, so
    the Pareto points of a cut lie on one monotone staircase of (left,
    right) pairs.  A [V] cut starts at the narrowest pair and advances
    the side that sets the height; an [H] cut starts at the widest pair
    and steps back on the side that sets the width.  The result is the
    frontier, with the same back-pointers, that pruning all pairs gives:
    where rounding makes a skipped [V] pair's width bit-equal to its
    staircase pair's, the tie goes to the pair with the larger
    (left, right) indices, as the stable sort over all pairs does. *)

type option_list = (float * float) list
(** Candidate (width, height) shapes for one module. *)

val leaf_options : ?samples:int -> Fp_netlist.Module_def.t -> option_list
(** Shapes of one module: both orientations for a rigid module; [samples]
    (default 6) width samples across the aspect window for a flexible
    one.  @raise Invalid_argument if [samples < 2]. *)

type leaves
(** The leaf curves of modules [0 .. n-1], built once per instance. *)

val leaves : option_list array -> leaves
(** [leaves opts] offers module [m] the shapes [opts.(m)].
    @raise Invalid_argument if a module has no shape options. *)

type sized
(** A slicing tree annotated with shape curves. *)

val size : Polish.t -> leaves -> sized
(** Evaluate the shape curve of the whole expression, one linear merge
    per cut.
    @raise Invalid_argument if the table's module count is not the
    expression's. *)

val frontier : sized -> (float * float) list
(** Root Pareto frontier, in increasing width. *)

val root : ?width_limit:float -> sized -> float * float
(** The chip [(w, h)] {!realize} places: the root shape of minimum area,
    or with [width_limit] the lowest one of width <= [width_limit]
    (minimum area if none fits). *)

val realize :
  ?width_limit:float ->
  sized ->
  (int * Fp_geometry.Rect.t * bool) list * float * float
(** Walk the tree from the {!root} shape assigning coordinates.  Returns
    [(module_id, rect, rotated)] per module plus the chip [(w, h)].
    Every module rect lies inside the chip and no two overlap. *)
