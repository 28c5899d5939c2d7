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
    and steps back on the side that sets the width.  Pruning is one pass
    over the staircase in nondecreasing width: per run of equal widths
    it keeps the lowest pair when that pair lies below the last kept one
    by more than [Tol.eps].  The result is the frontier, with the same
    back-pointers, that sorting and pruning all pairs gives: where
    rounding makes a skipped [V] pair's width bit-equal to its staircase
    pair's, and among pairs of equal width and height, the tie goes to
    the pair with the larger (left, right) indices, as the stable sort
    over all pairs does.

    A {!memo} keeps, for every position of the postfix expression, the
    sized subtree that ends there and the position where it starts.
    The cut at position [j] has its right child end at [j - 1] and its
    left child end just before the right child starts, so a walk reads
    a cut's children from the start positions, with no stack.  A
    candidate that differs from the memo's expression only within
    positions [lo .. hi] (the operands an M1 move swaps, the operator
    chain an M2 move complements, the pair an M3 move swaps) walks from
    [lo]: it reuses every subtree that ends before [lo] or starts after
    [hi], and merges only the cuts within [lo .. hi] and the later cuts
    whose subtree starts at or before [hi], the ancestors of the span.
    The candidate's subtrees go beside the memo's, which a rejected
    candidate leaves as they were; accepting one copies them in.  A
    cut's curve depends only on its children's curves, so the result is
    bit-identical to sizing from scratch, which is the same walk over
    every position. *)

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
    per cut: the walk a new {!memo} makes.
    @raise Invalid_argument if the table's module count is not the
    expression's. *)

type memo
(** The sized subtrees of one expression (the memo's current one), by
    position, and room to size one candidate beside them.  A memo is
    mutable: each annealing run makes its own. *)

val memo : leaves -> Polish.t -> memo
(** [memo leaves e] sizes [e] as {!size} does; [e] is the current
    expression.
    @raise Invalid_argument if the table's module count is not the
    expression's. *)

val current : memo -> sized
(** The sized current expression. *)

val resize : memo -> Polish.t -> sized
(** [resize m e] sizes the candidate [e], merging only the cuts whose
    subtree overlaps the positions where [e] and the current expression
    differ, and reusing every other subtree.  The result is
    bit-identical to [size e]; the current expression is unchanged, so a
    rejected candidate needs no undo.
    @raise Invalid_argument if the table's module count is not the
    expression's. *)

val accept : memo -> unit
(** Make the candidate last sized by {!resize} the current expression,
    copying in the subtrees it re-sized.
    @raise Invalid_argument if no candidate was sized since the memo was
    made or last accepted. *)

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
