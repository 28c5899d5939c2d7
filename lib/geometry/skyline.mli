(** Skyline (upper profile) of a flat-bottom partial floorplan.

    The successive-augmentation procedure (paper section 3.1) always grows
    the floorplan from the bottom of the chip upward, so the region occupied
    by already-placed modules can be summarized by its upper profile — a
    piecewise-constant function of [x] over the chip width.  "Holes at the
    bottom of the polygon are ignored because new modules are added only
    from the open side of the chip" (paper, section 3.1); raising the
    profile with a max does exactly that.

    A skyline also powers the bottom-left placement heuristic used to seed
    the branch-and-bound with a feasible incumbent. *)

type segment = { x0 : float; x1 : float; h : float }
(** Maximal run of constant height [h] over [\[x0, x1\]]. *)

type t

val create : width:float -> t
(** Flat profile of height 0 over [\[0, width\]].
    @raise Invalid_argument if [width <= 0]. *)

val width : t -> float

val segments : t -> segment list
(** Segments in increasing-[x] order; contiguous, covering [\[0, width\]];
    adjacent segments have distinct heights. *)

val add_rect : t -> Rect.t -> t
(** Raise the profile to at least [Rect.y_max r] over the rectangle's
    x-extent (clipped to the chip width).  The rectangle's own [y] is
    irrelevant: anything beneath it is treated as filled. *)

val of_rects : width:float -> Rect.t list -> t

val height_over : t -> x0:float -> x1:float -> float
(** Maximum profile height over the (positive-length) range [\[x0, x1\]]. *)

val min_height_over : t -> x0:float -> x1:float -> float
(** Minimum profile height over the segments overlapping the
    (positive-length) range [\[x0, x1\]] clipped to the chip width;
    [infinity] when the clipped range is empty.  A rectangle with span
    [\[x0, x1\]] lies under the profile iff its top is at most this value
    — the predicate the solution certifier uses to audit covering
    rectangles (paper Theorems 1–2). *)

val max_height : t -> float

val area_under : t -> float
(** Integral of the profile — the area of the covered region, holes
    included. *)

val best_position : t -> w:float -> (float * float) option
(** [best_position t ~w] is a bottom-left position [(x, y)] for a
    width-[w] rectangle, with [y = height_over t ~x0:x ~x1:(x +. w)].
    The candidates [x] are each segment's left end and its right end
    minus [w], less those with [x < 0] or [x +. w > width] by more than
    {!Tol.eps}; with none left, [x = 0.].  They are taken in ascending
    order, and one replaces the best so far when its [y] is lower by
    more than {!Tol.eps}, so a tie within {!Tol.eps} goes to the left.
    [None] when [w] exceeds the chip width by more than {!Tol.eps}.
    One forward pass over the segments: [O(S + C)] for [S] segments
    and [C] overlaps of a candidate's span with a segment. *)
