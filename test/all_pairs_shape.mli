(** All-pairs shape curves: the reference the tests check
    {!Fp_slicing.Shape}'s staircase merge against.

    These are the library's former kernels, kept verbatim: a cut builds
    every (left entry, right entry) pair, newest first, sorts them
    stably by (width, height) and keeps the Pareto points; realization
    picks the minimum-area root, or the lowest root that fits
    [width_limit].  {!Fp_slicing.Shape} must return [Float.equal]
    frontiers and identical realizations on every input. *)

type sized

val size : Fp_slicing.Polish.t -> (int -> Fp_slicing.Shape.option_list) -> sized
val frontier : sized -> (float * float) list

val realize :
  ?width_limit:float ->
  sized ->
  (int * Fp_geometry.Rect.t * bool) list * float * float
