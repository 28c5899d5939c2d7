(** Dense LU basis kernels: the reference the tests check
    {!Fp_lp.Basis}'s sparse elimination and solves against.

    These are the library's former kernels, kept verbatim apart from
    reading the constraint matrix by columns: an [m x m] dense LU with
    partial pivoting (first largest magnitude, pivots at or below
    [1e-10] rejected), dense triangular solves, and a product-form eta
    file with a refactorization after [64] updates.  {!Fp_lp.Basis} must
    return [Float.equal] results on every input. *)

type t

val create : Fp_lp.Basis.mat -> int array -> (t, [ `Singular ]) result
val basis : t -> int array
val refactorizations : t -> int
val ftran : t -> float array -> unit
val btran : t -> float array -> unit

val update :
  t ->
  row:int ->
  col:int ->
  d:float array ->
  ([ `Updated | `Refactored ], [ `Singular | `Tiny_pivot ]) result
