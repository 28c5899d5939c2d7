(** Factorized simplex basis.

    Holds a dense LU factorization (partial pivoting) of an [m x m] basis
    matrix drawn from the columns of a sparse constraint matrix, plus a
    product-form eta file for cheap rank-one column replacements.  After
    {!Basis.refactor_every} updates the eta file is discarded and the
    basis refactorized from scratch, bounding both memory and the
    accumulated floating-point error — the classic revised-simplex
    lifecycle.

    Used by {!Revised}. *)

type mat = {
  m : int;  (** number of rows *)
  cols : (int * float) array array;
      (** sparse columns as [(row, coefficient)] pairs *)
}

type t

val pivot_tol : float
(** Pivot elements at or below this magnitude are rejected ([1e-10]). *)

val refactor_every : int
(** Eta-file length that triggers a refactorization ([64]). *)

val create : mat -> int array -> (t, [ `Singular ]) result
(** [create mat basis] factorizes the matrix whose [j]-th column is
    [mat.cols.(basis.(j))].  The basis array is copied. *)

val basis : t -> int array
(** The live basis array: entry [i] is the column basic in row position
    [i].  Updated in place by {!update}; callers must not mutate it. *)

val refactorizations : t -> int
(** Refactorizations performed since {!create} (excluding the initial
    factorization). *)

val refactorize : t -> (unit, [ `Singular ]) result
(** Force a fresh factorization of the current basis, discarding the eta
    file. *)

val ftran : t -> float array -> unit
(** [ftran t v] solves [B x = v] in place (forward transformation). *)

val btran : t -> float array -> unit
(** [btran t v] solves [B^T x = v] in place (backward transformation). *)

val update :
  t ->
  row:int ->
  col:int ->
  d:float array ->
  ([ `Updated | `Refactored ], [ `Singular | `Tiny_pivot ]) result
(** [update t ~row ~col ~d] replaces the basic column in position [row]
    by [col], where [d = B^-1 a_col] is the transformed entering column
    (so [d.(row)] is the pivot element).  Appends an eta matrix, or
    refactorizes when the eta file is full.  [`Tiny_pivot] leaves the
    basis unchanged; [`Singular] can only arise from the embedded
    refactorization. *)
