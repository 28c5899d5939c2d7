(** Factorized simplex basis.

    Holds an LU factorization (partial pivoting) of an [m x m] basis
    matrix drawn from the columns of a sparse constraint matrix, plus a
    product-form eta file for cheap rank-one column replacements.  The
    factorization is a sparse right-looking elimination that replays the
    dense one: it visits the columns in basis order, picks the dense
    scan's pivot (the largest magnitude among the rows not yet pivoted,
    the lowest position on ties), and computes each update term the
    dense code computes with a nonzero factor in the same way, so its
    factors are the dense elimination's bit for bit.  Its working
    storage is O(m + entries + fill), with no [m x m] array.  The
    factors and the eta columns are stored without their zeros, so
    {!ftran} and {!btran} cost O(m + nonzeros) instead of O(m{^ 2}).
    They add up the dense triangular solves' terms in the same order, so
    every entry they return is [Float.equal] to the dense solves'
    (test/dense_basis.ml keeps the dense kernels as the reference); only
    the sign of a zero entry can differ.  After {!Basis.refactor_every} updates the eta file is
    discarded and the basis refactorized from scratch, bounding both
    memory and the accumulated floating-point error — the classic
    revised-simplex lifecycle.

    Used by {!Revised}. *)

type mat = {
  m : int;  (** number of rows *)
  col_start : int array;
      (** column [j]'s entries are [col_start.(j)] to
          [col_start.(j + 1) - 1] of [row] and [value] *)
  row : int array;  (** row of each entry, at most one per row and column *)
  value : float array;  (** coefficient of each entry *)
}
(** A sparse matrix by columns. *)

type factors
(** The LU factors of one basis.  Immutable, so one value can seed
    several {!t} — the sibling nodes of a branch-and-bound search. *)

type t

val pivot_tol : float
(** Pivot elements at or below this magnitude are rejected ([1e-10]). *)

val refactor_every : int
(** Eta-file length that triggers a refactorization ([64]). *)

val create : mat -> int array -> (t, [ `Singular ]) result
(** [create mat basis] factorizes the matrix whose [j]-th column is
    column [basis.(j)] of [mat], with an empty eta file.  The basis array is
    copied. *)

val factors : t -> factors
(** The factors [t] was last created, loaded or refactorized from. *)

val factorize : t -> int array -> (factors, [ `Singular ]) result
(** [factorize t basis] factorizes another basis of [t]'s matrix, for a
    later {!load}.  [t]'s basis and factors are unchanged.  The
    elimination runs in working storage that [t] keeps and grows only
    when a basis needs more room than any before it, so it otherwise
    allocates only its result. *)

val load : t -> factors -> unit
(** [load t f] restarts [t] from [f]: the basis becomes the one [f]
    factorizes, the eta file and the refactorization count are cleared.
    Allocates nothing.  @raise Invalid_argument when [f] factorizes
    another matrix than [t]'s. *)

val basis : t -> int array
(** The live basis array: entry [i] is the column basic in row position
    [i].  Updated in place by {!update}; callers must not mutate it. *)

val refactorizations : t -> int
(** Refactorizations performed since {!create} or {!load} (excluding
    the initial factorization). *)

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
