(** Normalized Polish expressions for slicing floorplans.

    The baseline family the paper positions itself against (section 2.1):
    "Starting from Otten, almost all authors relied on the slicing
    structures"; Wong's DAC'86 simulated-annealing floorplanner works on
    {e normalized Polish expressions} — postfix strings over module ids
    and the cut operators [H] (horizontal cut: top/bottom) and [V]
    (vertical cut: left/right), with no two identical adjacent operators.

    This module implements the representation and Wong-Liu's three move
    types; {!Anneal} drives them. *)

type op = H | V

type element = Operand of int | Operator of op

type t
(** A normalized Polish expression over modules [0 .. n-1]: a balloting
    sequence in which every module occurs once and no two adjacent
    operators are equal.  {!of_modules} and the moves make no other. *)

val of_modules : int -> t
(** [of_modules n] is the canonical initial expression
    [0 1 V 2 V ... (n-1) V].  @raise Invalid_argument if [n < 1]. *)

val element : t -> int -> element
(** [element t i] is the element at position [i] of the postfix string,
    [0 <= i < 2 num_modules t - 1]. *)

val num_modules : t -> int

type move = private {
  source : t;  (** the expression the move was drawn from *)
  expr : t;  (** the candidate *)
  lo : int;
  hi : int;
      (** [source] and [expr] differ at positions [lo] and [hi], and
          nowhere outside [lo .. hi] *)
}
(** One neighbour of an expression, with the span where it differs from
    it: the two operand positions of an M1 move, the chain of an M2
    move, [p] and [p + 1] of an M3 move.  Only the moves below make one,
    so {!Shape.resize} can trust its span.  Each move copies the
    expression once; the counts below allocate nothing. *)

val apply_m1 : t -> int -> move
(** [apply_m1 t i] swaps the [i]-th and [i+1]-th operands, for
    [0 <= i < num_modules t - 1].
    @raise Invalid_argument for any other [i]. *)

val num_operator_chains : t -> int
(** The number of maximal runs of consecutive operators. *)

val apply_m2 : t -> int -> move
(** [apply_m2 t i] complements the [i]-th maximal operator chain
    ([H<->V] for every operator in the chain), for
    [0 <= i < num_operator_chains t].
    @raise Invalid_argument for any other [i]. *)

val num_m3_candidates : t -> int
(** The number of positions [p] such that swapping elements [p] and
    [p+1] (one operand, one operator) keeps the expression normalized. *)

val apply_m3 : t -> int -> move
(** [apply_m3 t i] makes the [i]-th of those swaps in ascending
    position, for [0 <= i < num_m3_candidates t].
    @raise Invalid_argument for any other [i]. *)

val pp : Format.formatter -> t -> unit
