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
(** A normalized Polish expression over modules [0 .. n-1]. *)

val of_modules : int -> t
(** [of_modules n] is the canonical initial expression
    [0 1 V 2 V ... (n-1) V].  @raise Invalid_argument if [n < 1]. *)

val element : t -> int -> element
(** [element t i] is the element at position [i] of the postfix string,
    [0 <= i < 2 num_modules t - 1]. *)

val num_modules : t -> int

val is_valid : t -> bool
(** Balloting property, each module exactly once, normalized (no two
    equal adjacent operators). *)

val apply_m1 : t -> int -> t
(** [apply_m1 t i] swaps the [i]-th and [i+1]-th operands, for
    [0 <= i < num_modules t - 1]. *)

val apply_m2 : t -> int -> t
(** [apply_m2 t i] complements the [i]-th maximal operator chain
    ([H<->V] for every operator in the chain). *)

val num_operator_chains : t -> int

val m3_candidates : t -> int list
(** Positions [p] such that swapping elements [p] and [p+1] (one operand,
    one operator) keeps the expression valid and normalized. *)

val apply_m3 : t -> int -> t
(** Swap elements at positions [p] and [p+1] (must come from
    {!m3_candidates}). *)

val pp : Format.formatter -> t -> unit
