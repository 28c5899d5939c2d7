(** Deterministic pseudo-random numbers (SplitMix64).

    Every stochastic choice in the repository — random instances, random
    augmentation orderings — draws from this generator with an explicit
    seed, so instances and experiment tables are bit-reproducible across
    runs and machines.  SplitMix64 is tiny, fast, and passes BigCrush for
    the purposes of workload generation.

    {b Domain discipline.}  A [t] is a single mutable cell with no
    internal locking; two domains drawing from the same [t] race (and,
    worse, silently correlate).  So every generator is created locally
    from an explicit seed and used by one domain: [Fp_netlist.Generator],
    [Fp_netlist.Ordering.random], [Fp_slicing.Anneal], [Fp_data.Ami33],
    one per engine in a portfolio race, and one per armed
    {!Fault} site, drawn under the harness lock.  The concurrent
    candidate evaluations of a MILP step draw no random numbers. *)

type t

val create : int -> t
(** [create seed] builds an independent stream. *)

val copy : t -> t

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float -> float
(** [float t bound] draws uniformly from [\[0, bound)]. *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val range : t -> lo:float -> hi:float -> float
(** Uniform draw from [\[lo, hi)]. *)

val shuffle : t -> int array -> unit
(** In-place Fisher–Yates shuffle: for [i] from the last position down
    to 1, swap [i] with [j = int t (i + 1)].  The draws, and the state
    [t] is left in, are those of the [int] calls; the state is held in
    a local across the shuffle and stored back once.  Callers permute
    indices or packed codes (module ids, pair codes) and read their
    payload through them; an int array is swapped without the write
    barrier a boxed element would cost. *)
