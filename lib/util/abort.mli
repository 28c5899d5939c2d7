(** Cooperative cancellation flag shared across domains.

    A [t] is a single atomic boolean: any domain may {!signal} it, any
    number of domains may poll it with {!is_set} / {!check}.  It is the
    cancellation primitive of the solver portfolio: the racer signals
    the flag when a winner emerges, every still-running engine polls it
    at its own safe points and winds down, and {!Pool.run} skips tasks
    that have not started yet.

    Signalling is one-way and idempotent — there is no reset.  A race
    that needs a fresh flag creates a fresh [t]; reusing a signalled
    flag would cancel the next batch before it starts. *)

type t

exception Abort
(** Raised by {!check}.  Engine code that catches exceptions below a
    pool task must re-raise this one (the SA006 lint checks every
    catch-all) — it is the cooperative-interrupt signal, not a
    failure. *)

val create : unit -> t
(** A fresh, unsignalled flag. *)

val signal : t -> unit
(** Set the flag.  Idempotent; safe from any domain. *)

val is_set : t -> bool
(** Poll without raising. *)

val check : t -> unit
(** @raise Abort when the flag is set; otherwise a no-op. *)
