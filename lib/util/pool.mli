(** Fixed-size domain pool with per-worker work-stealing deques.

    One pool serves a whole floorplanning run: the branch-and-bound seeds
    it with independent subtree tasks, the augmentation layer with
    candidate-group MILPs.  Workers are OCaml 5 [Domain]s spawned once by
    {!with_pool} and parked between batches, so per-batch overhead is a
    mutex handshake, not a domain spawn.  {!with_pool} is the only way to
    get a pool: it joins the workers when its body returns or raises, so
    no pool outlives its bracket.

    Scheduling: a batch of [n] tasks is dealt round-robin into one
    Chase–Lev-style deque per worker.  Each worker drains its own deque
    LIFO and, when empty, steals FIFO from the other workers, so a skewed
    batch (one huge branch-and-bound subtree next to many trivial ones)
    still keeps every domain busy.  Tasks must not submit nested batches
    to the same pool — a worker blocking on a sub-batch would deadlock
    the pool; parallelize at one level only (see docs/parallel.md).

    The calling domain participates as worker [0], so [with_pool ~jobs]
    spawns only [jobs - 1] new domains and [jobs = 1] spawns none
    (everything runs inline, no synchronization).

    Memory model: the batch handshake is mutex-protected, so writes a
    task makes before finishing happen-before the reads the caller makes
    after {!run} returns — tasks can fill slots of a result array without
    further synchronization, as long as no two tasks share a slot. *)

type t

val jobs : t -> int
(** Number of workers, including the calling domain. *)

val run : ?abort:Abort.t -> t -> n:int -> (worker:int -> int -> unit) -> unit
(** [run t ~n f] executes [f ~worker i] for every [i] in [0, n),
    distributing tasks over all workers; [worker] is the index (in
    [0, jobs)) of the domain that actually executes the task, for
    per-domain scratch state.  Blocks until every task has finished.  If
    tasks raise, one of the exceptions is re-raised in the caller after
    the batch has drained (the rest are dropped).

    When [abort] is given, tasks that have not started by the time the
    flag is signalled are skipped (the batch still drains and [run]
    still returns normally); tasks already running are responsible for
    observing the flag at their own safe points.  Skipping is a
    best-effort fast-path for cancellation — determinism guarantees
    only hold for batches that run to completion unsignalled.

    Must be called from the domain that created the pool, and never
    reentrantly. *)

val map : t -> n:int -> (worker:int -> int -> 'a) -> 'a array
(** [map t ~n f] is {!run} collecting results: element [i] is
    [f ~worker i]. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] spawns [jobs - 1] worker domains, runs [f] on
    the pool and joins the workers when [f] returns or raises.  [jobs] is
    clamped to [1, 64].  Values above
    [Domain.recommended_domain_count ()] oversubscribe the machine —
    allowed (the scaling bench measures it) but not useful in
    production.  The pool must not escape [f]: {!run} on a pool whose
    [with_pool] has returned raises [Invalid_argument]. *)
