(** One batch of independent tasks over a few domains.

    Two sites run independent work concurrently: the augmentation
    layer's candidate groups ([--candidates]) and the portfolio's
    engines.  Each batch spawns its domains, runs every task once, and
    joins every domain before returning, so no domain outlives the call.
    Tasks take indices from one shared counter, so a skewed batch (one
    long task next to short ones) keeps every domain busy.

    The calling domain works too: a batch spawns [min jobs n - 1] new
    domains, so [jobs = 1] spawns none.  A task receives only its index;
    there is no worker id to address per-domain state with, so a task
    keeps its state local or writes its own result slot.

    Memory model: [run] joins every domain it spawned, so writes a task
    makes happen-before the reads the caller makes after [run] returns —
    tasks can fill slots of a result array without further
    synchronization, as long as no two tasks share a slot. *)

val run : ?abort:Abort.t -> jobs:int -> n:int -> (int -> unit) -> unit
(** [run ~jobs ~n f] executes [f i] for every [i] in [0, n) on
    [max 1 (min jobs n)] domains.  Blocks until every task has finished.
    If tasks raise, the batch still drains, and then one of the
    exceptions is re-raised in the caller (the rest are dropped).

    When [abort] is given, tasks that have not started by the time the
    flag is signalled are skipped (the batch still drains and [run]
    still returns normally); tasks already running are responsible for
    observing the flag at their own safe points. *)

val map : jobs:int -> n:int -> (int -> 'a) -> 'a array
(** [map ~jobs ~n f] is {!run} collecting results: element [i] is
    [f i]. *)
