(** The interprocedural rules: SA010 (transitive replay taint reaching
    pool task bodies and [Journal] code), SA011 (a swallowing catch-all
    below a pool task), SA012 (captured mutable state escaping into
    pool tasks through helpers, superseding SA005's syntactic
    worker-escape heuristics).  Direct in-closure mutation stays SA005,
    emitted here with the same messages as before so the baseline and
    corpus stay meaningful.

    Only depth >= 1 is reported: a primitive used directly in the task
    body is the syntactic rules' finding.  Role gating is the caller's
    job ({!Driver} filters through {!Rules.applies}). *)

val check :
  cg:Callgraph.t ->
  summaries:Effects.summaries ->
  file:string ->
  Finding.t list
(** All interprocedural findings for one file of the graph, sorted.
    Pool tasks are recognized as fun literals or let-bound local
    functions passed to [Pool.run]/[Pool.map]. *)
