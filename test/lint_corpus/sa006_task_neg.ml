(* SA006 negative: containment below a pool task, not swallowing — the
   cooperative interrupt is re-raised, or the exception is recorded in
   task-local state for a later re-raise. *)

exception Abort

(* Everything but the cooperative interrupt is absorbed: the
   sanctioned containment shape. *)
let guarded k = try k * 2 with Abort -> raise Abort | _ -> 0

(* Record-and-continue: the caught exception flows into a store the
   caller owns, so nothing is dropped. *)
let recorded slot k =
  try k * 2
  with e ->
    slot := Some e;
    0

let sweep ks =
  Fp_util.Pool.map ~jobs:4 ~n:(Array.length ks) (fun i ->
      let slot = ref None in
      guarded ks.(i) + recorded slot ks.(i))
