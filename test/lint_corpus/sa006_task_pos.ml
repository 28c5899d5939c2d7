(* SA006 positive: a catch-all one helper below a pool task.  Abort and
   Injected raised inside the task vanish here while the task itself
   looks clean; SA006 reports the handler in every role, so a pool
   started from bin/ or bench/ is covered too. *)
let try_candidate k = try Some (100 / k) with _ -> None

let sweep ks =
  Fp_util.Pool.map ~jobs:4 ~n:(Array.length ks) (fun i -> try_candidate ks.(i))
