(* SA005 negative: the blessed capture shapes — synchronized shared
   state, task-local state handed to mutating helpers, and per-task
   copies made before the batch and read back at the task index. *)

let step st = st := !st + 1

(* Synchronized shared state is fine. *)
let gauge = Atomic.make 0

let ticks xs =
  Fp_util.Pool.map ~jobs:4 ~n:(Array.length xs) (fun i ->
      Atomic.incr gauge;
      xs.(i))

(* A task-local value handed to a mutating helper, top-level or
   let-bound, is the normal ownership pattern. *)
let local_count xs =
  let bump c = incr c in
  Fp_util.Pool.map ~jobs:4 ~n:(Array.length xs) (fun i ->
      let c = ref 0 in
      step c;
      bump c;
      !c + xs.(i))

(* One copy per task, made before the batch and read back at the task
   index through a local accessor: the task owns its copy and writes
   only its own slot of the results. *)
let per_task seeds =
  let n = Array.length seeds in
  let copies = Array.init n (fun i -> Array.copy seeds.(i)) in
  let copy_of i = copies.(i) in
  let out = Array.make n 0 in
  Fp_util.Pool.run ~jobs:4 ~n (fun i ->
      let c = copy_of i in
      c.(0) <- c.(0) + 1;
      out.(i) <- Array.fold_left ( + ) 0 c);
  out
