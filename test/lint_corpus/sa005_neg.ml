(* SA005 negative: synchronized, task-local or disjoint-slot tasks. *)
let hits = Atomic.make 0

(* Atomic counters are fine. *)
let count items =
  Fp_util.Pool.map ~jobs:4 ~n:(Array.length items) (fun i ->
      Atomic.incr hits;
      items.(i))

(* The disjoint-slot convention: captured array written at an index
   derived from the task argument, directly or through a helper. *)
let gather n f =
  let out = Array.make n None in
  Fp_util.Pool.run ~jobs:4 ~n (fun i -> out.(i) <- Some (f i));
  out

let gather_via_helper n f =
  let out = Array.make n None in
  let put i v = out.(i) <- Some v in
  Fp_util.Pool.run ~jobs:4 ~n (fun i -> put i (f i));
  out

(* Purely local mutation inside the task. *)
let local_sum rows =
  Fp_util.Pool.map ~jobs:4 ~n:(Array.length rows) (fun i ->
      let t = ref 0. in
      Array.iter (fun v -> t := !t +. v) rows.(i);
      !t)
