(* SA005 positive: Pool tasks racing on captured mutable state. *)
type acc = { mutable best : float }

(* Captured ref mutated without Atomic. *)
let count items =
  let hits = ref 0 in
  Fp_util.Pool.map ~jobs:4 ~n:(Array.length items) (fun i ->
      incr hits;
      items.(i))

(* Captured record field mutated without a lock. *)
let scan xs =
  let shared = { best = 0. } in
  Fp_util.Pool.map ~jobs:4 ~n:(Array.length xs) (fun i ->
      if xs.(i) > shared.best then shared.best <- xs.(i);
      xs.(i))

(* A let-bound helper of the same definition, called from the task,
   mutating state the task captured. *)
let tally xs =
  let seen = Hashtbl.create 16 in
  let mark x = Hashtbl.replace seen x () in
  Fp_util.Pool.run ~jobs:4 ~n:(Array.length xs) (fun i -> mark xs.(i))

(* A captured buffer written through the Bytes setter family. *)
let stamp_all n =
  let buf = Bytes.create 8 in
  Fp_util.Pool.run ~jobs:4 ~n (fun i -> Bytes.set_int64_le buf 0 (Int64.of_int i))
