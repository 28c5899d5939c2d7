(* SA005 negative: pool tasks whose let-bound helpers only read what
   they capture — helper chains, arithmetic, locally created state. *)

let wave xs =
  let double x = x * 2 in
  let combine a b = double a + b in
  Fp_util.Pool.map ~jobs:4 ~n:(Array.length xs) (fun i -> combine xs.(i) 1)

(* A helper's own state, and a task-local accumulator, are invisible
   outside the call. *)
let fold xs =
  let double x = x * 2 in
  let count_up k =
    let r = ref 0 in
    for _ = 1 to k do
      incr r
    done;
    !r
  in
  Fp_util.Pool.map ~jobs:4 ~n:(Array.length xs) (fun i ->
      let acc = ref 0 in
      for k = 1 to xs.(i) do
        acc := !acc + double k
      done;
      !acc + count_up xs.(i))
