(* SA002 positive: ambient randomness instead of Fp_util.Rng. *)
let draw () = Random.int 10
let noisy () = Stdlib.Random.float 1.0

(* Hashtbl.randomize reseeds every table's hash from ambient
   randomness, so iteration orders stop being reproducible. *)
let reseed_tables () = Hashtbl.randomize ()
