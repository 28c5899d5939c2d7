(* SA004 positive: wall-clock reads and sleeps in library code. *)
let stamp () = Unix.gettimeofday ()
let cpu () = Sys.time ()
let backoff () = Unix.sleepf 0.01
