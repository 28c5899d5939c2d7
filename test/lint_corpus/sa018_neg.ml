(* SA018 negative: synchronization primitives, immutable module-level
   values, and mutable state created per call. *)
let hits = Atomic.make 0

let lock = Mutex.create ()

let limits = [ 1; 2; 4 ]

let fresh_table () = Hashtbl.create 16

let count xs =
  let n = ref 0 in
  List.iter (fun _ -> incr n) xs;
  !n
