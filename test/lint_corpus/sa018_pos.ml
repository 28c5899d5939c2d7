(* SA018 positive: module-level mutable containers in library code —
   state that every pool task calling into this module can race on. *)
let total = ref 0

let tally : (int, bool) Hashtbl.t = Hashtbl.create 16

let slots = Array.make 8 None

let packet = Bytes.create 64

module Log = struct
  let lines = Buffer.create 256
end

let bump () = incr total
