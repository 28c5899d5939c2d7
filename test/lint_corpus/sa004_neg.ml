(* SA004 negative: logical clocks only. *)
let stamp ticks =
  incr ticks;
  !ticks
