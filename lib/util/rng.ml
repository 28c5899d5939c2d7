(* The SplitMix64 state lives unboxed in 8 bytes: a mutable int64
   record field would box on every draw, and the projection engine
   draws one number per pair per sweep. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 (Int64.of_int seed);
  t

let copy = Bytes.copy

(* SplitMix64's output function of the state [z]. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden in
  Bytes.set_int64_ne t 0 z;
  mix z

let float t bound =
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits /. 9007199254740992. *. bound

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let r = Int64.to_int (next_int64 t) land max_int in
  r mod bound

let range t ~lo ~hi = lo +. float t (hi -. lo)

(* The draws of [int t (i + 1)].  The state stays in a local, so in a
   register, and is stored back once: through the [Bytes] cell each
   draw would cost a dependent load and a store. *)
let shuffle t (arr : int array) =
  let z = ref (Bytes.get_int64_ne t 0) in
  for i = Array.length arr - 1 downto 1 do
    z := Int64.add !z golden;
    let j = (Int64.to_int (mix !z) land max_int) mod (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Bytes.set_int64_ne t 0 !z
