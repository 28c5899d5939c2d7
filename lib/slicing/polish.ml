type op = H | V
type element = Operand of int | Operator of op
type t = { elems : element array; n : int }

let element t i = t.elems.(i)
let num_modules t = t.n

let of_modules n =
  if n < 1 then invalid_arg "Polish.of_modules: need at least one module";
  if n = 1 then { elems = [| Operand 0 |]; n }
  else begin
    let elems = ref [ Operand 0 ] in
    for i = 1 to n - 1 do
      elems := Operator V :: Operand i :: !elems
    done;
    { elems = Array.of_list (List.rev !elems); n }
  end

type move = { source : t; expr : t; lo : int; hi : int }

let[@inline] is_operator t i =
  match t.elems.(i) with Operator _ -> true | Operand _ -> false

(* The move that swaps elements [lo] and [hi] of [t], which differ. *)
let swap t lo hi =
  let elems = Array.copy t.elems in
  elems.(lo) <- t.elems.(hi);
  elems.(hi) <- t.elems.(lo);
  { source = t; expr = { t with elems }; lo; hi }

let apply_m1 t k =
  if k < 0 || k + 1 >= t.n then
    invalid_arg "Polish.apply_m1: operand index out of range";
  let rec operand_from i =
    if is_operator t i then operand_from (i + 1) else i
  in
  let rec kth i k = if k = 0 then i else kth (operand_from (i + 1)) (k - 1) in
  let i = kth (operand_from 0) k in
  swap t i (operand_from (i + 1))

(* A maximal run of consecutive operators starts at an operator that
   follows an operand. *)
let[@inline] starts_chain t i =
  is_operator t i && (i = 0 || not (is_operator t (i - 1)))

let num_operator_chains t =
  let chains = ref 0 in
  for i = 0 to Array.length t.elems - 1 do
    if starts_chain t i then incr chains
  done;
  !chains

let apply_m2 t c =
  let len = Array.length t.elems in
  let rec nth i c =
    if i >= len then invalid_arg "Polish.apply_m2: chain index out of range"
    else if not (starts_chain t i) then nth (i + 1) c
    else if c = 0 then i
    else nth (i + 1) (c - 1)
  in
  let lo = nth 0 c in
  let rec last i =
    if i + 1 < len && is_operator t (i + 1) then last (i + 1) else i
  in
  let hi = last lo in
  let elems = Array.copy t.elems in
  for i = lo to hi do
    match elems.(i) with
    | Operator H -> elems.(i) <- Operator V
    | Operator V -> elems.(i) <- Operator H
    | Operand _ -> assert false
  done;
  { source = t; expr = { t with elems }; lo; hi }

let[@inline] is_op t o i =
  i >= 0
  && i < Array.length t.elems
  && match t.elems.(i) with Operator o' -> o' = o | Operand _ -> false

(* Whether swapping elements [p] and [p + 1] keeps the expression valid
   and normalized, where [before] is the operand count minus the
   operator count of elements [0 .. p - 1].  A swap at p keeps every
   such count except the one before p + 1, and every operator pair
   except those around p .. p + 1:
   - operand, operator o -> o, operand: two operands must precede p, and
     element p - 1 must not be o;
   - operator o, operand -> operand, o: the count before p + 1 only
     grows, and element p + 2 must not be o. *)
let[@inline] m3_valid t before p =
  match (t.elems.(p), t.elems.(p + 1)) with
  | Operand _, Operator o -> before >= 2 && not (is_op t o (p - 1))
  | Operator o, Operand _ -> not (is_op t o (p + 2))
  | Operand _, Operand _ | Operator _, Operator _ -> false

(* The count before [p + 1], from [before], the count before [p]. *)
let[@inline] count_past t before p =
  if is_operator t p then before - 1 else before + 1

let num_m3_candidates t =
  let swaps = ref 0 and before = ref 0 in
  for p = 0 to Array.length t.elems - 2 do
    if m3_valid t !before p then incr swaps;
    before := count_past t !before p
  done;
  !swaps

let apply_m3 t k =
  let len = Array.length t.elems in
  let rec nth p before k =
    if p + 1 >= len then
      invalid_arg "Polish.apply_m3: candidate index out of range"
    else if not (m3_valid t before p) then nth (p + 1) (count_past t before p) k
    else if k = 0 then p
    else nth (p + 1) (count_past t before p) (k - 1)
  in
  let p = nth 0 0 k in
  swap t p (p + 1)

let pp ppf t =
  Array.iteri
    (fun i e ->
      if i > 0 then Format.pp_print_char ppf ' ';
      match e with
      | Operand m -> Format.pp_print_int ppf m
      | Operator H -> Format.pp_print_char ppf 'H'
      | Operator V -> Format.pp_print_char ppf 'V')
    t.elems
