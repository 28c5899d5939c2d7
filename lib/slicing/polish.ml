type op = H | V
type element = Operand of int | Operator of op
type t = { elems : element array; n : int }

let elements t = Array.to_list t.elems
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

let is_valid t =
  let seen = Array.make t.n false in
  let rec go i operands =
    if i >= Array.length t.elems then operands = 1
    else
      match t.elems.(i) with
      | Operand m ->
        if m < 0 || m >= t.n || seen.(m) then false
        else begin
          seen.(m) <- true;
          go (i + 1) (operands + 1)
        end
      | Operator o ->
        (* Balloting: strictly more operands than operators so far. *)
        if operands < 2 then false
        else if
          (* Normalization: no two equal adjacent operators. *)
          i > 0
          &&
          match t.elems.(i - 1) with
          | Operator o' -> o = o'
          | Operand _ -> false
        then false
        else go (i + 1) (operands - 1)
  in
  go 0 0 && Array.length t.elems = (2 * t.n) - 1

let swap t i j =
  let elems = Array.copy t.elems in
  let tmp = elems.(i) in
  elems.(i) <- elems.(j);
  elems.(j) <- tmp;
  { t with elems }

let apply_m1 t k =
  if k < 0 || k + 1 >= t.n then
    invalid_arg "Polish.apply_m1: operand index out of range";
  let rec operand_from i =
    match t.elems.(i) with Operand _ -> i | Operator _ -> operand_from (i + 1)
  in
  let rec kth i k = if k = 0 then i else kth (operand_from (i + 1)) (k - 1) in
  let i = kth (operand_from 0) k in
  swap t i (operand_from (i + 1))

(* Maximal runs of consecutive operators. *)
let operator_chains t =
  let chains = ref [] and i = ref 0 in
  let len = Array.length t.elems in
  while !i < len do
    (match t.elems.(!i) with
    | Operator _ ->
      let start = !i in
      while !i < len && (match t.elems.(!i) with Operator _ -> true | _ -> false)
      do
        incr i
      done;
      chains := (start, !i - 1) :: !chains
    | Operand _ -> incr i)
  done;
  Array.of_list (List.rev !chains)

let num_operator_chains t = Array.length (operator_chains t)

let apply_m2 t c =
  let chains = operator_chains t in
  if c < 0 || c >= Array.length chains then
    invalid_arg "Polish.apply_m2: chain index out of range";
  let lo, hi = chains.(c) in
  let elems = Array.copy t.elems in
  for i = lo to hi do
    match elems.(i) with
    | Operator H -> elems.(i) <- Operator V
    | Operator V -> elems.(i) <- Operator H
    | Operand _ -> assert false
  done;
  { t with elems }

(* A swap at p keeps every operand count except the one before p + 1,
   and every operator pair except those around p .. p + 1, so one pass
   with a running count decides each position:
   - operand, operator o -> o, operand: two operands must precede p, and
     element p - 1 must not be o;
   - operator o, operand -> operand, o: the count before p + 1 only
     grows, and element p + 2 must not be o. *)
let m3_candidates t =
  let len = Array.length t.elems in
  let is_op o i =
    i >= 0 && i < len
    && match t.elems.(i) with Operator o' -> o' = o | Operand _ -> false
  in
  (* [before] is the operand count minus the operator count of elements
     0 .. p - 1; a valid expression ends at 1. *)
  let before = ref 1 and ok = ref [] in
  for p = len - 1 downto 0 do
    (match t.elems.(p) with Operand _ -> decr before | Operator _ -> incr before);
    if p + 1 < len then
      match (t.elems.(p), t.elems.(p + 1)) with
      | Operand _, Operator o ->
        if !before >= 2 && not (is_op o (p - 1)) then ok := p :: !ok
      | Operator o, Operand _ -> if not (is_op o (p + 2)) then ok := p :: !ok
      | Operand _, Operand _ | Operator _, Operator _ -> ()
  done;
  !ok

let apply_m3 t p =
  if p < 0 || p + 1 >= Array.length t.elems then
    invalid_arg "Polish.apply_m3: position out of range";
  let t' = swap t p (p + 1) in
  if not (is_valid t') then
    invalid_arg "Polish.apply_m3: move breaks validity";
  t'

let pp ppf t =
  Array.iteri
    (fun i e ->
      if i > 0 then Format.pp_print_char ppf ' ';
      match e with
      | Operand m -> Format.pp_print_int ppf m
      | Operator H -> Format.pp_print_char ppf 'H'
      | Operator V -> Format.pp_print_char ppf 'V')
    t.elems
