type mat = Fp_lp.Basis.mat

let pivot_tol = 1e-10
let refactor_every = 64

(* Dense LU factors of the basis matrix at the last refactorization.
   [lu] holds L strictly below the diagonal (unit diagonal implied) and U
   on and above it; [perm] records the row permutation: row [i] of the
   factored matrix is row [perm.(i)] of the basis matrix. *)
type factors = {
  lu : float array array;
  perm : int array;
}

(* Product-form update: B_new = B_old with column [row] replaced, so
   B_new^-1 = E B_old^-1 where E is the identity with column [row]
   replaced by [col] (the eta column). *)
type eta = {
  erow : int;
  ecol : float array;
}

type t = {
  mat : mat;
  basis : int array;
  mutable factors : factors;
  mutable etas : eta array;
  mutable n_etas : int;
  mutable refactorizations : int;
}

let basis t = t.basis
let refactorizations t = t.refactorizations

(* LU with partial pivoting of the m x m basis matrix B[:,j] =
   A[:, basis.(j)].  Returns Error `Singular when a pivot column has no
   entry above [pivot_tol]. *)
let factorize mat basis =
  let m = mat.Fp_lp.Basis.m in
  let a = Array.make_matrix m m 0. in
  Array.iteri
    (fun j bj ->
      for e = mat.col_start.(bj) to mat.col_start.(bj + 1) - 1 do
        a.(mat.row.(e)).(j) <- mat.value.(e)
      done)
    basis;
  let perm = Array.init m Fun.id in
  let ok = ref true in
  (try
     for k = 0 to m - 1 do
       let p = ref k in
       for i = k + 1 to m - 1 do
         if Float.abs a.(i).(k) > Float.abs a.(!p).(k) then p := i
       done;
       if Float.abs a.(!p).(k) <= pivot_tol then begin
         ok := false;
         raise Exit
       end;
       if !p <> k then begin
         let tmp = a.(k) in
         a.(k) <- a.(!p);
         a.(!p) <- tmp;
         let tp = perm.(k) in
         perm.(k) <- perm.(!p);
         perm.(!p) <- tp
       end;
       let row_k = a.(k) in
       let piv = row_k.(k) in
       for i = k + 1 to m - 1 do
         let row_i = a.(i) in
         let l = row_i.(k) /. piv in
         if l <> 0. then begin
           row_i.(k) <- l;
           for j = k + 1 to m - 1 do
             row_i.(j) <- row_i.(j) -. (l *. row_k.(j))
           done
         end
       done
     done
   with Exit -> ());
  if !ok then Ok { lu = a; perm } else Error `Singular

let create mat basis =
  match factorize mat basis with
  | Ok factors ->
    Ok
      {
        mat;
        basis = Array.copy basis;
        factors;
        etas = Array.make refactor_every { erow = 0; ecol = [||] };
        n_etas = 0;
        refactorizations = 0;
      }
  | Error `Singular -> Error `Singular

let refactorize t =
  match factorize t.mat t.basis with
  | Ok factors ->
    t.factors <- factors;
    t.n_etas <- 0;
    t.refactorizations <- t.refactorizations + 1;
    Ok ()
  | Error `Singular -> Error `Singular

(* Solve B x = v in place:  P B = L U, so x = U^-1 L^-1 P v, then the
   eta file applied oldest to newest. *)
let ftran t v =
  let m = t.mat.Fp_lp.Basis.m in
  let { lu; perm } = t.factors in
  let w = Array.make m 0. in
  for i = 0 to m - 1 do
    w.(i) <- v.(perm.(i))
  done;
  for i = 0 to m - 1 do
    let row = lu.(i) in
    let acc = ref w.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (row.(j) *. w.(j))
    done;
    w.(i) <- !acc
  done;
  for i = m - 1 downto 0 do
    let row = lu.(i) in
    let acc = ref w.(i) in
    for j = i + 1 to m - 1 do
      acc := !acc -. (row.(j) *. w.(j))
    done;
    w.(i) <- !acc /. row.(i)
  done;
  Array.blit w 0 v 0 m;
  for k = 0 to t.n_etas - 1 do
    let { erow = r; ecol } = t.etas.(k) in
    let vr = v.(r) in
    if vr <> 0. then begin
      for i = 0 to m - 1 do
        v.(i) <- v.(i) +. (ecol.(i) *. vr)
      done;
      v.(r) <- ecol.(r) *. vr
    end
  done

(* Solve B^T x = v in place: apply eta transposes newest to oldest, then
   U^T z = v, L^T w = z, x = P^T w. *)
let btran t v =
  let m = t.mat.Fp_lp.Basis.m in
  for k = t.n_etas - 1 downto 0 do
    let { erow = r; ecol } = t.etas.(k) in
    let acc = ref 0. in
    for i = 0 to m - 1 do
      acc := !acc +. (ecol.(i) *. v.(i))
    done;
    (* ecol.(r) already holds the diagonal entry of E. *)
    v.(r) <- !acc
  done;
  let { lu; perm } = t.factors in
  let z = Array.make m 0. in
  for i = 0 to m - 1 do
    let acc = ref v.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (lu.(j).(i) *. z.(j))
    done;
    z.(i) <- !acc /. lu.(i).(i)
  done;
  for i = m - 1 downto 0 do
    let acc = ref z.(i) in
    for j = i + 1 to m - 1 do
      acc := !acc -. (lu.(j).(i) *. z.(j))
    done;
    z.(i) <- !acc
  done;
  for i = 0 to m - 1 do
    v.(perm.(i)) <- z.(i)
  done

let update t ~row ~col ~d =
  let m = t.mat.Fp_lp.Basis.m in
  let piv = d.(row) in
  if Float.abs piv <= pivot_tol then Error `Tiny_pivot
  else begin
    t.basis.(row) <- col;
    if t.n_etas >= refactor_every then
      match refactorize t with
      | Ok () -> Ok `Refactored
      | Error `Singular -> Error `Singular
    else begin
      let ecol = Array.make m 0. in
      for i = 0 to m - 1 do
        ecol.(i) <- -.d.(i) /. piv
      done;
      ecol.(row) <- 1. /. piv;
      t.etas.(t.n_etas) <- { erow = row; ecol };
      t.n_etas <- t.n_etas + 1;
      Ok `Updated
    end
  end
