type mat = {
  m : int;
  col_start : int array;
  row : int array;
  value : float array;
}

let pivot_tol = 1e-10
let refactor_every = 64

(* LU factors of one basis matrix, P B = L U: row [i] of the factored
   matrix is row [perm.(i)] of B.  The dense elimination computes them;
   they are kept without their zero entries, L (unit diagonal implied) by
   columns and U by rows without its diagonal [udiag], every line in
   ascending index order.  Immutable once built. *)
type factors = {
  fmat : mat;
  fbasis : int array;
  perm : int array;
  lstart : int array;  (* L column k: rows > k *)
  lidx : int array;
  lval : float array;
  ustart : int array;  (* U row i: columns > i *)
  uidx : int array;
  uval : float array;
  udiag : float array;
}

(* Product-form update: B_new = B_old with column [r] replaced, so
   B_new^-1 = E B_old^-1 where E is the identity with column [r]
   replaced by the eta column.  Eta [k] replaces column [eta_row.(k)];
   its nonzero entries, the diagonal [eta_diag.(k)] among them, are
   [eta_idx]/[eta_val] from [eta_start.(k)] to [eta_start.(k + 1) - 1],
   in ascending row order. *)
type t = {
  mat : mat;
  basis : int array;
  mutable factors : factors;
  a : float array array;  (* the elimination's m x m working matrix *)
  work : float array;     (* ftran/btran scratch, length m *)
  eta_row : int array;
  eta_diag : float array;
  eta_start : int array;
  mutable eta_idx : int array;
  mutable eta_val : float array;
  mutable n_etas : int;
  mutable refactorizations : int;
}

let basis t = t.basis
let refactorizations t = t.refactorizations

(* The factors the elimination left in [a], without their zeros: column
   [k] of L and row [k] of U, right of the diagonal, are both read from
   index [k + 1] upwards. *)
let compress a mat basis perm =
  let m = mat.m in
  let lstart = Array.make (m + 1) 0 and ustart = Array.make (m + 1) 0 in
  for k = 0 to m - 1 do
    let nl = ref 0 and nu = ref 0 in
    for i = k + 1 to m - 1 do
      if a.(i).(k) <> 0. then incr nl;
      if a.(k).(i) <> 0. then incr nu
    done;
    lstart.(k + 1) <- lstart.(k) + !nl;
    ustart.(k + 1) <- ustart.(k) + !nu
  done;
  let lidx = Array.make lstart.(m) 0 and lval = Array.make lstart.(m) 0. in
  let uidx = Array.make ustart.(m) 0 and uval = Array.make ustart.(m) 0. in
  for k = 0 to m - 1 do
    let pl = ref lstart.(k) and pu = ref ustart.(k) in
    for i = k + 1 to m - 1 do
      let l = a.(i).(k) and u = a.(k).(i) in
      if l <> 0. then begin
        lidx.(!pl) <- i;
        lval.(!pl) <- l;
        incr pl
      end;
      if u <> 0. then begin
        uidx.(!pu) <- i;
        uval.(!pu) <- u;
        incr pu
      end
    done
  done;
  { fmat = mat; fbasis = Array.copy basis; perm;
    lstart; lidx; lval; ustart; uidx; uval;
    udiag = Array.init m (fun k -> a.(k).(k)) }

(* LU with partial pivoting of the m x m basis matrix B[:,j] =
   A[:, basis.(j)], dense, in the working matrix [a].  Returns Error
   `Singular when a pivot column has no entry above [pivot_tol]. *)
let factorize_in a mat basis =
  let m = mat.m in
  Array.iter (fun row -> Array.fill row 0 m 0.) a;
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
  if !ok then Ok (compress a mat basis perm) else Error `Singular

let factorize t basis = factorize_in t.a t.mat basis

let create mat basis =
  let m = mat.m in
  let a = Array.make_matrix m m 0. in
  match factorize_in a mat basis with
  | Error `Singular -> Error `Singular
  | Ok factors ->
    Ok
      {
        mat; basis = Array.copy basis; factors; a;
        work = Array.make m 0.;
        eta_row = Array.make refactor_every 0;
        eta_diag = Array.make refactor_every 0.;
        eta_start = Array.make (refactor_every + 1) 0;
        eta_idx = Array.make m 0;
        eta_val = Array.make m 0.;
        n_etas = 0;
        refactorizations = 0;
      }

let factors t = t.factors

let load t f =
  if f.fmat != t.mat then invalid_arg "Basis.load: factors of another matrix";
  Array.blit f.fbasis 0 t.basis 0 t.mat.m;
  t.factors <- f;
  t.n_etas <- 0;
  t.refactorizations <- 0

let refactorize t =
  match factorize t t.basis with
  | Ok factors ->
    t.factors <- factors;
    t.n_etas <- 0;
    t.refactorizations <- t.refactorizations + 1;
    Ok ()
  | Error `Singular -> Error `Singular

(* The solves below subtract and add the terms of the dense triangular
   solves in the same order, skipping the terms whose factor is zero.  A
   skipped term is a signed zero, which leaves a nonzero sum unchanged
   and can flip only the sign of a zero one; no caller reads that sign
   (comparisons and [Float.equal] treat -0 and +0 alike, and every
   division is by a pivot checked against a tolerance). *)

(* Solve B x = v in place:  P B = L U, so x = U^-1 L^-1 P v (L as a
   scatter by columns, U as a gather by rows), then the eta file applied
   oldest to newest. *)
let ftran t v =
  let m = t.mat.m and w = t.work and f = t.factors in
  let perm = f.perm in
  for i = 0 to m - 1 do
    w.(i) <- v.(perm.(i))
  done;
  let start = f.lstart and idx = f.lidx and vals = f.lval in
  for k = 0 to m - 1 do
    let wk = w.(k) in
    if wk <> 0. then
      for e = start.(k) to start.(k + 1) - 1 do
        let i = idx.(e) in
        w.(i) <- w.(i) -. (vals.(e) *. wk)
      done
  done;
  let start = f.ustart and idx = f.uidx and vals = f.uval in
  for i = m - 1 downto 0 do
    let acc = ref w.(i) in
    for e = start.(i) to start.(i + 1) - 1 do
      acc := !acc -. (vals.(e) *. w.(idx.(e)))
    done;
    w.(i) <- !acc /. f.udiag.(i)
  done;
  Array.blit w 0 v 0 m;
  let idx = t.eta_idx and vals = t.eta_val in
  for k = 0 to t.n_etas - 1 do
    let r = t.eta_row.(k) in
    let vr = v.(r) in
    if vr <> 0. then begin
      for e = t.eta_start.(k) to t.eta_start.(k + 1) - 1 do
        let i = idx.(e) in
        v.(i) <- v.(i) +. (vals.(e) *. vr)
      done;
      v.(r) <- t.eta_diag.(k) *. vr
    end
  done

(* Solve B^T x = v in place: apply eta transposes newest to oldest, then
   U^T z = v (a scatter by U's rows), L^T w = z (a gather by L's
   columns), x = P^T w. *)
let btran t v =
  let m = t.mat.m and w = t.work in
  let idx = t.eta_idx and vals = t.eta_val in
  for k = t.n_etas - 1 downto 0 do
    let acc = ref 0. in
    for e = t.eta_start.(k) to t.eta_start.(k + 1) - 1 do
      acc := !acc +. (vals.(e) *. v.(idx.(e)))
    done;
    v.(t.eta_row.(k)) <- !acc
  done;
  let f = t.factors in
  Array.blit v 0 w 0 m;
  let start = f.ustart and idx = f.uidx and vals = f.uval in
  for j = 0 to m - 1 do
    let zj = w.(j) /. f.udiag.(j) in
    w.(j) <- zj;
    if zj <> 0. then
      for e = start.(j) to start.(j + 1) - 1 do
        let i = idx.(e) in
        w.(i) <- w.(i) -. (vals.(e) *. zj)
      done
  done;
  let start = f.lstart and idx = f.lidx and vals = f.lval in
  for i = m - 1 downto 0 do
    let acc = ref w.(i) in
    for e = start.(i) to start.(i + 1) - 1 do
      acc := !acc -. (vals.(e) *. w.(idx.(e)))
    done;
    w.(i) <- !acc
  done;
  let perm = f.perm in
  for i = 0 to m - 1 do
    v.(perm.(i)) <- w.(i)
  done

let update t ~row ~col ~d =
  let m = t.mat.m in
  let piv = d.(row) in
  if Float.abs piv <= pivot_tol then Error `Tiny_pivot
  else begin
    t.basis.(row) <- col;
    if t.n_etas >= refactor_every then
      match refactorize t with
      | Ok () -> Ok `Refactored
      | Error `Singular -> Error `Singular
    else begin
      let k = t.n_etas in
      let p = ref t.eta_start.(k) in
      if !p + m > Array.length t.eta_idx then begin
        let grow a zero =
          let b = Array.make (2 * (!p + m)) zero in
          Array.blit a 0 b 0 !p;
          b
        in
        t.eta_idx <- grow t.eta_idx 0;
        t.eta_val <- grow t.eta_val 0.
      end;
      for i = 0 to m - 1 do
        let e = if i = row then 1. /. piv else -.d.(i) /. piv in
        if e <> 0. then begin
          t.eta_idx.(!p) <- i;
          t.eta_val.(!p) <- e;
          incr p
        end
      done;
      t.eta_row.(k) <- row;
      t.eta_diag.(k) <- 1. /. piv;
      t.eta_start.(k + 1) <- !p;
      t.n_etas <- k + 1;
      Ok `Updated
    end
  end
