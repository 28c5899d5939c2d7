type mat = {
  m : int;
  col_start : int array;
  row : int array;
  value : float array;
}

let pivot_tol = 1e-10
let refactor_every = 64

(* LU factors of one basis matrix, P B = L U: row [i] of the factored
   matrix is row [perm.(i)] of B.  They are kept without their zero
   entries, L (unit diagonal implied) by columns and U by rows without
   its diagonal [udiag], every line in ascending index order.  Immutable
   once built. *)
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

(* The elimination's working storage.  Row [r] of the basis matrix is
   its [rlen.(r)] entries, entry [e] in column [rcol.(r).(e)] with value
   [rval.(r).(e)]; rows never move, and an entry keeps its index once
   added.  Column [j] lists its entries, [clen.(j)] of them, as rows
   [crow.(j)] and entry indices [cent.(j)].  Step [k] settles L's column
   [k] and U's row [k], which are written as they settle: L's entries as
   rows [lrow] (turned into positions at the end) and values [lval], U's
   as columns [uidx] and values [uval].  Every array grows on demand and
   is kept across factorizations, so the storage is O(m + entries +
   fill) of the largest basis factorized so far. *)
type elim = {
  rcol : int array array;
  rval : float array array;
  rlen : int array;
  crow : int array array;
  cent : int array array;
  clen : int array;
  pos : int array;   (* each row's current position *)
  slot : int array;  (* column -> the pivot row's entry in U, or -1 *)
  mark : int array;  (* column -> the last update that found it in its row *)
  mutable stamp : int;
  mutable lrow : int array;
  mutable lval : float array;
  mutable uidx : int array;
  mutable uval : float array;
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
  elim : elim;
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

let elim m =
  let lines zero = Array.init m (fun _ -> Array.make 4 zero) in
  {
    rcol = lines 0; rval = lines 0.; rlen = Array.make m 0;
    crow = lines 0; cent = lines 0; clen = Array.make m 0;
    pos = Array.make m 0; slot = Array.make m (-1);
    mark = Array.make m 0; stamp = 0;
    lrow = Array.make m 0; lval = Array.make m 0.;
    uidx = Array.make m 0; uval = Array.make m 0.;
  }

(* [a]'s elements at the front of an array of length [len]. *)
let resize a len zero =
  let b = Array.make len zero in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Room for [n] entries of L and of U. *)
let reserve w n =
  if n > Array.length w.lrow then begin
    w.lrow <- resize w.lrow (2 * n) 0;
    w.lval <- resize w.lval (2 * n) 0.
  end;
  if n > Array.length w.uidx then begin
    w.uidx <- resize w.uidx (2 * n) 0;
    w.uval <- resize w.uval (2 * n) 0.
  end

(* Appends an entry in column [j] to row [r] and returns its index; the
   caller sets its value (a float argument would be boxed). *)
let push w r j =
  let e = w.rlen.(r) in
  if e = Array.length w.rcol.(r) then begin
    w.rcol.(r) <- resize w.rcol.(r) (2 * e) 0;
    w.rval.(r) <- resize w.rval.(r) (2 * e) 0.
  end;
  w.rcol.(r).(e) <- j;
  w.rlen.(r) <- e + 1;
  let c = w.clen.(j) in
  if c = Array.length w.crow.(j) then begin
    w.crow.(j) <- resize w.crow.(j) (2 * c) 0;
    w.cent.(j) <- resize w.cent.(j) (2 * c) 0
  end;
  w.crow.(j).(c) <- r;
  w.cent.(j).(c) <- e;
  w.clen.(j) <- c + 1;
  e

(* Row [r] -= l * U's row [k], where l is row [r]'s entry [le]: the
   dense update's terms where the pivot row has a nonzero entry right of
   the pivot, the others being products with a zero.  A missing entry of
   row [r] is filled as the dense [0. -. l *. u]. *)
let eliminate w ~k r le ustart =
  let l = w.rval.(r).(le) in
  w.stamp <- w.stamp + 1;
  let stamp = w.stamp in
  let cols = w.rcol.(r) and vals = w.rval.(r) in
  for e = 0 to w.rlen.(r) - 1 do
    let j = cols.(e) in
    let q = w.slot.(j) in
    if q >= 0 then begin
      vals.(e) <- vals.(e) -. (l *. w.uval.(q));
      w.mark.(j) <- stamp
    end
  done;
  for q = ustart.(k) to ustart.(k + 1) - 1 do
    let j = w.uidx.(q) in
    if w.mark.(j) <> stamp then begin
      let e = push w r j in
      w.rval.(r).(e) <- 0. -. (l *. w.uval.(q))
    end
  done

(* Step [k] of the elimination: the pivot of column [k] is the largest
   magnitude among the rows not yet pivoted, the lowest position on
   ties, as the dense scan finds it; its row moves to position [k] by
   exchanging positions with the row there.  Its entries right of [k]
   are U's row [k], written in ascending column.  Every later row with
   an entry in column [k] is then eliminated, and the entries left in
   column [k] are L's column [k].  Returns false when the pivot is at or
   below [pivot_tol]. *)
let step w perm udiag lstart ustart k =
  let crow = w.crow.(k) and cent = w.cent.(k) in
  let p = ref (-1) and pe = ref 0 and best = ref (-1.) in
  for c = 0 to w.clen.(k) - 1 do
    let r = crow.(c) in
    let i = w.pos.(r) in
    if i >= k then begin
      let a = Float.abs w.rval.(r).(cent.(c)) in
      if a > !best || (a = !best && i < w.pos.(!p)) then begin
        p := r;
        pe := cent.(c);
        best := a
      end
    end
  done;
  !best > pivot_tol
  && begin
    let p = !p in
    let i = w.pos.(p) and q = perm.(k) in
    perm.(k) <- p;
    perm.(i) <- q;
    w.pos.(q) <- i;
    w.pos.(p) <- k;
    let piv = w.rval.(p).(!pe) in
    udiag.(k) <- piv;
    let pcols = w.rcol.(p) and pvals = w.rval.(p) in
    reserve w (Int.max (lstart.(k) + w.clen.(k)) (ustart.(k) + w.rlen.(p)));
    let uidx = w.uidx and uval = w.uval in
    let q0 = ustart.(k) and q = ref ustart.(k) in
    for f = 0 to w.rlen.(p) - 1 do
      let j = pcols.(f) and v = pvals.(f) in
      if j > k && v <> 0. then begin
        let s = ref !q in
        while !s > q0 && uidx.(!s - 1) > j do
          uidx.(!s) <- uidx.(!s - 1);
          uval.(!s) <- uval.(!s - 1);
          decr s
        done;
        uidx.(!s) <- j;
        uval.(!s) <- v;
        incr q
      end
    done;
    ustart.(k + 1) <- !q;
    for q = q0 to !q - 1 do
      w.slot.(uidx.(q)) <- q
    done;
    let q = ref lstart.(k) in
    for c = 0 to w.clen.(k) - 1 do
      let r = crow.(c) in
      if w.pos.(r) > k then begin
        let e = cent.(c) in
        let l = w.rval.(r).(e) /. piv in
        (* A multiplier that underflows leaves the entry, as L's value,
           and the row as they were. *)
        if l <> 0. then begin
          w.rval.(r).(e) <- l;
          eliminate w ~k r e ustart
        end;
        let v = w.rval.(r).(e) in
        if v <> 0. then begin
          w.lrow.(!q) <- r;
          w.lval.(!q) <- v;
          incr q
        end
      end
    done;
    lstart.(k + 1) <- !q;
    for q = q0 to ustart.(k + 1) - 1 do
      w.slot.(uidx.(q)) <- -1
    done;
    true
  end

(* LU with partial pivoting of the m x m basis matrix B[:,j] =
   A[:, basis.(j)], right-looking and sparse, in [w].  It replays the
   dense elimination: columns in basis order, the same pivots, rows
   exchanged only through their positions, and each update term that
   the dense code computes with a nonzero factor computed the same way.
   The terms it skips are products with a zero, so the factors are the
   dense ones bit for bit, and they are written in the dense layout: L
   by columns in ascending final position, U by rows in ascending
   column, both without their zeros.  Returns Error `Singular when a
   pivot column has no entry above [pivot_tol]. *)
let factorize_in w mat basis =
  let m = mat.m in
  Array.fill w.rlen 0 m 0;
  Array.fill w.clen 0 m 0;
  for j = 0 to m - 1 do
    let bj = basis.(j) in
    for e = mat.col_start.(bj) to mat.col_start.(bj + 1) - 1 do
      let r = mat.row.(e) in
      let f = push w r j in
      w.rval.(r).(f) <- mat.value.(e)
    done
  done;
  let perm = Array.init m Fun.id in
  Array.blit perm 0 w.pos 0 m;
  let udiag = Array.make m 0. in
  let lstart = Array.make (m + 1) 0 and ustart = Array.make (m + 1) 0 in
  let k = ref 0 in
  while !k < m && step w perm udiag lstart ustart !k do
    incr k
  done;
  if !k < m then Error `Singular
  else begin
    let lidx = Array.make lstart.(m) 0 and lval = Array.make lstart.(m) 0. in
    for k = 0 to m - 1 do
      for q = lstart.(k) to lstart.(k + 1) - 1 do
        let i = w.pos.(w.lrow.(q)) and v = w.lval.(q) in
        let s = ref q in
        while !s > lstart.(k) && lidx.(!s - 1) > i do
          lidx.(!s) <- lidx.(!s - 1);
          lval.(!s) <- lval.(!s - 1);
          decr s
        done;
        lidx.(!s) <- i;
        lval.(!s) <- v
      done
    done;
    Ok
      { fmat = mat; fbasis = Array.copy basis; perm;
        lstart; lidx; lval; ustart;
        uidx = Array.sub w.uidx 0 ustart.(m);
        uval = Array.sub w.uval 0 ustart.(m);
        udiag }
  end

let factorize t basis = factorize_in t.elim t.mat basis

let create mat basis =
  let m = mat.m in
  let elim = elim m in
  match factorize_in elim mat basis with
  | Error `Singular -> Error `Singular
  | Ok factors ->
    Ok
      {
        mat; basis = Array.copy basis; factors; elim;
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
