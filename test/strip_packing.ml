module Expr = Fp_milp.Expr
module Model = Fp_milp.Model

let model ~chip_w ~big_h dims =
  let m = Model.create () in
  let n = Array.length dims in
  let x =
    Array.init n (fun i ->
        Model.add_continuous m ~ub:(chip_w -. fst dims.(i)) (Printf.sprintf "x%d" i))
  in
  let y = Array.init n (fun i -> Model.add_continuous m (Printf.sprintf "y%d" i)) in
  let h = Model.add_continuous m "h" in
  Array.iteri
    (fun i (_, hi) ->
      Model.add_constr m Expr.(var y.(i) + const hi) Model.Le (Expr.var h))
    dims;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let wi, hi = dims.(i) and wj, hj = dims.(j) in
      let p = Model.add_binary m (Printf.sprintf "p%d%d" i j) in
      let q = Model.add_binary m (Printf.sprintf "q%d%d" i j) in
      Model.declare_pair m p q;
      Model.add_constr m Expr.(var x.(i) + const wi) Model.Le
        Expr.(var x.(j) + (chip_w * (var p + var q)));
      Model.add_constr m Expr.(var x.(j) + const wj) Model.Le
        Expr.(var x.(i) + (chip_w * (const 1. - var p + var q)));
      Model.add_constr m Expr.(var y.(i) + const hi) Model.Le
        Expr.(var y.(j) + (big_h * (const 1. + var p - var q)));
      Model.add_constr m Expr.(var y.(j) + const hj) Model.Le
        Expr.(var y.(i) + (big_h * (const 2. - var p - var q)))
    done
  done;
  Model.set_objective m `Minimize (Expr.var h);
  m
