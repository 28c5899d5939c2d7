(* Parsetree helpers for the per-file rules ({!Rules}).

   Everything here is purely syntactic: the linter runs before typing,
   so these are conservative building blocks. *)

open Parsetree
module S = Set.Make (String)

let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply _ -> []

(* Qualified names match modulo an explicit [Stdlib.] prefix. *)
let norm = function "Stdlib" :: rest -> rest | p -> p

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (norm (flatten txt))
  | _ -> None

let last2 p =
  match List.rev p with b :: a :: _ -> Some (a, b) | _ -> None

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

let rec pat_vars acc p =
  match p.ppat_desc with
  | Ppat_var { txt; _ } -> txt :: acc
  | Ppat_alias (p, { txt; _ }) -> pat_vars (txt :: acc) p
  | Ppat_tuple ps | Ppat_array ps -> List.fold_left pat_vars acc ps
  | Ppat_construct (_, Some (_, p)) -> pat_vars acc p
  | Ppat_variant (_, Some p) -> pat_vars acc p
  | Ppat_record (fs, _) ->
    List.fold_left (fun acc (_, p) -> pat_vars acc p) acc fs
  | Ppat_or (a, b) -> pat_vars (pat_vars acc a) b
  | Ppat_constraint (p, _) | Ppat_lazy p | Ppat_open (_, p)
  | Ppat_exception p ->
    pat_vars acc p
  | _ -> acc

(* Direct sub-expressions of [e], via a non-recursing iterator hook. *)
let sub_exprs e =
  let acc = ref [] in
  let it =
    { Ast_iterator.default_iterator with expr = (fun _ ex -> acc := ex :: !acc) }
  in
  Ast_iterator.default_iterator.expr it e;
  List.rev !acc

(* Does [e] contain a free occurrence of the plain identifier [name]?
   (Syntactic: rebinding inside [e] is not tracked — fine for the short
   index expressions this is used on.) *)
let mentions_name name e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_ident { txt = Longident.Lident s; _ } when s = name ->
            found := true
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !found

let mentions_any names e = S.exists (fun n -> mentions_name n e) names

(* The innermost identifier an lvalue expression roots in: [x], [x.f.g],
   [(x : t)].  [None] for module-qualified or computed targets — those
   are necessarily captured. *)
let rec lvalue_head e =
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident s; _ } -> Some s
  | Pexp_field (e, _) | Pexp_constraint (e, _) -> lvalue_head e
  | _ -> None

let is_fun_literal e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

let pool_fn p =
  match last2 p with
  | Some ("Pool", (("run" | "map") as m)) -> Some ("Pool." ^ m)
  | _ -> None

let container_mutator = function
  | [ "Bytes"; ("set" | "unsafe_set" | "blit" | "blit_string" | "fill") ]
  | [ "Hashtbl"; ("add" | "replace" | "remove" | "reset" | "clear"
                 | "filter_map_inplace" ) ]
  | [ "Queue"; ("push" | "add" | "pop" | "take" | "clear" | "transfer") ]
  | [ "Stack"; ("push" | "pop" | "clear") ] ->
    true
  | "Buffer" :: (op :: _) when String.length op >= 4
                              && String.sub op 0 4 = "add_" ->
    true
  | [ "Buffer"; ("clear" | "reset" | "truncate") ] -> true
  (* set_int8 ... set_int64_ne, set_utf_8_uchar, ... *)
  | [ "Bytes"; op ] when String.starts_with ~prefix:"set_" op -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Exception-flow shapes for SA006                                      *)
(* ------------------------------------------------------------------ *)

let rec pat_mentions_construct names p =
  match p.ppat_desc with
  | Ppat_construct ({ txt; _ }, arg) ->
    (match List.rev (flatten txt) with
    | last :: _ when List.mem last names -> true
    | _ -> false)
    || (match arg with
       | Some (_, p) -> pat_mentions_construct names p
       | None -> false)
  | Ppat_or (a, b) ->
    pat_mentions_construct names a || pat_mentions_construct names b
  | Ppat_alias (p, _) | Ppat_constraint (p, _) | Ppat_exception p
  | Ppat_lazy p | Ppat_open (_, p) ->
    pat_mentions_construct names p
  | _ -> false

let body_raises e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_apply (f, _) -> (
            match ident_path f with
            | Some p -> (
              match List.rev p with
              | ("raise" | "raise_notrace" | "reraise") :: _ -> found := true
              | _ -> ())
            | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !found

let is_catch_all c =
  c.pc_guard = None
  &&
  match c.pc_lhs.ppat_desc with
  | Ppat_any | Ppat_var _ -> true
  | Ppat_alias ({ ppat_desc = Ppat_any; _ }, _) -> true
  | _ -> false

(* A catch-all that merely {e records} the caught exception for a later
   re-raise — the pool's drain pattern, [t.pending_exn <- Some exn] —
   is containment, not swallowing: the value is preserved, not dropped.
   Recognized shape: the catch variable flows into a ref/field/container
   store somewhere in the handler body. *)
let stores_caught c =
  let vars = S.of_list (pat_vars [] c.pc_lhs) in
  if S.is_empty vars then false
  else begin
    let found = ref false in
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun self ex ->
            (match ex.pexp_desc with
            | Pexp_setfield (_, _, v) -> if mentions_any vars v then found := true
            | Pexp_apply (f, args) -> (
              match ident_path f with
              | Some [ ":=" ] -> (
                match args with
                | _ :: (_, v) :: _ ->
                  if mentions_any vars v then found := true
                | _ -> ())
              | Some p when container_mutator p ->
                if List.exists (fun (_, a) -> mentions_any vars a) args then
                  found := true
              | _ -> ())
            | _ -> ());
            Ast_iterator.default_iterator.expr self ex);
      }
    in
    it.expr it c.pc_rhs;
    !found
  end

(* The swallowing catch-all of a handler list, if any.  [None] when the
   handlers are safe: no catch-all, a catch-all that re-raises, one that
   records the exception for a later re-raise ({!stores_caught}), or a
   sibling case that re-raises [Abort] (the sanctioned containment
   shape: everything {e but} the cooperative interrupt is absorbed). *)
let swallowing_catch_all cases =
  match List.find_opt is_catch_all cases with
  | None -> None
  | Some ca ->
    let contained =
      List.exists
        (fun c ->
          pat_mentions_construct [ "Abort" ] c.pc_lhs && body_raises c.pc_rhs)
        cases
    in
    if contained || body_raises ca.pc_rhs || stores_caught ca then None
    else Some ca
