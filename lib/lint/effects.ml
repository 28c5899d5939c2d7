(* Fixpoint effect inference over the call graph.

   Each definition gets a summary over the finite lattice

     { rng, clock, io, mutation, domain-spawn,
       raises-Abort, raises-Injected, catches-all }

   plus a per-parameter mutation bitset.  Direct effects come from a
   syntactic pass over the definition body (primitive tables below);
   the fixpoint then propagates summaries along resolved call edges
   until nothing changes — the lattice is a finite powerset ordered by
   inclusion and the transfer is monotone set union, so convergence is
   guaranteed (mutual recursion included) and no widening beyond the
   lattice top is ever needed.

   Classification notes (the precision envelope, also documented in
   docs/static-analysis.md):

   - [mutation] means "mutates state that is neither local to the
     definition nor one of its parameters": module-level refs, tables
     and arrays.  Parameter mutation is tracked separately in
     [mut_params] and flows through call-site argument heads, so a
     solver that scribbles on a locally-created problem is clean while
     one handed shared state is not.
   - A body that takes a [Mutex.lock] is trusted: its own direct
     mutations are considered synchronized and recorded as neither
     [mutation] nor parameter mutation (the linter cannot see lock
     extents; [Fault.fire]'s counter updates are the canonical case).
   - [Atomic.*]/[Mutex.*] operations are never mutation.
   - Aliasing is invisible: mutating a local that aliases shared state
     escapes the analysis.  TSan is the dynamic complement.
   - [catches-all] uses exactly SA006's refined predicate
     ({!Ast_util.swallowing_catch_all}), so the syntactic rule and the
     interprocedural one cannot disagree about what a swallowing
     handler is. *)

open Parsetree
open Ast_util

type eff =
  | Rng
  | Clock
  | Io
  | Mutation
  | Spawn
  | Raises_abort
  | Raises_injected
  | Catches_all

let all_effects =
  [ Rng; Clock; Io; Mutation; Spawn; Raises_abort; Raises_injected;
    Catches_all ]

let eff_name = function
  | Rng -> "rng"
  | Clock -> "clock"
  | Io -> "io"
  | Mutation -> "mutation"
  | Spawn -> "domain-spawn"
  | Raises_abort -> "raises-Abort"
  | Raises_injected -> "raises-Injected"
  | Catches_all -> "catches-all"

module Eff_set = Set.Make (struct
  type t = eff

  let compare = Stdlib.compare
end)

let top = Eff_set.of_list all_effects

type cause =
  | Prim of string * int   (* primitive path rendered, line *)
  | Through of string * int (* callee qname, call-site line *)

type summary = {
  effs : Eff_set.t;
  causes : (eff * cause) list;      (* first cause per acquired effect *)
  mut_params : int list;            (* sorted positional indices *)
  mut_causes : (int * cause) list;
}

let empty =
  { effs = Eff_set.empty; causes = []; mut_params = []; mut_causes = [] }

let has e s = Eff_set.mem e s.effs

let add_eff e cause s =
  if has e s then s
  else { s with effs = Eff_set.add e s.effs; causes = (e, cause) :: s.causes }

let add_mut i cause s =
  if List.mem i s.mut_params then s
  else
    {
      s with
      mut_params = List.sort Int.compare (i :: s.mut_params);
      mut_causes = (i, cause) :: s.mut_causes;
    }

let equal a b =
  Eff_set.equal a.effs b.effs && a.mut_params = b.mut_params

(* ------------------------------------------------------------------ *)
(* Primitive tables                                                     *)
(* ------------------------------------------------------------------ *)

let io_idents =
  [ "print_string"; "print_endline"; "print_newline"; "print_char";
    "print_int"; "print_float"; "print_bytes"; "prerr_string";
    "prerr_endline"; "prerr_newline"; "prerr_char"; "prerr_int";
    "prerr_float"; "prerr_bytes"; "stdout"; "stderr"; "read_line";
    "read_int"; "read_int_opt"; "read_float"; "read_float_opt";
    "input_line"; "input_char"; "input_byte"; "input_value";
    "really_input_string"; "open_in"; "open_in_bin"; "open_in_gen";
    "open_out"; "open_out_bin"; "open_out_gen"; "output_string";
    "output_char"; "output_byte"; "output_bytes"; "output_value" ]

let prim_effect p =
  match p with
  | "Random" :: _ -> Some Rng
  | [ "Hashtbl"; ("randomize" | "is_randomized") ] -> Some Rng
  | [ "Unix"; ("gettimeofday" | "time" | "times" | "sleep" | "sleepf") ]
  | [ "Sys"; "time" ] ->
    Some Clock
  | [ s ] when List.mem s io_idents -> Some Io
  (* [fprintf] is deliberately absent: it writes to its {e argument}
     channel/formatter, console IO only when handed
     std_formatter/stderr — and those idents classify on their own. *)
  | [ "Printf"; ("printf" | "eprintf") ]
  | [ "Format"; ("printf" | "eprintf" | "print_string"
                | "print_int" | "print_float" | "print_newline"
                | "print_flush" | "std_formatter" | "err_formatter") ]
  | "In_channel" :: _ | "Out_channel" :: _ ->
    Some Io
  | [ "Domain"; "spawn" ] -> Some Spawn
  | _ -> (
    match last2 p with
    | Some ("Pool", "with_pool") -> Some Spawn
    | Some ("Fault", "trip") -> Some Raises_injected
    | _ -> None)

let raise_construct e =
  let rec constr e =
    match e.pexp_desc with
    | Pexp_construct ({ txt; _ }, _) -> (
      match List.rev (flatten txt) with c :: _ -> Some c | [] -> None)
    | Pexp_constraint (e, _) -> constr e
    | _ -> None
  in
  match constr e with
  | Some "Abort" -> Some Raises_abort
  | Some "Injected" -> Some Raises_injected
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Direct (intraprocedural) extraction                                  *)
(* ------------------------------------------------------------------ *)

let body_locks e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_apply (f, _) -> (
            match ident_path f with
            | Some [ "Mutex"; "lock" ] -> found := true
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !found

let direct (d : Callgraph.def) =
  let param_index =
    let tbl = Hashtbl.create 8 in
    List.iteri
      (fun i (_, n) ->
        match n with Some n -> Hashtbl.replace tbl n i | None -> ())
      d.params;
    fun n -> Hashtbl.find_opt tbl n
  in
  let locked = body_locks d.body in
  let s = ref empty in
  let note e line = s := add_eff e (Prim (e |> eff_name, line)) !s in
  let note_prim e p line = s := add_eff e (Prim (String.concat "." p, line)) !s in
  (* Mutation of [target]: local -> nothing, parameter -> mut_params,
     anything else -> Mutation (module-level state).  Suppressed when
     the body takes a lock. *)
  let mutate locals target line =
    if not locked then
      match lvalue_head target with
      | Some x -> (
        (* Parameters first: the walker re-adds the leading [fun]
           chain's patterns as locals while descending, and a shadowed
           parameter mis-attributed as mutated only widens the summary
           (conservative). *)
        match param_index x with
        | Some i -> s := add_mut i (Prim ("mutates " ^ x, line)) !s
        | None ->
          if not (S.mem x locals) then
            (* Unqualified, unbound in the walk: a module-level binding
               of this file. *)
            note Mutation line)
      | None -> note Mutation line
  in
  let rec case locals c =
    let locals = S.union locals (S.of_list (pat_vars [] c.pc_lhs)) in
    Option.iter (walk locals) c.pc_guard;
    walk locals c.pc_rhs
  and walk locals e =
    match e.pexp_desc with
    | Pexp_let (rf, vbs, body) ->
      let bound = List.concat_map (fun vb -> pat_vars [] vb.pvb_pat) vbs in
      let locals' = S.union locals (S.of_list bound) in
      let rhs_env = if rf = Asttypes.Recursive then locals' else locals in
      List.iter (fun vb -> walk rhs_env vb.pvb_expr) vbs;
      walk locals' body
    | Pexp_fun (_, dflt, pat, body) ->
      Option.iter (walk locals) dflt;
      walk (S.union locals (S.of_list (pat_vars [] pat))) body
    | Pexp_newtype (_, body) -> walk locals body
    | Pexp_function cases -> List.iter (case locals) cases
    | Pexp_match (scrut, cases) ->
      walk locals scrut;
      List.iter (case locals) cases
    | Pexp_try (scrut, cases) ->
      (match swallowing_catch_all cases with
      | Some ca -> note Catches_all (line_of ca.pc_lhs.ppat_loc)
      | None -> ());
      walk locals scrut;
      List.iter (case locals) cases
    | Pexp_for (pat, lo, hi, _, body) ->
      walk locals lo;
      walk locals hi;
      walk (S.union locals (S.of_list (pat_vars [] pat))) body
    | Pexp_setfield (tgt, _, v) ->
      mutate locals tgt (line_of e.pexp_loc);
      walk locals tgt;
      walk locals v
    | Pexp_apply (f, args) ->
      (match ident_path f with
      | Some p ->
        let line = line_of e.pexp_loc in
        (match prim_effect p with
        | Some e -> note_prim e p line
        | None -> ());
        (match List.rev p with
        | ("raise" | "raise_notrace") :: _ -> (
          match args with
          | (_, a) :: _ -> (
            match raise_construct a with
            | Some e -> note e line
            | None -> ())
          | [] -> ())
        | _ -> ());
        (match (p, args) with
        | ([ ":=" ] | [ "incr" ] | [ "decr" ]), (_, r) :: _ ->
          mutate locals r line
        | [ "Array"; ("set" | "unsafe_set") ], (_, arr) :: _ ->
          mutate locals arr line
        | _, (_, c) :: _ when container_mutator p -> mutate locals c line
        | _ -> ())
      | None -> ());
      walk locals f;
      List.iter (fun (_, a) -> walk locals a) args
    | _ -> List.iter (walk locals) (sub_exprs e)
  in
  walk S.empty d.body;
  !s

(* ------------------------------------------------------------------ *)
(* Call-site argument matching                                          *)
(* ------------------------------------------------------------------ *)

(* The argument supplying the callee's parameter [j]: labelled
   parameters match by label, unlabelled positionally among the
   unlabelled arguments. *)
let arg_for (callee : Callgraph.def) (args : (Asttypes.arg_label * Callgraph.arg_head) list) j =
  match List.nth_opt callee.params j with
  | None -> None
  | Some (Asttypes.Nolabel, _) ->
    let pos =
      List.length
        (List.filteri
           (fun i (l, _) -> i < j && l = Asttypes.Nolabel)
           callee.params)
    in
    let unlabelled = List.filter (fun (l, _) -> l = Asttypes.Nolabel) args in
    Option.map snd (List.nth_opt unlabelled pos)
  | Some ((Asttypes.Labelled l | Asttypes.Optional l), _) ->
    List.find_map
      (fun (al, h) ->
        match al with
        | Asttypes.Labelled l' | Asttypes.Optional l' when l' = l -> Some h
        | _ -> None)
      args

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                             *)
(* ------------------------------------------------------------------ *)

type summaries = (string, summary) Hashtbl.t

let infer (cg : Callgraph.t) : summaries =
  let order =
    List.filter_map
      (fun q -> Option.map (fun d -> (q, d)) (Callgraph.find cg q))
      (Callgraph.defs_order cg)
  in
  let tbl : summaries = Hashtbl.create 256 in
  List.iter (fun (q, d) -> Hashtbl.replace tbl q (direct d)) order;
  let param_index (d : Callgraph.def) name =
    let rec go i = function
      | [] -> None
      | (_, Some n) :: _ when n = name -> Some i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 d.params
  in
  let step (q, (d : Callgraph.def)) =
    let s0 = Hashtbl.find tbl q in
    let s =
      List.fold_left
        (fun s (c : Callgraph.call) ->
          match Hashtbl.find_opt tbl c.callee with
          | None -> s
          | Some cs ->
            (* Plain effects flow unconditionally along the edge. *)
            let s =
              Eff_set.fold
                (fun e s -> add_eff e (Through (c.callee, c.line)) s)
                cs.effs s
            in
            (* Parameter mutation flows through argument heads: if the
               callee mutates parameter [j] and we supplied one of our
               own parameters there, we mutate that parameter; if we
               supplied module-level state, that is a Mutation.  Local
               and opaque heads stay benign (a locally-created value
               handed to a mutator is the normal ownership pattern). *)
            if c.args = [] then s
            else
              match Callgraph.find cg c.callee with
              | None -> s
              | Some cd ->
                List.fold_left
                  (fun s j ->
                    match arg_for cd c.args j with
                    | Some (Callgraph.Head h) -> (
                      match param_index d h with
                      | Some i -> add_mut i (Through (c.callee, c.line)) s
                      | None -> s)
                    | Some Callgraph.Global ->
                      add_eff Mutation (Through (c.callee, c.line)) s
                    | Some Callgraph.Opaque | None -> s)
                  s cs.mut_params)
        s0 (Callgraph.calls cg q)
    in
    if equal s s0 then false
    else begin
      Hashtbl.replace tbl q s;
      true
    end
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter (fun qd -> if step qd then changed := true) order
  done;
  tbl

let summary_of (tbl : summaries) q =
  Option.value ~default:empty (Hashtbl.find_opt tbl q)

(* ------------------------------------------------------------------ *)
(* Witness chains                                                       *)
(* ------------------------------------------------------------------ *)

(* Follow the recorded first-causes from [q] down to the primitive that
   introduced [e]: ["run_task"; "out_of_time"; "Unix.gettimeofday"]. *)
let chain (tbl : summaries) q e =
  let rec go acc q depth =
    if depth > 50 then List.rev ("..." :: acc)
    else
      match Hashtbl.find_opt tbl q with
      | None -> List.rev acc
      | Some s -> (
        match List.assoc_opt e s.causes with
        | Some (Prim (p, _)) -> List.rev (p :: acc)
        | Some (Through (callee, _)) -> go (callee :: acc) callee (depth + 1)
        | None -> List.rev acc)
  in
  go [ q ] q 0

let mut_chain (tbl : summaries) q j =
  let rec go acc q j depth =
    if depth > 50 then List.rev ("..." :: acc)
    else
      match Hashtbl.find_opt tbl q with
      | None -> List.rev acc
      | Some s -> (
        match List.assoc_opt j s.mut_causes with
        | Some (Prim (p, _)) -> List.rev (p :: acc)
        | Some (Through (callee, _)) -> (
          (* Find which of the callee's parameters continues the chain:
             the first mutated one — precise enough for a witness. *)
          match Hashtbl.find_opt tbl callee with
          | Some cs when cs.mut_params <> [] ->
            go (callee :: acc) callee (List.hd cs.mut_params) (depth + 1)
          | _ -> List.rev (callee :: acc))
        | None -> List.rev acc)
  in
  go [ q ] q j 0

(* ------------------------------------------------------------------ *)
(* The --effects report                                                 *)
(* ------------------------------------------------------------------ *)

let summary_line (d : Callgraph.def) s =
  let effs = List.filter (fun e -> Eff_set.mem e s.effs) all_effects in
  let muts =
    List.map
      (fun j ->
        let name =
          match List.nth_opt d.params j with
          | Some (_, Some n) -> n
          | _ -> "#" ^ string_of_int j
        in
        Printf.sprintf "mutates(%s)" name)
      s.mut_params
  in
  let parts = List.map eff_name effs @ muts in
  if parts = [] then None
  else
    let short =
      match String.index_opt d.qname '.' with
      | Some i -> String.sub d.qname (i + 1) (String.length d.qname - i - 1)
      | None -> d.qname
    in
    Some (Printf.sprintf "- `%s`: %s" short (String.concat ", " parts))

(* Per-module effect summaries for lib/ — the committed
   docs/effects-summary.md artifact, drift-checked in CI.  Only lib/
   is reported: the CLI/bench layers print and read clocks by design,
   so their summaries are all noise.  Deliberately line-number-free so
   unrelated edits do not churn the committed file. *)
let report (cg : Callgraph.t) (tbl : summaries) =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "# Effect summaries (generated — do not edit)\n\
     \n\
     Per-function effect summaries over `lib/`, inferred by the\n\
     `Fp_lint` interprocedural fixpoint (see docs/static-analysis.md).\n\
     Regenerate with:\n\
     \n\
     ```sh\n\
     dune exec bin/fp_lint.exe -- --root . --effects > docs/effects-summary.md\n\
     ```\n\
     \n\
     CI diffs this file against the regenerated output, so a change in\n\
     any function's effect summary must be committed (and reviewed)\n\
     here.  Functions with the empty summary are omitted.\n";
  let files =
    List.sort_uniq String.compare
      (List.filter_map
         (fun q -> Option.map (fun (d : Callgraph.def) -> d.file)
             (Callgraph.find cg q))
         (Callgraph.defs_order cg))
  in
  List.iter
    (fun file ->
      if String.length file >= 4 && String.sub file 0 4 = "lib/" then begin
        let lines =
          List.filter_map
            (fun (d : Callgraph.def) -> summary_line d (summary_of tbl d.qname))
            (Callgraph.defs_in_file cg file)
        in
        if lines <> [] then begin
          let m = Callgraph.module_of_path file in
          Buffer.add_string b (Printf.sprintf "\n## %s (`%s`)\n\n" m file);
          List.iter (fun l -> Buffer.add_string b (l ^ "\n")) lines
        end
      end)
    files;
  Buffer.contents b
