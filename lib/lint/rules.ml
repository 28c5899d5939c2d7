open Parsetree
open Ast_util

type role = Lib | Bin | Bench | Examples | Other

let role_of_path path =
  let first =
    match String.index_opt path '/' with
    | Some i -> String.sub path 0 i
    | None -> ""
  in
  match first with
  | "lib" -> Lib
  | "bin" -> Bin
  | "bench" -> Bench
  | "examples" -> Examples
  | _ -> Other

type context = { known_sites : string list }

let applies rule ~role ~path =
  match (rule : Finding.rule) with
  | SA000 -> true
  | SA001 -> role = Lib && path <> "lib/geometry/tol.ml"
  | SA002 -> path <> "lib/util/rng.ml"
  | SA003 -> role = Lib
  | SA004 -> role = Lib && path <> "lib/core/augment.ml"
  | SA005 -> true
  | SA006 -> role = Lib
  | SA007 -> true
  | SA008 -> path <> "lib/core/degradation.ml"
  (* Deterministic replay is a library concern; the CLI/bench layers
     read clocks and print by design.  Exception flow below pool tasks
     and captured-state escapes are wrong in every role. *)
  | SA010 -> role = Lib
  | SA011 -> true
  | SA012 -> true
  (* CLI and bench code leaks channels and races atomics just as well
     as lib/ does. *)
  | SA014 -> true
  | SA017 -> true

(* ------------------------------------------------------------------ *)
(* SA001: raw float comparisons                                        *)
(* ------------------------------------------------------------------ *)

let cmp_ops = [ "="; "<>"; "<"; ">"; "<="; ">="; "compare" ]

let float_arith =
  [ "+."; "-."; "*."; "/."; "**"; "~-."; "abs_float"; "sqrt"; "float_of_int";
    "float_of_string" ]

let float_consts =
  [ "infinity"; "neg_infinity"; "nan"; "epsilon_float"; "max_float";
    "min_float" ]

(* Syntactically-float: a float literal, float arithmetic, a [Float.]
   producer, or a float-annotated expression.  A conservative
   approximation of "this comparison is on floats" that needs no type
   information. *)
let rec floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_constraint (e', ty) -> (
    match ty.ptyp_desc with
    | Ptyp_constr ({ txt = Longident.Lident "float"; _ }, []) -> true
    | _ -> floatish e')
  | Pexp_ident { txt; _ } -> (
    match norm (flatten txt) with
    | [ s ] -> List.mem s float_consts
    | [ "Float"; ("pi" | "infinity" | "neg_infinity" | "nan" | "epsilon"
                 | "max_float" | "min_float") ] ->
      true
    | _ -> false)
  | Pexp_apply (f, _) -> (
    match ident_path f with
    | Some [ s ] -> List.mem s float_arith
    | Some [ "Float"; op ] ->
      not
        (List.mem op
           [ "to_int"; "compare"; "equal"; "to_string"; "is_nan";
             "is_finite"; "is_integer"; "sign_bit" ])
    | _ -> false)
  | Pexp_ifthenelse (_, a, Some b) -> floatish a || floatish b
  | _ -> false

(* ------------------------------------------------------------------ *)
(* SA003 / SA004: forbidden identifiers                                 *)
(* ------------------------------------------------------------------ *)

let sa003_ident = function
  | [ ( "print_string" | "print_endline" | "print_newline" | "print_char"
      | "print_int" | "print_float" | "print_bytes" | "prerr_string"
      | "prerr_endline" | "prerr_newline" | "prerr_char" | "prerr_int"
      | "prerr_float" | "prerr_bytes" | "stdout" | "stderr" ) ] ->
    true
  | [ "Printf"; ("printf" | "eprintf") ] -> true
  | [ "Format";
      ( "printf" | "eprintf" | "print_string" | "print_int" | "print_float"
      | "print_char" | "print_newline" | "print_space" | "print_cut"
      | "print_flush" | "open_box" | "close_box" | "std_formatter"
      | "err_formatter" ) ] ->
    true
  | _ -> false

let sa004_ident = function
  | [ "Unix"; ("gettimeofday" | "time") ] | [ "Sys"; "time" ] -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* SA014: raw channel opens                                             *)
(* ------------------------------------------------------------------ *)

(* Every channel opens through a Stdlib [with_open_*] bracket, which
   closes it on every exit; a raw open leaves the close to the caller. *)
let sa014_ident = function
  | [ ( "open_in" | "open_in_bin" | "open_in_gen" | "open_out"
      | "open_out_bin" | "open_out_gen" ) ]
  | [ ("In_channel" | "Out_channel"); ("open_text" | "open_bin" | "open_gen") ]
    ->
    true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* SA017: Atomic read-modify-write as separate get/set                  *)
(* ------------------------------------------------------------------ *)

(* Render the target of an Atomic op as a stable key: [x], [d.bottom],
   [sh.sh_best].  [None] for computed targets. *)
let rec atomic_key e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (String.concat "." (norm (flatten txt)))
  | Pexp_field (e', { txt; _ }) -> (
    match (atomic_key e', List.rev (flatten txt)) with
    | Some base, fld :: _ -> Some (base ^ "." ^ fld)
    | _ -> None)
  | Pexp_constraint (e', _) -> atomic_key e'
  | _ -> None

(* Atomic.get applications inside [e], as (key, line). *)
let atomic_gets e =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_apply (f, (_, tgt) :: _) -> (
            match ident_path f with
            | Some [ "Atomic"; "get" ] -> (
              match atomic_key tgt with
              | Some k -> acc := (k, line_of ex.pexp_loc) :: !acc
              | None -> ())
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it e;
  !acc

(* One definition body: [Atomic.set a e] where [e] reads [a] inline, or
   through a let-bound carrier of [Atomic.get a] that no
   [compare_and_set] on [a] consumes.  Flow-insensitive: a name bound
   twice keeps its last binding. *)
let check_atomic_rmw ~emit body =
  let carriers : (string, string * int) Hashtbl.t = Hashtbl.create 4 in
  let discharged : (string * string, unit) Hashtbl.t = Hashtbl.create 4 in
  let sets = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self ex ->
          (match ex.pexp_desc with
          | Pexp_let (_, vbs, _) ->
            List.iter
              (fun vb ->
                match pat_vars [] vb.pvb_pat with
                | [ n ] -> (
                  match atomic_gets vb.pvb_expr with
                  | (k, l) :: _ -> Hashtbl.replace carriers n (k, l)
                  | [] -> ())
                | _ -> ())
              vbs
          | Pexp_apply (f, args) -> (
            match (ident_path f, args) with
            | Some [ "Atomic"; "compare_and_set" ], (_, tgt) :: (_, old) :: _
              -> (
              match atomic_key tgt with
              | Some k ->
                Hashtbl.iter
                  (fun v (k', _) ->
                    if k' = k && mentions_name v old then
                      Hashtbl.replace discharged (v, k) ())
                  carriers
              | None -> ())
            | Some [ "Atomic"; "set" ], (_, tgt) :: (_, v) :: _ -> (
              match atomic_key tgt with
              | Some k -> sets := (k, v, line_of ex.pexp_loc) :: !sets
              | None -> ())
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self ex);
    }
  in
  it.expr it body;
  List.iter
    (fun (k, v, line) ->
      match List.find_opt (fun (k', _) -> k' = k) (atomic_gets v) with
      | Some (_, gl) ->
        emit line
          (Printf.sprintf
             "read-modify-write on Atomic %s as separate get/set — racy \
              between domains; use compare_and_set/fetch_and_add — \
              protocol trace: Atomic.get:%d -> Atomic.set:%d"
             k gl line)
      | None -> (
        let racy (var, (k', _)) =
          k' = k
          && mentions_name var v
          && not (Hashtbl.mem discharged (var, k))
        in
        match Seq.find racy (Hashtbl.to_seq carriers) with
        | Some (var, (_, gl)) ->
          emit line
            (Printf.sprintf
               "read-modify-write on Atomic %s as separate get/set \
                (read bound to %s) — racy between domains; use \
                compare_and_set/fetch_and_add — protocol trace: \
                Atomic.get:%d -> Atomic.set:%d"
               k var gl line)
        | None -> ()))
    (List.rev !sets)

(* Every value binding's body, descending into nested module
   structures. *)
let rec binding_bodies str =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> List.map (fun vb -> vb.pvb_expr) vbs
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ }
        ->
        binding_bodies sub
      | _ -> [])
    str

(* ------------------------------------------------------------------ *)
(* SA005: direct mutation inside Pool closures                          *)
(* ------------------------------------------------------------------ *)

(* The closure walk itself lives in {!Interproc.analyze_task}: direct
   mutation of captured state stays SA005 there, while everything the
   syntactic heuristics used to guess at (worker-id escapes, mutation
   through helpers) is SA012, grounded on the call graph and the effect
   summaries. *)

(* ------------------------------------------------------------------ *)
(* The per-file pass                                                    *)
(* ------------------------------------------------------------------ *)

let fault_meths = [ "register"; "fire"; "trip"; "spec"; "arm"; "disarm" ]

let check_structure ~ctx ~path ~role str =
  let out = ref [] in
  let emit_at rule line msg =
    if applies rule ~role ~path then
      out := Finding.v ~file:path ~line rule msg :: !out
  in
  let emit rule loc msg = emit_at rule (line_of loc) msg in
  let on_ident loc p =
    (match p with
    | "Random" :: _ ->
      emit SA002 loc "Stdlib.Random — all randomness must go through \
                      Fp_util.Rng (explicit seeds, one generator per \
                      domain)"
    | _ -> ());
    if sa014_ident p then
      emit SA014 loc
        (Printf.sprintf
           "%s opens a raw channel — use In_channel.with_open_* / \
            Out_channel.with_open_*, which close it on every exit (flush \
            a writer inside the bracket so write errors surface)"
           (String.concat "." p));
    if sa003_ident p then
      emit SA003 loc
        (Printf.sprintf
           "%s writes to stdout/stderr from lib/ — log through Logs or \
            return data; printing belongs to the CLI/bench layer"
           (String.concat "." p));
    if sa004_ident p then
      emit SA004 loc
        (Printf.sprintf
           "%s — wall-clock reads are sanctioned only in Augment and the \
            CLI/bench layer (deterministic replay)"
           (String.concat "." p))
  in
  let on_apply loc f args =
    (match ident_path f with
    | Some [ op ] when List.mem op cmp_ops && List.length args >= 2 ->
      if List.exists (fun (_, a) -> floatish a) args then
        emit SA001 loc
          (Printf.sprintf
             "raw float comparison (%s) — use Fp_geometry.Tol" op)
    | Some [ "Float"; (("compare" | "equal") as op) ]
      when List.length args >= 2 ->
      emit SA001 loc
        (Printf.sprintf "raw float comparison (Float.%s) — use \
                         Fp_geometry.Tol" op)
    | Some [ "exit" ] -> (
      match args with
      | [ (Asttypes.Nolabel, { pexp_desc = Pexp_constant (Pconst_integer _);
                               _ }) ] ->
        emit SA008 loc
          "exit with an integer literal — exit codes come from the \
           Fp_core.Degradation mapping"
      | _ -> ())
    | _ -> ());
    match ident_path f with
    | Some p -> (
      match last2 p with
      | Some ("Fault", meth) when List.mem meth fault_meths ->
        List.iter
          (fun (_, a) ->
            match a.pexp_desc with
            | Pexp_constant (Pconst_string (s, _, _)) ->
              if not (List.mem s ctx.known_sites) then
                emit SA007 a.pexp_loc
                  (Printf.sprintf
                     "fault site %S is not in the canonical Fault.builtin \
                      catalogue (lib/util/fault.ml)"
                     s)
            | _ -> ())
          args
      | _ -> ())
    | None -> ()
  in
  let on_try cases =
    (* [Abort] is the cooperative-interrupt signal with sanctioned
       pass-through; a handler that re-raises it may deliberately
       contain everything else (that is how hook/candidate failures are
       absorbed, Fault.Injected included).  A catch-all that records
       the exception for a later re-raise is containment too — the
       refined predicate is shared with the [catches-all] effect, so
       SA006 and SA011 cannot disagree about what swallowing means. *)
    match swallowing_catch_all cases with
    | None -> ()
    | Some ca ->
      emit SA006 ca.pc_lhs.ppat_loc
        "catch-all exception handler can swallow Augment.Abort / \
         Fault.Injected — match concrete exceptions, re-raise the \
         containment exceptions first, or record for a later re-raise"
  in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> on_ident e.pexp_loc (norm (flatten txt))
          | Pexp_apply (f, args) -> on_apply e.pexp_loc f args
          | Pexp_try (_, cases) -> on_try cases
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  List.iter (check_atomic_rmw ~emit:(emit_at SA017)) (binding_bodies str);
  List.sort_uniq Finding.compare !out

let registered_sites str =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
            match ident_path f with
            | Some p -> (
              match last2 p with
              | Some ("Fault", "register") ->
                List.iter
                  (fun (_, a) ->
                    match a.pexp_desc with
                    | Pexp_constant (Pconst_string (s, _, _)) ->
                      acc := (s, line_of a.pexp_loc) :: !acc
                    | _ -> ())
                  args
              | _ -> ())
            | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  List.rev !acc
