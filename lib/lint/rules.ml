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
  | SA006 -> true
  | SA007 -> true
  | SA008 -> path <> "lib/core/degradation.ml"
  (* CLI and bench code leaks channels and races atomics just as well
     as lib/ does. *)
  | SA014 -> true
  | SA017 -> true
  (* Deterministic replay is a library concern; the CLI/bench layers
     read clocks, print and keep run-level tables by design. *)
  | SA018 -> role = Lib

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
(* SA002 / SA003 / SA004: forbidden identifiers                         *)
(* ------------------------------------------------------------------ *)

let sa002_ident = function
  | "Random" :: _ | [ "Hashtbl"; "randomize" ] -> true
  | _ -> false

let sa003_ident = function
  | [ ( "print_string" | "print_endline" | "print_newline" | "print_char"
      | "print_int" | "print_float" | "print_bytes" | "prerr_string"
      | "prerr_endline" | "prerr_newline" | "prerr_char" | "prerr_int"
      | "prerr_float" | "prerr_bytes" | "stdout" | "stderr" | "read_line"
      | "read_int" | "read_int_opt" | "read_float" | "read_float_opt" ) ] ->
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
  | [ "Unix"; ("gettimeofday" | "time" | "times" | "sleep" | "sleepf") ]
  | [ "Sys"; "time" ] ->
    true
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

(* Every top-level value binding, descending into nested module
   structures. *)
let rec bindings str =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) -> vbs
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure sub; _ }; _ }
        ->
        bindings sub
      | _ -> [])
    str

(* ------------------------------------------------------------------ *)
(* SA005: mutation of captured state in Pool tasks                      *)
(* ------------------------------------------------------------------ *)

(* One task: a fun literal or a let-bound local function passed to
   [Pool.run]/[Pool.map].  The walk tracks the names bound inside the
   task (its parameters and lets), so a mutation of anything else is a
   mutation of captured state.  A let-bound helper of the enclosing
   definition that the task calls is walked too, with only its own
   bindings local.  [results.(i) <- ...] at an index derived from a
   task-local name is the disjoint-slot convention and stays exempt. *)
let check_task ~emit ~local_fns ~fname task =
  let visited = Hashtbl.create 4 in
  let report helper line what =
    emit line
      (match helper with
      | None ->
        Printf.sprintf
          "closure given to %s %s without Atomic/Mutex — racy under \
           parallel execution and invisible to deterministic replay"
          fname what
      | Some g ->
        Printf.sprintf
          "local helper %s, called from a %s task, %s without \
           Atomic/Mutex — racy under parallel execution"
          g fname what)
  in
  let captured locals e =
    match lvalue_head e with Some s -> not (S.mem s locals) | None -> true
  in
  let bind locals p = S.union locals (S.of_list (pat_vars [] p)) in
  let rec walk helper locals e =
    let sub = walk helper locals in
    match e.pexp_desc with
    | Pexp_let (rf, vbs, body) ->
      let locals' =
        List.fold_left (fun l vb -> bind l vb.pvb_pat) locals vbs
      in
      let rhs = if rf = Asttypes.Recursive then locals' else locals in
      List.iter (fun vb -> walk helper rhs vb.pvb_expr) vbs;
      walk helper locals' body
    | Pexp_fun (_, dflt, pat, body) ->
      Option.iter sub dflt;
      walk helper (bind locals pat) body
    | Pexp_function cases -> List.iter (case helper locals) cases
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      sub scrut;
      List.iter (case helper locals) cases
    | Pexp_for (pat, lo, hi, _, body) ->
      sub lo;
      sub hi;
      walk helper (bind locals pat) body
    | Pexp_setfield (tgt, _, v) ->
      if captured locals tgt then
        report helper (line_of e.pexp_loc) "mutates a captured record field";
      sub tgt;
      sub v
    | Pexp_ident { txt = Longident.Lident g; _ }
      when (not (S.mem g locals)) && List.mem_assoc g local_fns ->
      if not (Hashtbl.mem visited g) then begin
        Hashtbl.add visited g ();
        walk (Some g) S.empty (List.assoc g local_fns)
      end
    | Pexp_apply (f, args) ->
      let line = line_of e.pexp_loc in
      (match (ident_path f, args) with
      | Some ([ ":=" ] | [ "incr" ] | [ "decr" ]), (_, r) :: _ ->
        if captured locals r then
          report helper line "mutates a captured ref cell"
      | Some [ "Array"; ("set" | "unsafe_set") ], (_, arr) :: (_, idx) :: _ ->
        if captured locals arr && not (mentions_any locals idx) then
          report helper line
            "writes a captured array at a non-task-local index (the \
             disjoint-slot convention needs the index derived from the \
             task argument)"
      | Some p, (_, c0) :: _ when container_mutator p ->
        if captured locals c0 then
          report helper line
            (Printf.sprintf "mutates a captured %s" (List.hd p))
      | _ -> ());
      sub f;
      List.iter (fun (_, a) -> sub a) args
    | _ -> List.iter sub (sub_exprs e)
  and case helper locals c =
    let locals = bind locals c.pc_lhs in
    Option.iter (walk helper locals) c.pc_guard;
    walk helper locals c.pc_rhs
  in
  walk None S.empty task

(* Every pool batch in one definition body, with the let-bound local
   functions in scope at the call. *)
let check_pool_tasks ~emit body =
  let rec scan local_fns e =
    match e.pexp_desc with
    | Pexp_let (rf, vbs, body) ->
      let local_fns' =
        List.fold_left
          (fun acc vb ->
            match (pat_vars [] vb.pvb_pat, is_fun_literal vb.pvb_expr) with
            | [ n ], true -> (n, vb.pvb_expr) :: acc
            | _ -> acc)
          local_fns vbs
      in
      let rhs = if rf = Asttypes.Recursive then local_fns' else local_fns in
      List.iter (fun vb -> scan rhs vb.pvb_expr) vbs;
      scan local_fns' body
    | Pexp_apply (f, args) ->
      (match Option.bind (ident_path f) pool_fn with
      | Some fname ->
        List.iter
          (fun (_, a) ->
            let task =
              match a.pexp_desc with
              | Pexp_ident { txt = Longident.Lident g; _ } ->
                List.assoc_opt g local_fns
              | _ -> if is_fun_literal a then Some a else None
            in
            Option.iter (check_task ~emit ~local_fns ~fname) task)
          args
      | None -> ());
      scan local_fns f;
      List.iter (fun (_, a) -> scan local_fns a) args
    | _ -> List.iter (scan local_fns) (sub_exprs e)
  in
  scan [] body

(* ------------------------------------------------------------------ *)
(* SA018: module-level mutable containers                               *)
(* ------------------------------------------------------------------ *)

(* [Atomic.make] and [Mutex.create] are synchronization, not state a
   task could race on, so they are not in the table. *)
let container_ctor = function
  | [ "ref" ]
  | [ ("Hashtbl" | "Queue" | "Stack" | "Buffer"); "create" ]
  | [ "Array"; ("make" | "init" | "make_matrix") ]
  | [ "Bytes"; ("create" | "make") ] ->
    true
  | _ -> false

(* The constructor a top-level binding's value comes from, looking
   through type constraints, the body of a [let ... in] and the last
   expression of a sequence. *)
let rec allocates e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_let (_, _, e) | Pexp_sequence (_, e) ->
    allocates e
  | Pexp_apply (f, _) -> (
    match ident_path f with
    | Some p when container_ctor p -> Some (String.concat "." p)
    | _ -> None)
  | _ -> None

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
    if sa002_ident p then
      emit SA002 loc
        (Printf.sprintf
           "%s — all randomness must go through Fp_util.Rng (explicit \
            seeds, one generator per domain)"
           (String.concat "." p));
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
           "%s does console IO from lib/ — log through Logs or return \
            data; the console belongs to the CLI/bench layer"
           (String.concat "." p));
    if sa004_ident p then
      emit SA004 loc
        (Printf.sprintf
           "%s — wall-clock reads and sleeps are sanctioned only in \
            Augment and the CLI/bench layer (deterministic replay)"
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
       the exception for a later re-raise is containment too. *)
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
  List.iter
    (fun vb ->
      check_atomic_rmw ~emit:(emit_at SA017) vb.pvb_expr;
      check_pool_tasks ~emit:(emit_at SA005) vb.pvb_expr;
      Option.iter
        (fun ctor ->
          emit SA018 vb.pvb_loc
            (Printf.sprintf
               "module-level %s — mutable state every pool task can \
                race on; pass it as an argument, or guard it with a \
                Mutex and justify in the baseline"
               ctor))
        (allocates vb.pvb_expr))
    (bindings str);
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
