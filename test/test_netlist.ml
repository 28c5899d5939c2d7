(* Tests for Fp_netlist: module definitions, nets, instances, the
   connectivity-based linear ordering, the parser, and the generator. *)

module Module_def = Fp_netlist.Module_def
module Net = Fp_netlist.Net
module Netlist = Fp_netlist.Netlist
module Ordering = Fp_netlist.Ordering
module Parser = Fp_netlist.Parser
module Generator = Fp_netlist.Generator

let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let mk_simple () =
  (* Chain connectivity: 0-1 heavy (two nets), 1-2 light, 3 isolated-ish. *)
  let mods =
    [
      Module_def.rigid ~id:0 ~name:"a" ~w:4. ~h:2.;
      Module_def.rigid ~id:1 ~name:"b" ~w:3. ~h:3.;
      Module_def.flexible ~id:2 ~name:"c" ~area:6. ~min_aspect:0.5
        ~max_aspect:2.;
      Module_def.rigid ~id:3 ~name:"d" ~w:1. ~h:1.;
    ]
  in
  let pin m s = { Net.module_id = m; side = s } in
  let nets =
    [
      Net.make ~name:"n0" [ pin 0 Net.Right; pin 1 Net.Left ];
      Net.make ~name:"n1" [ pin 0 Net.Top; pin 1 Net.Bottom ];
      Net.make ~name:"n2" ~criticality:0.9 [ pin 1 Net.Right; pin 2 Net.Left ];
      Net.make ~name:"n3" [ pin 2 Net.Top; pin 3 Net.Top ];
    ]
  in
  Netlist.create ~name:"simple" mods nets

(* --------------------------- module defs ---------------------------- *)

let test_module_area () =
  let r = Module_def.rigid ~id:0 ~name:"r" ~w:4. ~h:2. in
  checkf "rigid area" 8. (Module_def.area r);
  let f = Module_def.flexible ~id:1 ~name:"f" ~area:9. ~min_aspect:1.
      ~max_aspect:1. in
  checkf "flex area" 9. (Module_def.area f);
  Alcotest.(check bool) "flags" true
    (Module_def.is_flexible f && not (Module_def.is_flexible r))

let test_module_width_range () =
  let f = Module_def.flexible ~id:0 ~name:"f" ~area:16. ~min_aspect:0.25
      ~max_aspect:4. in
  let lo, hi = Module_def.width_range f in
  checkf "w_min" 2. lo;
  checkf "w_max" 8. hi;
  checkf "h at w=8" 2. (Module_def.height_for_width f 8.);
  checkf "h at w=2" 8. (Module_def.height_for_width f 2.)

let test_module_validation () =
  Alcotest.check_raises "zero width"
    (Invalid_argument "Module_def.rigid r: non-positive dims 0x2") (fun () ->
      ignore (Module_def.rigid ~id:0 ~name:"r" ~w:0. ~h:2.));
  Alcotest.check_raises "bad aspects"
    (Invalid_argument "Module_def.flexible f: bad aspect interval [2, 1]")
    (fun () ->
      ignore
        (Module_def.flexible ~id:0 ~name:"f" ~area:4. ~min_aspect:2.
           ~max_aspect:1.));
  (* nan fails every comparison, so it must be rejected explicitly. *)
  List.iter
    (fun (what, mk) ->
      match mk () with
      | (_ : Module_def.t) -> Alcotest.failf "%s accepted" what
      | exception Invalid_argument _ -> ())
    [ ("nan width", fun () -> Module_def.rigid ~id:0 ~name:"r" ~w:nan ~h:3.);
      ("inf height",
       fun () -> Module_def.rigid ~id:0 ~name:"r" ~w:1. ~h:infinity);
      ("nan area",
       fun () ->
         Module_def.flexible ~id:0 ~name:"f" ~area:nan ~min_aspect:0.5
           ~max_aspect:2.);
      ("nan aspect",
       fun () ->
         Module_def.flexible ~id:0 ~name:"f" ~area:4. ~min_aspect:nan
           ~max_aspect:2.);
      ("inf aspect",
       fun () ->
         Module_def.flexible ~id:0 ~name:"f" ~area:4. ~min_aspect:0.5
           ~max_aspect:infinity) ]

(* ------------------------------- nets ------------------------------- *)

let test_net_basics () =
  let n =
    Net.make ~name:"n"
      [ { Net.module_id = 2; side = Net.Left };
        { Net.module_id = 0; side = Net.Top };
        { Net.module_id = 2; side = Net.Right } ]
  in
  Alcotest.(check (list int)) "modules dedup sorted" [ 0; 2 ] (Net.modules n);
  Alcotest.(check int) "degree counts pins" 3 (Net.degree n)

let test_net_validation () =
  Alcotest.check_raises "single pin"
    (Invalid_argument "Net.make n: needs at least two pins") (fun () ->
      ignore (Net.make ~name:"n" [ { Net.module_id = 0; side = Net.Left } ]));
  Alcotest.check_raises "bad criticality"
    (Invalid_argument "Net.make n: criticality 2 outside [0,1]") (fun () ->
      ignore
        (Net.make ~name:"n" ~criticality:2.
           [ { Net.module_id = 0; side = Net.Left };
             { Net.module_id = 1; side = Net.Left } ]))

let test_side_roundtrip () =
  List.iter
    (fun s ->
      Alcotest.(check bool) "side roundtrip" true
        (Net.side_of_string (Net.side_to_string s) = Some s))
    Net.all_sides;
  Alcotest.(check bool) "bad side" true (Net.side_of_string "Q" = None)

(* ------------------------------ netlist ----------------------------- *)

let test_netlist_connectivity () =
  let nl = mk_simple () in
  Alcotest.(check int) "c01 = 2 nets" 2 (Netlist.connectivity nl 0 1);
  Alcotest.(check int) "c12 = 1" 1 (Netlist.connectivity nl 1 2);
  Alcotest.(check int) "c03 = 0" 0 (Netlist.connectivity nl 0 3);
  Alcotest.(check int) "symmetric" (Netlist.connectivity nl 1 0)
    (Netlist.connectivity nl 0 1);
  Alcotest.(check int) "degree of 1" 3 (Netlist.module_degree nl 1);
  Alcotest.(check int) "to set" 3 (Netlist.connectivity_to_set nl [ 0; 2 ] 1)

let test_netlist_total_area () =
  checkf "total" (8. +. 9. +. 6. +. 1.) (Netlist.total_area (mk_simple ()))

let test_netlist_pins_per_side () =
  let nl = mk_simple () in
  let l, r, b, t = Netlist.pins_per_side nl 1 in
  Alcotest.(check (list int)) "module 1 sides" [ 1; 1; 1; 0 ] [ l; r; b; t ]

let test_netlist_nets_between () =
  let nl = mk_simple () in
  Alcotest.(check int) "two nets between 0,1" 2
    (List.length (Netlist.nets_between nl 0 1));
  Alcotest.(check int) "none between 0,3" 0
    (List.length (Netlist.nets_between nl 0 3))

let test_netlist_bad_ids () =
  let mods = [ Module_def.rigid ~id:1 ~name:"a" ~w:1. ~h:1. ] in
  Alcotest.check_raises "ids must be dense"
    (Invalid_argument "Netlist.create: module a has id 1, expected 0")
    (fun () -> ignore (Netlist.create ~name:"bad" mods []))

let test_netlist_bad_net_ref () =
  let mods = [ Module_def.rigid ~id:0 ~name:"a" ~w:1. ~h:1. ] in
  let nets =
    [ Net.make ~name:"n"
        [ { Net.module_id = 0; side = Net.Left };
          { Net.module_id = 5; side = Net.Left } ] ]
  in
  Alcotest.check_raises "net references unknown module"
    (Invalid_argument "Netlist.create: net n references module 5") (fun () ->
      ignore (Netlist.create ~name:"bad" mods nets))

let test_validate_ok () =
  Alcotest.(check bool) "valid" true (Netlist.validate (mk_simple ()) = Ok ())

(* ----------------------------- ordering ----------------------------- *)

let is_permutation k l = List.sort_uniq compare l = List.init k Fun.id

let test_linear_ordering_permutation () =
  let nl = mk_simple () in
  Alcotest.(check bool) "permutation" true
    (is_permutation 4 (Ordering.linear nl))

let test_linear_ordering_connectivity_first () =
  let nl = mk_simple () in
  match Ordering.linear nl with
  | first :: second :: _ ->
    (* Module 1 has the highest degree (3); its strongest neighbour is 0. *)
    Alcotest.(check int) "seed is hub" 1 first;
    Alcotest.(check int) "then strongest neighbour" 0 second
  | _ -> Alcotest.fail "ordering too short"

let test_random_ordering_deterministic () =
  let nl = mk_simple () in
  Alcotest.(check (list int)) "same seed same order"
    (Ordering.random ~seed:5 nl)
    (Ordering.random ~seed:5 nl);
  Alcotest.(check bool) "permutation" true
    (is_permutation 4 (Ordering.random ~seed:5 nl))

let test_area_ordering () =
  let nl = mk_simple () in
  match Ordering.by_area_desc nl with
  | first :: _ -> Alcotest.(check int) "biggest first" 1 first
  | [] -> Alcotest.fail "empty"

let test_groups () =
  Alcotest.(check (list (list int))) "groups of 2"
    [ [ 1; 2 ]; [ 3; 4 ]; [ 5 ] ]
    (Ordering.groups ~size:2 [ 1; 2; 3; 4; 5 ]);
  Alcotest.(check (list (list int))) "exact" [ [ 1; 2 ] ]
    (Ordering.groups ~size:2 [ 1; 2 ]);
  Alcotest.(check (list (list int))) "empty" [] (Ordering.groups ~size:3 []);
  Alcotest.check_raises "size 0" (Invalid_argument "Ordering.groups: size < 1")
    (fun () -> ignore (Ordering.groups ~size:0 [ 1 ]))

(* ------------------------------ parser ------------------------------ *)

let sample_text =
  {|# a small instance
instance demo
module a rigid 4 2
module b flexible 6 0.5 2
module c rigid 1 1

net n0 a:R b:L
net n1 crit=0.75 b:T c:B a:L
|}

let test_parser_parses () =
  match Parser.of_string sample_text with
  | Error e -> Alcotest.fail e
  | Ok nl ->
    Alcotest.(check string) "name" "demo" (Netlist.name nl);
    Alcotest.(check int) "modules" 3 (Netlist.num_modules nl);
    Alcotest.(check int) "nets" 2 (Netlist.num_nets nl);
    checkf "flexible area" 6.
      (Module_def.area (Netlist.module_at nl 1));
    (match Netlist.nets nl with
    | [ _; n1 ] -> checkf "criticality" 0.75 n1.Net.criticality
    | _ -> Alcotest.fail "expected two nets")

let test_parser_roundtrip () =
  match Parser.of_string sample_text with
  | Error e -> Alcotest.fail e
  | Ok nl -> (
    match Parser.of_string (Parser.to_string nl) with
    | Error e -> Alcotest.fail ("roundtrip: " ^ e)
    | Ok nl2 ->
      Alcotest.(check int) "modules" (Netlist.num_modules nl)
        (Netlist.num_modules nl2);
      Alcotest.(check int) "nets" (Netlist.num_nets nl) (Netlist.num_nets nl2);
      checkf "area" (Netlist.total_area nl) (Netlist.total_area nl2);
      Alcotest.(check int) "connectivity preserved"
        (Netlist.connectivity nl 0 1)
        (Netlist.connectivity nl2 0 1))

(* A write that fails only when the buffer is flushed (a full disk)
   must raise, not vanish in the close. *)
let test_parser_to_file_write_error () =
  if Sys.file_exists "/dev/full" then
    match Parser.of_string sample_text with
    | Error e -> Alcotest.fail e
    | Ok nl -> (
      match Parser.to_file "/dev/full" nl with
      | () -> Alcotest.fail "write error on /dev/full was dropped"
      | exception Sys_error _ -> ())

let expect_error text fragment =
  match Parser.of_string text with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
    let contains needle hay =
      let n = String.length needle and m = String.length hay in
      let rec go i = i + n <= m && (String.sub hay i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "error %S mentions %S" e fragment)
      true (contains fragment e)

let test_parser_errors () =
  expect_error "module a rigid x 2" "bad width";
  expect_error "module a rigid 1 1\nmodule a rigid 1 1" "duplicate";
  expect_error "module a rigid 1 1\nnet n a:Q a:L" "bad side";
  expect_error "module a rigid 1 1\nnet n a:L b:R" "unknown module";
  expect_error "frobnicate yes" "unknown directive";
  expect_error "module a rigid 1 1\nnet n a:L" "two pins";
  (* [float_of_string] reads these; no field may hold them. *)
  expect_error "module a rigid nan 3" "line 1: bad width";
  expect_error "module a rigid 2 inf" "line 1: bad height";
  expect_error "module a rigid -inf 3" "bad width";
  expect_error "module a flexible 4 nan 2" "bad min aspect";
  expect_error "module a flexible 4 0.5 infinity" "bad max aspect";
  expect_error "module a rigid 1 1\nmodule b rigid 1 1\nnet n crit=nan a:L b:R"
    "line 3: bad criticality"

(* ----------------------------- generator ---------------------------- *)

let test_generator_deterministic () =
  let cfg = { Generator.default_config with Generator.num_modules = 10 } in
  let a = Generator.generate cfg and b = Generator.generate cfg in
  Alcotest.(check string) "same text" (Parser.to_string a) (Parser.to_string b)

let test_generator_properties () =
  let cfg =
    { Generator.default_config with Generator.num_modules = 15; seed = 3 }
  in
  let nl = Generator.generate cfg in
  Alcotest.(check int) "module count" 15 (Netlist.num_modules nl);
  (* Rigid dimensions snap to the unit grid, so the total is only
     approximately the configured one. *)
  Alcotest.(check bool) "total area within 15%" true
    (Float.abs (Netlist.total_area nl -. cfg.Generator.total_area)
     < 0.15 *. cfg.Generator.total_area);
  Alcotest.(check bool) "validates" true (Netlist.validate nl = Ok ());
  List.iter
    (fun net ->
      Alcotest.(check bool) "degree in [2,5]" true
        (Net.degree net >= 2 && Net.degree net <= 5))
    (Netlist.nets nl)

let test_generator_flexible_fraction () =
  let cfg =
    { Generator.default_config with
      Generator.num_modules = 20; flexible_fraction = 0.5; seed = 4 }
  in
  let nl = Generator.generate cfg in
  let flex =
    Array.fold_left
      (fun a m -> if Module_def.is_flexible m then a + 1 else a)
      0 (Netlist.modules nl)
  in
  Alcotest.(check int) "half flexible" 10 flex

let test_generator_seed_changes_instance () =
  let base = { Generator.default_config with Generator.num_modules = 12 } in
  let a = Generator.generate { base with Generator.seed = 1 } in
  let b = Generator.generate { base with Generator.seed = 2 } in
  Alcotest.(check bool) "different instances" false
    (Parser.to_string a = Parser.to_string b)

(* Every size the CLI accepts, down to two modules, where the
   net-locality window is wider than the instance. *)
let test_generator_small_sizes_valid () =
  for k = 2 to 10 do
    for seed = 0 to 200 do
      let nl =
        match
          Generator.generate
            { Generator.default_config with Generator.num_modules = k; seed }
        with
        | nl -> nl
        | exception Invalid_argument msg ->
          Alcotest.failf "k=%d seed=%d: %s" k seed msg
      in
      if Netlist.validate nl <> Ok () then
        Alcotest.failf "k=%d seed=%d: invalid netlist" k seed
    done
  done

let () =
  Alcotest.run "fp_netlist"
    [
      ( "module_def",
        [
          Alcotest.test_case "area" `Quick test_module_area;
          Alcotest.test_case "width range" `Quick test_module_width_range;
          Alcotest.test_case "validation" `Quick test_module_validation;
        ] );
      ( "net",
        [
          Alcotest.test_case "basics" `Quick test_net_basics;
          Alcotest.test_case "validation" `Quick test_net_validation;
          Alcotest.test_case "side roundtrip" `Quick test_side_roundtrip;
        ] );
      ( "netlist",
        [
          Alcotest.test_case "connectivity" `Quick test_netlist_connectivity;
          Alcotest.test_case "total area" `Quick test_netlist_total_area;
          Alcotest.test_case "pins per side" `Quick test_netlist_pins_per_side;
          Alcotest.test_case "nets between" `Quick test_netlist_nets_between;
          Alcotest.test_case "bad ids" `Quick test_netlist_bad_ids;
          Alcotest.test_case "bad net ref" `Quick test_netlist_bad_net_ref;
          Alcotest.test_case "validate ok" `Quick test_validate_ok;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "linear is permutation" `Quick
            test_linear_ordering_permutation;
          Alcotest.test_case "linear follows connectivity" `Quick
            test_linear_ordering_connectivity_first;
          Alcotest.test_case "random deterministic" `Quick
            test_random_ordering_deterministic;
          Alcotest.test_case "area ordering" `Quick test_area_ordering;
          Alcotest.test_case "groups" `Quick test_groups;
        ] );
      ( "parser",
        [
          Alcotest.test_case "parses" `Quick test_parser_parses;
          Alcotest.test_case "roundtrip" `Quick test_parser_roundtrip;
          Alcotest.test_case "to_file write error" `Quick
            test_parser_to_file_write_error;
          Alcotest.test_case "errors" `Quick test_parser_errors;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "properties" `Quick test_generator_properties;
          Alcotest.test_case "flexible fraction" `Quick
            test_generator_flexible_fraction;
          Alcotest.test_case "seed changes instance" `Quick
            test_generator_seed_changes_instance;
          Alcotest.test_case "small sizes valid" `Quick
            test_generator_small_sizes_valid;
        ] );
    ]
