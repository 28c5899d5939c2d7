(* Tests for the resilient solve engine: the Fault injection switchboard,
   the Degradation taxonomy, the degradation ladder inside Augment.run
   (budget fallback, raw-warm commit, one search per step, deadline
   truncation, hook containment), worker-failure recovery under
   concurrent candidates, and checkpoint/resume journals. *)

module Fault = Fp_util.Fault
module Generator = Fp_netlist.Generator
module Module_def = Fp_netlist.Module_def
module Net = Fp_netlist.Net
module Netlist = Fp_netlist.Netlist
module Rect = Fp_geometry.Rect
module BB = Fp_milp.Branch_bound
open Fp_core

let gen ~n ~seed =
  Generator.generate
    { Generator.default_config with Generator.num_modules = n; seed }

let small_cfg =
  { Augment.default_config with
    Augment.group_size = 3;
    milp = { Augment.default_config.Augment.milp with BB.node_limit = 600 } }

let degs_of (res : Augment.result) = List.map snd res.Augment.degradations

let contains d res = List.mem d (degs_of res)

let valid (res : Augment.result) =
  Placement.valid res.Augment.placement = Ok ()

(* Every test arms sites; never leak them into the next test. *)
let with_clean_faults f =
  Fault.reset ();
  Fun.protect ~finally:Fault.reset f

(* ------------------------------- fault ------------------------------- *)

let test_fault_parse () =
  let ok s = Result.get_ok (Fault.parse s) in
  let sp = ok "a.b" in
  Alcotest.(check string) "site" "a.b" sp.Fault.site;
  Alcotest.(check int) "after" 0 sp.Fault.after;
  Alcotest.(check int) "count" 1 sp.Fault.count;
  let sp = ok "a.b@3" in
  Alcotest.(check int) "after@" 3 sp.Fault.after;
  let sp = ok "a.b@3x2" in
  Alcotest.(check int) "after@x" 3 sp.Fault.after;
  Alcotest.(check int) "count@x" 2 sp.Fault.count;
  let sp = ok "a.bx*" in
  Alcotest.(check int) "count*" max_int sp.Fault.count;
  Alcotest.(check bool) "empty site" true (Result.is_error (Fault.parse ""));
  Alcotest.(check bool) "bad after" true (Result.is_error (Fault.parse "a.b@z"));
  Alcotest.(check bool) "zero count" true
    (Result.is_error (Fault.parse "a.b@0x0"))

let test_fault_roundtrip () =
  List.iter
    (fun s ->
      let sp = Result.get_ok (Fault.parse s) in
      Alcotest.(check string) s s (Fault.to_string sp))
    [ "a.b"; "a.b@3"; "a.b@3x2"; "a.bx*" ]

let test_fault_fire_counts () =
  with_clean_faults @@ fun () ->
  let site = Fault.register "test.fire_counts" in
  Alcotest.(check bool) "registered" true (List.mem site (Fault.sites ()));
  Fault.arm (Fault.spec ~after:1 ~count:2 site);
  let fires = List.init 5 (fun _ -> Fault.fire site) in
  Alcotest.(check (list bool)) "fire pattern"
    [ false; true; true; false; false ] fires;
  Alcotest.(check int) "hits" 5 (Fault.hits site);
  Alcotest.(check int) "injections" 2 (Fault.injections site)

let test_fault_trip_and_disarm () =
  with_clean_faults @@ fun () ->
  let site = Fault.register "test.trip" in
  Fault.arm (Fault.spec site);
  Alcotest.check_raises "trips" (Fault.Injected site) (fun () ->
      Fault.trip site);
  (* count 1: self-disarmed, trip is now a no-op *)
  Fault.trip site;
  Fault.arm (Fault.spec ~count:max_int site);
  Fault.disarm site;
  Fault.trip site;
  Alcotest.(check int) "disarmed counters" 0 (Fault.hits site)

(* ---------------------------- degradation ---------------------------- *)

let test_degradation_severity () =
  let open Degradation in
  Alcotest.(check int) "numerical" 0 (severity (Numerical_recovery 2));
  Alcotest.(check int) "budget" 1 (severity Budget_exhausted_warm_fallback);
  Alcotest.(check int) "raw warm" 2 (severity Raw_warm_packing);
  Alcotest.(check bool) "worker failure benign" false
    (degrades_quality (Worker_failure "x"));
  Alcotest.(check bool) "deadline degrades" true
    (degrades_quality Deadline_truncated);
  Alcotest.(check string) "stable rendering" "net_bound_dropped(n3,n7)"
    (to_string (Net_bound_dropped [ "n3"; "n7" ]));
  Alcotest.(check string) "recovery rendering" "numerical_recovery(2)"
    (to_string (Numerical_recovery 2))

(* ------------------------- degradation ladder ------------------------ *)

(* Budget exhausted on every step: each step must fall back to its
   warm packing and say so. *)
let test_budget_warm_fallback () =
  with_clean_faults @@ fun () ->
  let nl = gen ~n:6 ~seed:41 in
  Fault.arm (Fault.spec ~count:max_int "branch_bound.budget");
  let res = Augment.run ~config:small_cfg nl in
  Alcotest.(check bool) "valid placement" true (valid res);
  Alcotest.(check bool) "fallback recorded" true
    (contains Degradation.Budget_exhausted_warm_fallback res);
  Alcotest.(check bool) "not interrupted" false res.Augment.interrupted

(* Candidate evaluation dies on every step: the step commits the raw
   warm packing geometrically and the run still produces a valid
   floorplan. *)
let test_raw_warm_packing () =
  with_clean_faults @@ fun () ->
  let nl = gen ~n:6 ~seed:42 in
  Fault.arm (Fault.spec ~count:max_int "augment.candidate_milp");
  let res = Augment.run ~config:small_cfg nl in
  Alcotest.(check bool) "valid placement" true (valid res);
  Alcotest.(check bool) "raw warm recorded" true
    (contains Degradation.Raw_warm_packing res);
  Alcotest.(check bool) "candidate failure recorded" true
    (List.exists
       (function Degradation.Candidate_failed _ -> true | _ -> false)
       (degs_of res))

(* Every step runs its search once, under the configured budget: a
   one-shot budget fault (it fires at the first step's first budget
   check, before the root LP) makes that step commit its warm packing,
   and no step searches again or beyond its node limit. *)
let test_one_attempt_per_step () =
  with_clean_faults @@ fun () ->
  let nl = gen ~n:6 ~seed:43 in
  Fault.arm (Fault.spec "branch_bound.budget");
  let res = Augment.run ~config:small_cfg nl in
  let first = List.hd res.Augment.steps in
  Alcotest.(check int) "fault fired once" 1
    (Fault.injections "branch_bound.budget");
  Alcotest.(check bool) "faulted step fell back" true
    (List.mem Degradation.Budget_exhausted_warm_fallback
       first.Augment.degradations);
  Alcotest.(check int) "faulted step solved no LP" 0 first.Augment.nodes;
  List.iter
    (fun (s : Augment.step_stat) ->
      Alcotest.(check int) "no retries" 0 s.Augment.retries;
      Alcotest.(check bool) "within the node limit" true
        (s.Augment.nodes <= small_cfg.Augment.milp.BB.node_limit))
    res.Augment.steps;
  Alcotest.(check bool) "valid placement" true (valid res)

(* An expired run deadline: every remaining group is committed from its
   warm packing, visibly. *)
let test_deadline_truncation () =
  let nl = gen ~n:6 ~seed:44 in
  let res =
    Augment.run
      ~config:{ small_cfg with Augment.run_time_limit = Some 1e-9 }
      nl
  in
  Alcotest.(check bool) "valid placement" true (valid res);
  Alcotest.(check bool) "all modules placed" true
    (Placement.num_placed res.Augment.placement = Netlist.num_modules nl);
  Alcotest.(check bool) "every step truncated" true
    (List.for_all
       (fun (s : Augment.step_stat) ->
         List.mem Degradation.Deadline_truncated s.Augment.degradations)
       res.Augment.steps)

(* LP-level faults (stalled simplex, singular warm LU) surface as
   numerical-recovery notes, not as failures: each leg's plan certifies.
   Sibling node LPs share one factorization of their parent's basis; at
   this seed the fifth warm solve (after:4) is a second child, whose
   sibling has already factorized and used the shared start, so the
   fault there must leave the shared factors usable. *)
let test_numerical_recovery_notes () =
  let nl = gen ~n:6 ~seed:45 in
  List.iter
    (fun spec ->
      with_clean_faults @@ fun () ->
      Fault.arm spec;
      let res = Augment.run ~config:small_cfg nl in
      let what = Fault.to_string spec in
      Alcotest.(check bool) (what ^ ": fault fired") true
        (Fault.injections spec.Fault.site > 0);
      Alcotest.(check bool) (what ^ ": valid placement") true (valid res);
      Alcotest.(check bool) (what ^ ": certified") true
        (List.for_all
           (fun (d : Fp_check.Diagnostic.t) ->
             d.Fp_check.Diagnostic.severity <> Fp_check.Diagnostic.Error)
           (Fp_check.Certify.placement nl res.Augment.placement));
      Alcotest.(check bool) (what ^ ": recovery recorded") true
        (List.exists
           (function Degradation.Numerical_recovery _ -> true | _ -> false)
           (degs_of res)))
    [
      Fault.spec ~count:2 "revised.iteration_limit";
      Fault.spec ~count:2 "basis.singular_lu";
      Fault.spec ~after:4 "basis.singular_lu";
    ]

(* Two rectangles too wide to sit side by side: the root LP is
   fractional on the pair, and its four children are leaves that all
   warm-start from the root's one shared factorization.  A singular LU
   forced on the second child sends only that child to a cold solve. *)
let test_singular_lu_after_shared_factorization () =
  with_clean_faults @@ fun () ->
  let build () =
    Strip_packing.model ~chip_w:6. ~big_h:20. [| (4., 3.); (3., 5.) |]
  in
  let clean = BB.solve (build ()) in
  Alcotest.(check (pair int int)) "root and four warm leaves" (5, 4)
    (clean.BB.work.nodes, clean.BB.work.warm_hits);
  Fault.arm (Fault.spec ~after:1 "basis.singular_lu");
  let hit = BB.solve (build ()) in
  Alcotest.(check int) "one injection" 1 (Fault.injections "basis.singular_lu");
  Alcotest.(check (pair int int)) "only that child went cold" (5, 3)
    (hit.BB.work.nodes, hit.BB.work.warm_hits);
  Alcotest.(check int) "counted as a recovery" 1
    hit.BB.work.numerical_recoveries;
  Alcotest.(check bool) "same answer" true (hit.BB.best = clean.BB.best);
  Alcotest.(check bool) "optimal" true (hit.BB.status = BB.Optimal)

(* A crashing hook is contained as Hook_failed; Abort interrupts
   cooperatively. *)
let test_hook_containment () =
  let nl = gen ~n:6 ~seed:46 in
  let inspect =
    { Augment.on_model = (fun _ -> failwith "boom"); on_step = (fun _ _ -> ()) }
  in
  let res =
    Augment.run ~config:{ small_cfg with Augment.inspect = Some inspect } nl
  in
  Alcotest.(check bool) "run completed" false res.Augment.interrupted;
  Alcotest.(check bool) "hook failure recorded" true
    (List.exists
       (function Degradation.Hook_failed _ -> true | _ -> false)
       (degs_of res))

let test_hook_abort () =
  let nl = gen ~n:6 ~seed:46 in
  let steps_seen = ref 0 in
  let inspect =
    { Augment.on_model = (fun _ -> ());
      on_step =
        (fun _ _ ->
          incr steps_seen;
          if !steps_seen >= 1 then raise Augment.Abort) }
  in
  let res =
    Augment.run ~config:{ small_cfg with Augment.inspect = Some inspect } nl
  in
  Alcotest.(check bool) "interrupted" true res.Augment.interrupted;
  Alcotest.(check int) "stopped after one step" 1
    (List.length res.Augment.steps)

(* A worker of the candidate batch crashes: the step re-evaluates its
   candidates sequentially, records the failure, and commits what the
   un-faulted run commits. *)
let test_worker_failure_under_candidates () =
  with_clean_faults @@ fun () ->
  let nl = gen ~n:8 ~seed:47 in
  let cfg = { small_cfg with Augment.candidates = 2 } in
  let clean = Augment.run ~config:cfg nl in
  Fault.arm (Fault.spec "pool.worker_exn");
  let res = Augment.run ~config:cfg nl in
  Alcotest.(check int) "fault fired" 1 (Fault.injections "pool.worker_exn");
  Alcotest.(check bool) "failure recorded" true
    (List.exists
       (function Degradation.Worker_failure _ -> true | _ -> false)
       (degs_of res));
  Alcotest.(check bool) "identical floorplan" true
    (res.Augment.placement = clean.Augment.placement)

(* ------------------------------ journal ------------------------------ *)

let tmp_path () = Filename.temp_file "fp_resilience" ".journal"

let sample_journal () =
  let placed id r rotated =
    { Placement.module_id = id; rect = r; envelope = r; rotated }
  in
  let pl =
    Placement.empty ~chip_width:10.
    |> Fun.flip Placement.add (placed 0 (Rect.make ~x:0. ~y:0. ~w:2.5 ~h:3.) false)
    |> Fun.flip Placement.add
         (placed 1 (Rect.make ~x:2.5 ~y:0. ~w:(1. /. 3.) ~h:1.75) true)
  in
  { Journal.config_digest = "cafe"; instance_digest = "beef";
    chip_width = 10.; steps_done = 1; placement = pl;
    remaining = [ [ 2; 3 ]; [ 4 ] ] }

let test_journal_roundtrip () =
  let j = sample_journal () in
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Journal.write ~path j;
      let j' = Result.get_ok (Journal.read ~path) in
      Alcotest.(check bool) "identical record" true (j = j'))

(* A rewrite that cannot complete (here the tmp sibling is a directory)
   must raise and leave the previous checkpoint readable, never a torn
   one. *)
let test_journal_rewrite_atomic () =
  let j = sample_journal () in
  let path = tmp_path () in
  let tmp = path ^ ".tmp" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.rmdir tmp)
    (fun () ->
      Journal.write ~path j;
      Sys.mkdir tmp 0o755;
      Alcotest.(check bool) "rewrite raises" true
        (match Journal.write ~path { j with Journal.steps_done = 2 } with
        | () -> false
        | exception Sys_error _ -> true);
      Alcotest.(check bool) "first journal intact" true
        (Journal.read ~path = Ok j))

let test_journal_rejects_garbage () =
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "fpjournal 1\nconfig x\nnot a journal\n";
      close_out oc;
      Alcotest.(check bool) "rejected" true
        (Result.is_error (Journal.read ~path)))

(* ---------------------------- checkpoint ----------------------------- *)

(* The headline resume guarantee: interrupt a run, resume it from its
   journal, and the final floorplan is bit-identical to the
   uninterrupted run's. *)
let test_checkpoint_resume_bit_identical () =
  let nl = gen ~n:8 ~seed:48 in
  let path_full = tmp_path () and path_cut = tmp_path () in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path_full;
      Sys.remove path_cut)
    (fun () ->
      let full =
        Augment.run
          ~config:{ small_cfg with Augment.checkpoint = Some path_full }
          nl
      in
      let steps_seen = ref 0 in
      let interruptor =
        { Augment.on_model = (fun _ -> ());
          on_step =
            (fun _ _ ->
              incr steps_seen;
              if !steps_seen >= 2 then raise Augment.Abort) }
      in
      let cut =
        Augment.run
          ~config:
            { small_cfg with
              Augment.checkpoint = Some path_cut;
              inspect = Some interruptor }
          nl
      in
      Alcotest.(check bool) "interrupted" true cut.Augment.interrupted;
      let journal = Result.get_ok (Journal.read ~path:path_cut) in
      let resumed =
        Augment.run ~resume:journal
          ~config:{ small_cfg with Augment.checkpoint = Some path_cut }
          nl
      in
      Alcotest.(check bool) "resumed = uninterrupted" true
        (resumed.Augment.placement = full.Augment.placement);
      (* The final journals are byte-identical too. *)
      let slurp p =
        let ic = open_in_bin p in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) "journal bytes" (slurp path_full)
        (slurp path_cut))

let test_resume_rejects_mismatch () =
  let nl = gen ~n:6 ~seed:49 in
  let path = tmp_path () in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      ignore
        (Augment.run
           ~config:{ small_cfg with Augment.checkpoint = Some path }
           nl);
      let journal = Result.get_ok (Journal.read ~path) in
      let other_cfg = { small_cfg with Augment.group_size = 2 } in
      let rejects cfg inst =
        match Augment.run ~resume:journal ~config:cfg inst with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      Alcotest.(check bool) "config mismatch" true (rejects other_cfg nl);
      Alcotest.(check bool) "instance mismatch" true
        (rejects small_cfg (gen ~n:6 ~seed:50)))

let test_config_digest_scope () =
  let d = Augment.config_digest in
  Alcotest.(check bool) "checkpoint excluded" true
    (d small_cfg = d { small_cfg with Augment.checkpoint = Some "x" });
  Alcotest.(check bool) "group size included" true
    (d small_cfg <> d { small_cfg with Augment.group_size = 2 });
  Alcotest.(check bool) "deadline included" true
    (d small_cfg <> d { small_cfg with Augment.run_time_limit = Some 5. });
  (* Pinned: a changed rendering would orphan every journal on disk. *)
  Alcotest.(check string) "default digest" "0b860fd8fcb48c078731f014b8cf5cec"
    (d Augment.default_config);
  Alcotest.(check string) "tight digest" "6e8c48969b07e105d05bea2d146a9e33"
    (d { Augment.default_config with Augment.formulation = Formulation.Tight })

let () =
  Alcotest.run "resilience"
    [
      ( "fault",
        [
          Alcotest.test_case "parse" `Quick test_fault_parse;
          Alcotest.test_case "parse/to_string roundtrip" `Quick
            test_fault_roundtrip;
          Alcotest.test_case "fire counts" `Quick test_fault_fire_counts;
          Alcotest.test_case "trip and disarm" `Quick
            test_fault_trip_and_disarm;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "severity and rendering" `Quick
            test_degradation_severity;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "budget warm fallback" `Quick
            test_budget_warm_fallback;
          Alcotest.test_case "raw warm packing" `Quick test_raw_warm_packing;
          Alcotest.test_case "one attempt per step" `Quick
            test_one_attempt_per_step;
          Alcotest.test_case "deadline truncation" `Quick
            test_deadline_truncation;
          Alcotest.test_case "numerical recovery notes" `Quick
            test_numerical_recovery_notes;
          Alcotest.test_case "singular LU after a shared factorization"
            `Quick test_singular_lu_after_shared_factorization;
          Alcotest.test_case "hook containment" `Quick test_hook_containment;
          Alcotest.test_case "hook abort" `Quick test_hook_abort;
          Alcotest.test_case "worker failure under candidates" `Quick
            test_worker_failure_under_candidates;
        ] );
      ( "journal",
        [
          Alcotest.test_case "roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "rewrite is atomic" `Quick
            test_journal_rewrite_atomic;
          Alcotest.test_case "rejects garbage" `Quick
            test_journal_rejects_garbage;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "resume bit-identical" `Quick
            test_checkpoint_resume_bit_identical;
          Alcotest.test_case "rejects mismatch" `Quick
            test_resume_rejects_mismatch;
          Alcotest.test_case "digest scope" `Quick test_config_digest_scope;
        ] );
    ]
