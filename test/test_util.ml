(* Tests for Fp_util: the deterministic RNG, the stats helpers, and the
   binary heap. *)

module Rng = Fp_util.Rng
module Stats = Fp_util.Stats
module Heap = Fp_util.Heap
module Pool = Fp_util.Pool

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ------------------------------- Rng ------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool)
    "different seeds diverge" false
    (Rng.next_int64 a = Rng.next_int64 b)

let test_rng_int_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "0 <= v < 17" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_bad_bound () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_float_range () =
  let rng = Rng.create 9 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 3.5 in
    Alcotest.(check bool) "0 <= v < 3.5" true (v >= 0. && v < 3.5)
  done

let test_rng_int_coverage () =
  (* All residues of a small modulus should appear. *)
  let rng = Rng.create 3 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 5) <- true
  done;
  Alcotest.(check bool) "all residues hit" true (Array.for_all Fun.id seen)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 11 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "is a permutation" (Array.init 50 Fun.id) sorted

let test_rng_copy () =
  let a = Rng.create 13 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  check Alcotest.int64 "copy resumes identically" (Rng.next_int64 a)
    (Rng.next_int64 b)

(* SplitMix64's published reference stream for seed 0: the state
   representation may change, the stream may not. *)
let test_rng_reference_stream () =
  let rng = Rng.create 0 in
  List.iter
    (fun want -> check Alcotest.int64 "splitmix64 seed 0" want (Rng.next_int64 rng))
    [ 0xe220a8397b1dcdafL; 0x6e789e6aa1b965f4L; 0x06c45d188009454fL ]

(* One recorded shuffle: the draws and the swaps of every seeded
   permutation (generated instances, orderings, projection sweeps). *)
let test_rng_shuffle_pinned () =
  let arr = Array.init 12 Fun.id in
  Rng.shuffle (Rng.create 1990) arr;
  check Alcotest.(array int) "seed 1990" [| 6; 9; 1; 4; 5; 3; 11; 0; 7; 2; 8; 10 |] arr

(* The shuffle makes the draws of [Rng.int] on the generator itself,
   one per position from the last down, and leaves the generator where
   those draws do. *)
let test_rng_shuffle_matches_int =
  QCheck.Test.make ~name:"shuffle draws as Rng.int does" ~count:200
    ~long_factor:50
    QCheck.(pair (int_range 0 2_000) int)
    (fun (n, seed) ->
      let rng = Rng.create seed and oracle = Rng.create seed in
      let arr = Array.init n Fun.id and want = Array.init n Fun.id in
      Rng.shuffle rng arr;
      for i = n - 1 downto 1 do
        let j = Rng.int oracle (i + 1) in
        let tmp = want.(i) in
        want.(i) <- want.(j);
        want.(j) <- tmp
      done;
      arr = want && Int64.equal (Rng.next_int64 rng) (Rng.next_int64 oracle))

(* ------------------------------ Stats ------------------------------ *)

let test_mean () = checkf "mean" 2.5 (Stats.mean [ 1.; 2.; 3.; 4. ])

let test_mean_empty () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty")
    (fun () -> ignore (Stats.mean []))

let test_stddev () =
  checkf "constant stddev" 0. (Stats.stddev [ 3.; 3.; 3. ]);
  checkf "population stddev of [0;2]" 1. (Stats.stddev [ 0.; 2. ]);
  checkf "singleton" 0. (Stats.stddev [ 42. ])

let test_linear_fit_exact () =
  let fit = Stats.linear_fit [ (1., 3.); (2., 5.); (3., 7.) ] in
  checkf "slope" 2. fit.Stats.slope;
  checkf "intercept" 1. fit.Stats.intercept;
  checkf "r2" 1. fit.Stats.r2

let test_linear_fit_flat () =
  let fit = Stats.linear_fit [ (1., 4.); (2., 4.); (3., 4.) ] in
  checkf "flat slope" 0. fit.Stats.slope;
  checkf "flat r2" 1. fit.Stats.r2

let test_linear_fit_degenerate () =
  Alcotest.check_raises "same x"
    (Invalid_argument "Stats.linear_fit: degenerate x values") (fun () ->
      ignore (Stats.linear_fit [ (1., 1.); (1., 2.) ]))

(* ------------------------------ Heap ------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> Heap.push h k k) [ 5.; 1.; 4.; 2.; 3. ];
  let order = List.init 5 (fun _ -> Option.get (Heap.pop h) |> snd) in
  check Alcotest.(list (float 0.)) "pops ascending" [ 1.; 2.; 3.; 4.; 5. ] order

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check bool) "pop none" true (Heap.pop h = None);
  Alcotest.(check bool) "peek none" true (Heap.peek h = None)

let test_heap_duplicates () =
  let h = Heap.create () in
  Heap.push h 1. "a";
  Heap.push h 1. "b";
  Heap.push h 0. "c";
  Alcotest.(check string) "min first" "c" (snd (Option.get (Heap.pop h)));
  Alcotest.(check int) "two left" 2 (Heap.size h)

let test_heap_random_sorts =
  QCheck.Test.make ~name:"heap sorts any float list" ~count:200
    QCheck.(list (float_bound_exclusive 1000.))
    (fun floats ->
      let h = Heap.create () in
      List.iter (fun f -> Heap.push h f f) floats;
      let rec drain acc =
        match Heap.pop h with
        | Some (k, _) -> drain (k :: acc)
        | None -> List.rev acc
      in
      drain [] = List.sort compare floats)

let test_heap_vs_oracle =
  (* Random interleaving of pushes and pops, checked move-by-move against
     a sorted-list oracle. *)
  let op =
    QCheck.(
      oneof
        [
          map (fun f -> `Push f) (float_bound_exclusive 100.);
          always `Pop;
        ])
  in
  QCheck.Test.make ~name:"heap matches sorted-list oracle" ~count:300
    (QCheck.list op) (fun ops ->
      let h = Heap.create () in
      let oracle = ref [] in
      List.for_all
        (fun operation ->
          match operation with
          | `Push f ->
            Heap.push h f f;
            oracle := List.merge compare [ f ] !oracle;
            Heap.size h = List.length !oracle
          | `Pop -> (
            match (Heap.pop h, !oracle) with
            | None, [] -> true
            | Some (k, v), x :: rest ->
              oracle := rest;
              k = x && v = x
            | _ -> false))
        ops
      && Heap.size h = List.length !oracle)

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h 3. 3;
  Heap.push h 1. 1;
  Alcotest.(check int) "pop 1" 1 (snd (Option.get (Heap.pop h)));
  Heap.push h 0. 0;
  Heap.push h 2. 2;
  Alcotest.(check int) "pop 0" 0 (snd (Option.get (Heap.pop h)));
  Alcotest.(check int) "pop 2" 2 (snd (Option.get (Heap.pop h)));
  Alcotest.(check int) "pop 3" 3 (snd (Option.get (Heap.pop h)))

(* ------------------------------ Pool ------------------------------- *)

let test_pool_map_correct () =
  List.iter
    (fun jobs ->
      let out = Pool.map ~jobs ~n:100 (fun i -> i * i) in
      check
        Alcotest.(array int)
        (Printf.sprintf "squares at jobs=%d" jobs)
        (Array.init 100 (fun i -> i * i))
        out)
    [ 1; 2; 4 ];
  check Alcotest.(array int) "empty batch" [||]
    (Pool.map ~jobs:4 ~n:0 Fun.id)

(* The domains a batch ran its tasks on, by [Domain.self]. *)
let domains_used ~jobs ~n =
  List.length
    (List.sort_uniq Int.compare
       (Array.to_list
          (Pool.map ~jobs ~n (fun _ -> (Domain.self () :> int)))))

let test_pool_domains_per_batch () =
  List.iter
    (fun (jobs, n) ->
      let used = domains_used ~jobs ~n in
      if used < 1 || used > Int.max 1 (Int.min jobs n) then
        Alcotest.failf "%d domains ran a batch at jobs=%d n=%d" used jobs n)
    [ (4, 64); (4, 2); (3, 3) ]

let test_pool_exception_propagates () =
  (* One task raises: the rest of the batch still runs, and the
     exception surfaces after every domain is joined. *)
  let ran = Array.make 16 false in
  Alcotest.check_raises "task failure surfaces" (Failure "task 7") (fun () ->
      Pool.run ~jobs:3 ~n:16 (fun i ->
          ran.(i) <- true;
          if i = 7 then failwith "task 7"));
  Alcotest.(check bool) "the batch drained" true (Array.for_all Fun.id ran)

let test_pool_skewed_batch () =
  (* One heavy task next to many trivial ones: free workers take the
     next index, and every result is produced exactly once. *)
  let out =
    Pool.map ~jobs:4 ~n:32 (fun i ->
        if i = 0 then begin
          let acc = ref 0 in
          for k = 1 to 2_000_000 do
            acc := (!acc * 31) + k
          done;
          ignore !acc
        end;
        i)
  in
  check Alcotest.(array int) "all slots filled once" (Array.init 32 Fun.id) out

let test_pool_jobs_clamped () =
  (* [jobs] below 1 runs the batch on the calling domain alone; above
     [n], at most [n] domains run. *)
  let self = (Domain.self () :> int) in
  check Alcotest.(array int) "jobs 0: the calling domain" (Array.make 5 self)
    (Pool.map ~jobs:0 ~n:5 (fun _ -> (Domain.self () :> int)));
  Alcotest.(check bool) "jobs 1000, n 3: at most 3 domains" true
    (domains_used ~jobs:1000 ~n:3 <= 3)

let () =
  Alcotest.run "fp_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "int coverage" `Quick test_rng_int_coverage;
          Alcotest.test_case "shuffle permutation" `Quick
            test_rng_shuffle_permutation;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "reference stream" `Quick test_rng_reference_stream;
          Alcotest.test_case "shuffle pinned" `Quick test_rng_shuffle_pinned;
          QCheck_alcotest.to_alcotest test_rng_shuffle_matches_int;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "mean empty" `Quick test_mean_empty;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "linear fit exact" `Quick test_linear_fit_exact;
          Alcotest.test_case "linear fit flat" `Quick test_linear_fit_flat;
          Alcotest.test_case "linear fit degenerate" `Quick
            test_linear_fit_degenerate;
        ] );
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "duplicates" `Quick test_heap_duplicates;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          QCheck_alcotest.to_alcotest test_heap_random_sorts;
          QCheck_alcotest.to_alcotest test_heap_vs_oracle;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map correctness" `Quick test_pool_map_correct;
          Alcotest.test_case "domains per batch" `Quick
            test_pool_domains_per_batch;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception_propagates;
          Alcotest.test_case "skewed batch steals" `Quick
            test_pool_skewed_batch;
          Alcotest.test_case "jobs clamped" `Quick test_pool_jobs_clamped;
        ] );
    ]
