(* Tests for the SplitMix64 generator. *)

let check = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  checki "different seeds diverge" 0 !same

let test_copy_independent () =
  let a = Rng.create 9 in
  ignore (Rng.bits64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.bits64 a) (Rng.bits64 b);
  (* Advancing one does not advance the other. *)
  ignore (Rng.bits64 a);
  ignore (Rng.bits64 a);
  let va = Rng.bits64 a and vb = Rng.bits64 b in
  check "diverged states" true (va <> vb)

let test_split_independent () =
  let a = Rng.create 5 in
  let b = Rng.split a in
  let xs = Array.init 32 (fun _ -> Rng.bits64 a) in
  let ys = Array.init 32 (fun _ -> Rng.bits64 b) in
  let collisions = ref 0 in
  Array.iter (fun x -> Array.iter (fun y -> if x = y then incr collisions) ys) xs;
  checki "no stream collisions" 0 !collisions

let test_int_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 10000 do
    let v = Rng.int rng 17 in
    check "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniformity () =
  (* Chi-square against 8 buckets; bound is generous (p << 1e-6 to fail). *)
  let rng = Rng.create 1234 in
  let buckets = Array.make 8 0 in
  let n = 80000 in
  for _ = 1 to n do
    let b = Rng.int rng 8 in
    buckets.(b) <- buckets.(b) + 1
  done;
  let expected = float_of_int n /. 8.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 buckets
  in
  check "chi-square below 50 (7 dof)" true (chi2 < 50.0)

let test_uniform_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10000 do
    let u = Rng.uniform rng in
    check "in [0,1)" true (u >= 0.0 && u < 1.0)
  done

let test_uniform_in () =
  let rng = Rng.create 8 in
  for _ = 1 to 1000 do
    let v = Rng.uniform_in rng (-3.0) 5.0 in
    check "in [-3,5)" true (v >= -3.0 && v < 5.0)
  done;
  Alcotest.check_raises "reversed" (Invalid_argument "Rng.uniform_in: lo > hi")
    (fun () -> ignore (Rng.uniform_in rng 1.0 0.0))

let test_bernoulli_extremes () =
  let rng = Rng.create 10 in
  for _ = 1 to 100 do
    check "p=1 always true" true (Rng.bernoulli rng 1.0);
    check "p=0 always false" false (Rng.bernoulli rng 0.0)
  done

let test_bernoulli_rate () =
  let rng = Rng.create 11 in
  let hits = ref 0 in
  let n = 50000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.01)

let test_gaussian_moments () =
  let rng = Rng.create 12 in
  let n = 50000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng ~mean:3.0 ~stddev:2.0) in
  check "mean near 3" true (Float.abs (Stats.mean xs -. 3.0) < 0.05);
  check "stddev near 2" true (Float.abs (Stats.stddev xs -. 2.0) < 0.05)

let test_exponential () =
  let rng = Rng.create 13 in
  let n = 50000 in
  let xs = Array.init n (fun _ -> Rng.exponential rng ~rate:2.0) in
  Array.iter (fun x -> check "non-negative" true (x >= 0.0)) xs;
  check "mean near 1/2" true (Float.abs (Stats.mean xs -. 0.5) < 0.02);
  Alcotest.check_raises "rate 0"
    (Invalid_argument "Rng.exponential: rate must be positive") (fun () ->
      ignore (Rng.exponential rng ~rate:0.0))

let test_shuffle_permutation () =
  let rng = Rng.create 14 in
  let a = Array.init 100 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation"
    (Array.init 100 (fun i -> i))
    sorted;
  check "actually shuffled" true (a <> Array.init 100 (fun i -> i))

let test_sample_without_replacement () =
  let rng = Rng.create 15 in
  let s = Rng.sample_without_replacement rng 10 50 in
  checki "size" 10 (Array.length s);
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun i ->
      check "in range" true (i >= 0 && i < 50);
      check "distinct" false (Hashtbl.mem seen i);
      Hashtbl.add seen i ())
    s;
  Alcotest.check_raises "k > n"
    (Invalid_argument "Rng.sample_without_replacement: k > n") (fun () ->
      ignore (Rng.sample_without_replacement rng 5 3))

(* Absolute outputs of [Rng.create 42], pinned as literals (captured
   before the state moved into an unboxed buffer): the tests above only
   compare the generator with itself, so they could not tell a changed
   sequence from the old one. *)
let test_golden_stream () =
  let r = Rng.create 42 in
  List.iter
    (fun expected -> Alcotest.(check int64) "bits64" expected (Rng.bits64 r))
    [
      -7450291807549245335L;
      2958219263312191191L;
      3069497704473277141L;
      885919558081284366L;
      -353919125003956057L;
      4337243929683858115L;
      5152897204343404489L;
      2820384354626331986L;
    ];
  Alcotest.(check int64) "uniform"
    (Int64.bits_of_float 0x1.8578493c50ec1p-1)
    (Int64.bits_of_float (Rng.uniform r));
  let s = Rng.split r in
  Alcotest.(check int64) "first draw of a split" (-1118732243571790362L)
    (Rng.bits64 s);
  Alcotest.(check int64) "parent after the split" (-4345211542386587372L)
    (Rng.bits64 r)

let suite =
  [
    ("determinism", `Quick, test_determinism);
    ("golden stream", `Quick, test_golden_stream);
    ("seeds differ", `Quick, test_seeds_differ);
    ("copy is independent", `Quick, test_copy_independent);
    ("split is independent", `Quick, test_split_independent);
    ("int range and errors", `Quick, test_int_range);
    ("int uniformity (chi-square)", `Quick, test_int_uniformity);
    ("uniform range", `Quick, test_uniform_range);
    ("uniform_in range and errors", `Quick, test_uniform_in);
    ("bernoulli extremes", `Quick, test_bernoulli_extremes);
    ("bernoulli rate", `Quick, test_bernoulli_rate);
    ("gaussian moments", `Quick, test_gaussian_moments);
    ("exponential", `Quick, test_exponential);
    ("shuffle is a permutation", `Quick, test_shuffle_permutation);
    ("sample without replacement", `Quick, test_sample_without_replacement);
  ]
