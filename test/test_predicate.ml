(* Tests for selection predicates and their three-way evaluation. *)

let tvl = Alcotest.testable Tvl.pp Tvl.equal
let checkf tol = Alcotest.(check (float tol))

let test_eval_strictness () =
  Alcotest.(check bool) "ge includes bound" true (Predicate.eval (Predicate.ge 5.0) 5.0);
  Alcotest.(check bool) "gt excludes bound" false (Predicate.eval (Predicate.gt 5.0) 5.0);
  Alcotest.(check bool) "le includes bound" true (Predicate.eval (Predicate.le 5.0) 5.0);
  Alcotest.(check bool) "lt excludes bound" false (Predicate.eval (Predicate.lt 5.0) 5.0)

let test_compound_eval () =
  let p = Predicate.(ge 0.0 &&& le 10.0) in
  Alcotest.(check bool) "in range" true (Predicate.eval p 5.0);
  Alcotest.(check bool) "out of range" false (Predicate.eval p 11.0);
  let q = Predicate.(lt 0.0 ||| gt 10.0) in
  Alcotest.(check bool) "disjunction left" true (Predicate.eval q (-1.0));
  Alcotest.(check bool) "negation" true (Predicate.eval (Predicate.not_ q) 5.0)

let test_constructor_errors () =
  Alcotest.check_raises "reversed between"
    (Invalid_argument "Predicate.between: reversed bounds") (fun () ->
      ignore (Predicate.between 5.0 1.0));
  Alcotest.check_raises "non-finite"
    (Invalid_argument "Predicate.ge: bound must be finite") (fun () ->
      ignore (Predicate.ge Float.nan))

let test_classify_compound () =
  let p = Predicate.(ge 0.0 &&& le 10.0) in
  Alcotest.check tvl "inside" Tvl.Yes
    (Predicate.classify p (Uncertain.interval 2.0 8.0));
  Alcotest.check tvl "straddles upper" Tvl.Maybe
    (Predicate.classify p (Uncertain.interval 8.0 12.0));
  Alcotest.check tvl "outside" Tvl.No
    (Predicate.classify p (Uncertain.interval 11.0 12.0));
  (* A hole: NOT(2 <= v <= 4) over support [1,5] is MAYBE even though the
     support's endpoints both satisfy the predicate — interval endpoints
     alone would get this wrong; the satisfying-set semantics gets it
     right. *)
  let hole = Predicate.not_ (Predicate.between 2.0 4.0) in
  Alcotest.check tvl "hole detected" Tvl.Maybe
    (Predicate.classify hole (Uncertain.interval 1.0 5.0))

let test_success_with_hole () =
  (* Uniform on [0, 10]; satisfying set = [0,2] u [8,10] has mass 0.4. *)
  let p = Predicate.(le 2.0 ||| ge 8.0) in
  checkf 1e-9 "union mass" 0.4 (Predicate.success p (Uncertain.interval 0.0 10.0));
  (* Complement has mass 0.6. *)
  checkf 1e-9 "complement mass" 0.6
    (Predicate.success (Predicate.not_ p) (Uncertain.interval 0.0 10.0))

let test_success_gaussian_compound () =
  let g = Uncertain.gaussian ~mean:0.0 ~stddev:1.0 () in
  let p = Predicate.(le (-1.0) ||| ge 1.0) in
  (* 2 * (1 - Phi(1)) = 0.3173105. *)
  checkf 1e-5 "two-tail mass" 0.3173105 (Predicate.success p g)

(* Random predicate trees with integer bounds, checked against direct
   evaluation on off-boundary points. *)

let pred_gen =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              map (fun a -> Predicate.ge (float_of_int a)) (int_range (-20) 20);
              map (fun a -> Predicate.le (float_of_int a)) (int_range (-20) 20);
              (let* a = int_range (-20) 20 in
               let* w = int_range 0 15 in
               return (Predicate.between (float_of_int a) (float_of_int (a + w))));
            ]
        in
        if n <= 1 then leaf
        else
          oneof
            [
              leaf;
              map2 (fun a b -> Predicate.And (a, b)) (self (n / 2)) (self (n / 2));
              map2 (fun a b -> Predicate.Or (a, b)) (self (n / 2)) (self (n / 2));
              map (fun a -> Predicate.Not a) (self (n - 1));
            ]))

let prop_satisfying_set_agrees_with_eval =
  QCheck2.Test.make ~name:"satisfying set agrees with eval off boundaries"
    ~count:500
    QCheck2.Gen.(pair pred_gen (int_range (-30) 30))
    (fun (p, k) ->
      let x = float_of_int k +. 0.5 in
      Real_set.mem (Predicate.satisfying_set p) x = Predicate.eval p x)

let prop_classify_sound =
  QCheck2.Test.make
    ~name:"YES/NO classification is sound for sampled values" ~count:300
    QCheck2.Gen.(pair pred_gen (pair (int_range (-25) 25) (int_range 1 10)))
    (fun (p, (lo, w)) ->
      (* Support with half-integer endpoints avoids boundary ties. *)
      let support =
        Interval.make (float_of_int lo +. 0.5) (float_of_int (lo + w) +. 0.5)
      in
      let u = Uncertain.Interval support in
      let rng = Rng.create 3 in
      let verdict = Predicate.classify p u in
      let ok = ref true in
      for _ = 1 to 30 do
        let x = Interval.sample rng support in
        match verdict with
        | Tvl.Yes -> if not (Predicate.eval p x) then ok := false
        | Tvl.No -> if Predicate.eval p x then ok := false
        | Tvl.Maybe -> ()
      done;
      !ok)

let prop_success_in_bounds_and_consistent =
  QCheck2.Test.make ~name:"success in [0,1], 1 on YES, 0 on NO" ~count:300
    QCheck2.Gen.(pair pred_gen (pair (int_range (-25) 25) (int_range 1 10)))
    (fun (p, (lo, w)) ->
      let u =
        Uncertain.interval (float_of_int lo +. 0.5) (float_of_int (lo + w) +. 0.5)
      in
      let s = Predicate.success p u in
      (s >= 0.0 && s <= 1.0)
      &&
      match Predicate.classify p u with
      | Tvl.Yes -> s = 1.0
      | Tvl.No -> s = 0.0
      | Tvl.Maybe -> true)

let prop_success_complement =
  QCheck2.Test.make ~name:"success p + success (not p) = 1 on intervals"
    ~count:300
    QCheck2.Gen.(pair pred_gen (pair (int_range (-25) 25) (int_range 1 10)))
    (fun (p, (lo, w)) ->
      let u =
        Uncertain.interval (float_of_int lo +. 0.5) (float_of_int (lo + w) +. 0.5)
      in
      let s = Predicate.success p u +. Predicate.success (Predicate.not_ p) u in
      Float.abs (s -. 1.0) < 1e-9)

(* ---- compiled classification against a reference ------------------- *)

(* The reference is written here, straight from the satisfying set's
   components, because the library has a single implementation of the
   set-versus-support tests: the compiled one under test. *)
let reference_classify p (lo, hi) =
  let comps = Real_set.components (Predicate.satisfying_set p) in
  if List.exists (fun (clo, chi) -> clo <= lo && hi <= chi) comps then Tvl.Yes
  else if not (List.exists (fun (clo, chi) -> clo <= hi && lo <= chi) comps)
  then Tvl.No
  else Tvl.Maybe

let reference_success p o =
  let s = Uncertain.support o in
  let comps = Real_set.components (Predicate.satisfying_set p) in
  let mem x = List.exists (fun (clo, chi) -> clo <= x && x <= chi) comps in
  match reference_classify p (Interval.lo s, Interval.hi s) with
  | Tvl.Yes -> 1.0
  | Tvl.No -> 0.0
  | Tvl.Maybe ->
      let mass =
        match o with
        | Uncertain.Exact v -> if mem v then 1.0 else 0.0
        | Uncertain.Interval i ->
            if Interval.is_point i then (if mem (Interval.lo i) then 1.0 else 0.0)
            else
              List.fold_left
                (fun acc (clo, chi) ->
                  let l = Float.max clo (Interval.lo i)
                  and h = Float.min chi (Interval.hi i) in
                  if l < h then acc +. (h -. l) else acc)
                0.0 comps
              /. Interval.width i
        | Uncertain.Gaussian { mean; stddev; _ } ->
            let cdf x =
              if x = infinity then 1.0
              else if x = neg_infinity then 0.0
              else Math_special.normal_cdf ~mean ~stddev x
            in
            List.fold_left (fun acc (clo, chi) -> acc +. (cdf chi -. cdf clo)) 0.0 comps
      in
      Float.min 1.0 (Float.max 0.0 mass)

(* Endpoints on a half-unit grid, so supports often start or end exactly
   on a component bound, and [Not]/[And]/[Or] of integer-bounded leaves
   produce touching components. *)
let belief_gen =
  QCheck2.Gen.(
    let half k = float_of_int k /. 2.0 in
    oneof
      [
        map (fun k -> Uncertain.exact (half k)) (int_range (-50) 50);
        (let* a = int_range (-50) 50 in
         let* w = int_range 1 20 in
         return (Uncertain.interval (half a) (half (a + w))));
        map (fun k -> Uncertain.interval (half k) (half k)) (int_range (-50) 50);
        (let* m = int_range (-50) 50 in
         let* sd = int_range 1 8 in
         return (Uncertain.gaussian ~mean:(half m) ~stddev:(half sd) ()));
      ])

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let prop_compiled_matches_reference =
  QCheck2.Test.make
    ~name:"compiled classify/success equal the component reference" ~count:1000
    QCheck2.Gen.(pair pred_gen belief_gen)
    (fun (p, o) ->
      let c = Predicate.compile p in
      let s = Uncertain.support o in
      let lo = Interval.lo s and hi = Interval.hi s in
      let verdict = reference_classify p (lo, hi) in
      let success = reference_success p o in
      let flat =
        match o with
        | Uncertain.Gaussian _ -> true
        | Uncertain.Exact _ | Uncertain.Interval _ ->
            (* The flat-schema entry points read the support as a
               uniform (or exact) belief. *)
            same_float (Predicate.success_bounds c ~lo ~hi) success
      in
      Tvl.equal (Predicate.classify p o) verdict
      && Tvl.equal (Predicate.classify_compiled c o) verdict
      && Tvl.equal (Predicate.classify_bounds c ~lo ~hi) verdict
      && Tvl.equal (Predicate.classify_interval p s) verdict
      && same_float (Predicate.success p o) success
      && same_float (Predicate.success_compiled c o) success
      && flat)

let suite =
  [
    ("eval strictness", `Quick, test_eval_strictness);
    ("compound eval", `Quick, test_compound_eval);
    ("constructor errors", `Quick, test_constructor_errors);
    ("compound classification", `Quick, test_classify_compound);
    ("success with holes", `Quick, test_success_with_hole);
    ("gaussian compound success", `Quick, test_success_gaussian_compound);
    QCheck_alcotest.to_alcotest prop_satisfying_set_agrees_with_eval;
    QCheck_alcotest.to_alcotest prop_classify_sound;
    QCheck_alcotest.to_alcotest prop_success_in_bounds_and_consistent;
    QCheck_alcotest.to_alcotest prop_success_complement;
    QCheck_alcotest.to_alcotest prop_compiled_matches_reference;
  ]
