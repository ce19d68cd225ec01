type t =
  | Ge of float
  | Gt of float
  | Le of float
  | Lt of float
  | Between of float * float
  | Not of t
  | And of t * t
  | Or of t * t

let check_finite name x =
  if not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Predicate.%s: bound must be finite" name)

let ge x = check_finite "ge" x; Ge x
let gt x = check_finite "gt" x; Gt x
let le x = check_finite "le" x; Le x
let lt x = check_finite "lt" x; Lt x

let between a b =
  check_finite "between" a;
  check_finite "between" b;
  if a > b then invalid_arg "Predicate.between: reversed bounds";
  Between (a, b)

let not_ p = Not p
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)

let rec eval p v =
  match p with
  | Ge x -> v >= x
  | Gt x -> v > x
  | Le x -> v <= x
  | Lt x -> v < x
  | Between (a, b) -> a <= v && v <= b
  | Not q -> not (eval q v)
  | And (a, b) -> eval a v && eval b v
  | Or (a, b) -> eval a v || eval b v

let rec satisfying_set = function
  | Ge x | Gt x -> Real_set.at_least x
  | Le x | Lt x -> Real_set.at_most x
  | Between (a, b) -> Real_set.segment a b
  | Not q -> Real_set.complement (satisfying_set q)
  | And (a, b) -> Real_set.inter (satisfying_set a) (satisfying_set b)
  | Or (a, b) -> Real_set.union (satisfying_set a) (satisfying_set b)

(* ---- compiled form ------------------------------------------------ *)

(* The satisfying set, built once: a flat sorted array of component
   bounds ([Real_set.t]).  Every three-way test below — on a compiled
   predicate, a belief or a bare support — runs [Real_set]'s one
   float-typed loop over it, so the row path, the column kernel and the
   pruning tests cannot disagree. *)
type compiled = Real_set.t

let compile = satisfying_set
let classify_bounds c ~lo ~hi = Real_set.classify_bounds c ~lo ~hi
let success_bounds c ~lo ~hi = Real_set.uniform_success_bounds c ~lo ~hi

let classify_columns c ~lo ~hi ~len ~off ~verdicts ~laxities ~successes =
  Real_set.classify_supports c ~lo ~hi ~len ~off ~verdicts ~laxities
    ~successes

let classify_compiled c o =
  match o with
  | Uncertain.Exact v -> classify_bounds c ~lo:v ~hi:v
  | Uncertain.Interval i -> classify_bounds c ~lo:(Interval.lo i) ~hi:(Interval.hi i)
  | Uncertain.Gaussian _ ->
      let s = Uncertain.support o in
      classify_bounds c ~lo:(Interval.lo s) ~hi:(Interval.hi s)

let success_compiled c o =
  match o with
  | Uncertain.Exact v -> success_bounds c ~lo:v ~hi:v
  | Uncertain.Interval i ->
      success_bounds c ~lo:(Interval.lo i) ~hi:(Interval.hi i)
  | Uncertain.Gaussian { mean; stddev; _ } -> (
      match classify_compiled c o with
      | Tvl.Yes -> 1.0
      | Tvl.No -> 0.0
      | Tvl.Maybe ->
          let cdf x =
            if x = infinity then 1.0
            else if x = neg_infinity then 0.0
            else Math_special.normal_cdf ~mean ~stddev x
          in
          let mass =
            List.fold_left
              (fun acc (lo, hi) -> acc +. (cdf hi -. cdf lo))
              0.0
              (Real_set.components c)
          in
          Float.min 1.0 (Float.max 0.0 mass))

let classify p o = classify_compiled (compile p) o
let success p o = success_compiled (compile p) o

let classify_interval p support =
  classify_bounds (compile p) ~lo:(Interval.lo support)
    ~hi:(Interval.hi support)

let rec pp ppf = function
  | Ge x -> Format.fprintf ppf "v >= %g" x
  | Gt x -> Format.fprintf ppf "v > %g" x
  | Le x -> Format.fprintf ppf "v <= %g" x
  | Lt x -> Format.fprintf ppf "v < %g" x
  | Between (a, b) -> Format.fprintf ppf "%g <= v <= %g" a b
  | Not q -> Format.fprintf ppf "not (%a)" pp q
  | And (a, b) -> Format.fprintf ppf "(%a) and (%a)" pp a pp b
  | Or (a, b) -> Format.fprintf ppf "(%a) or (%a)" pp a pp b

let to_string p = Format.asprintf "%a" pp p
