(* Representation: the components flattened into one float array,
   [| lo0; hi0; lo1; hi1; ... |], sorted by lower bound, pairwise
   disjoint and non-touching (gaps have positive length), each with
   lo <= hi and no NaN.  The set algebra works on pair lists;
   [normalize] (re)establishes the invariant and flattens. *)

type t = float array

let empty = [||]
let full = [| neg_infinity; infinity |]

let check_bounds lo hi =
  if Float.is_nan lo || Float.is_nan hi then
    invalid_arg "Real_set: NaN bound";
  if lo > hi then invalid_arg "Real_set: lo > hi"

let segment lo hi =
  check_bounds lo hi;
  [| lo; hi |]

let at_least x = segment x infinity
let at_most x = segment neg_infinity x

let components (t : t) =
  List.init (Array.length t / 2) (fun k -> (t.(2 * k), t.((2 * k) + 1)))

let of_components components =
  let t = Array.make (2 * List.length components) 0.0 in
  List.iteri
    (fun k (lo, hi) ->
      t.(2 * k) <- lo;
      t.((2 * k) + 1) <- hi)
    components;
  t

let normalize components =
  let sorted =
    List.sort
      (fun (a, _) (b, _) -> Float.compare a b)
      (List.filter (fun (lo, hi) -> lo <= hi) components)
  in
  let rec merge = function
    | [] -> []
    | [ c ] -> [ c ]
    | (lo1, hi1) :: (lo2, hi2) :: rest ->
        if lo2 <= hi1 then merge ((lo1, Float.max hi1 hi2) :: rest)
        else (lo1, hi1) :: merge ((lo2, hi2) :: rest)
  in
  of_components (merge sorted)

let union a b = normalize (components a @ components b)

let inter a b =
  let overlap (lo1, hi1) (lo2, hi2) =
    let lo = Float.max lo1 lo2 and hi = Float.min hi1 hi2 in
    if lo <= hi then Some (lo, hi) else None
  in
  let b = components b in
  let pieces =
    List.concat_map (fun ca -> List.filter_map (overlap ca) b) (components a)
  in
  normalize pieces

(* Sweep the gaps between consecutive components.  Closed complements of
   closed sets overlap at single points, which is the documented
   closed-endpoint approximation. *)
let complement t =
  let rec walk lower = function
    | [] -> if lower < infinity then [ (lower, infinity) ] else []
    | (lo, hi) :: rest ->
        let before = if lower < lo then [ (lower, lo) ] else [] in
        before @ walk hi rest
  in
  normalize (walk neg_infinity (components t))

(* ---- the one implementation of set-versus-support tests ------------- *)

(* Every test of the set against a support [lo, hi] runs through the two
   loops below.  They are float-typed (no polymorphic compare), take no
   closures and are inlined into their callers in this module, so the
   column kernel at the bottom runs them on unboxed floats read straight
   from the columns. *)

(* Yes iff one component covers [lo, hi]; No iff none meets it; Maybe
   otherwise.  Components are sorted by lower bound, so the first one
   starting above [hi] ends the search: neither it nor any later one can
   cover or meet the support. *)
let[@inline] verdict (t : t) lo hi =
  let n = Array.length t in
  let k = ref 0 and v = ref Tvl.No in
  while !k < n && Array.unsafe_get t !k <= hi do
    let clo = Array.unsafe_get t !k and chi = Array.unsafe_get t (!k + 1) in
    if clo <= lo && hi <= chi then begin
      v := Tvl.Yes;
      k := n
    end
    else begin
      if lo <= chi then v := Tvl.Maybe;
      k := !k + 2
    end
  done;
  !v

(* Total length of the set inside [lo, hi], accumulated component by
   component in increasing order.  [max]/[min] are spelt as comparisons:
   they differ from [Float.max]/[Float.min] only on NaN (never stored
   here) and on the sign of a zero, which cannot change [h -. l] once
   [l < h] holds. *)
let[@inline] measure (t : t) lo hi =
  let acc = ref 0.0 in
  for k = 0 to (Array.length t / 2) - 1 do
    let clo = Array.unsafe_get t (2 * k)
    and chi = Array.unsafe_get t ((2 * k) + 1) in
    let l = if clo > lo then clo else lo and h = if chi < hi then chi else hi in
    if l < h then acc := !acc +. (h -. l)
  done;
  !acc

(* The success probability of a uniform belief on a support the set
   neither covers nor misses: the covered fraction, clamped to [0, 1]
   (the clamp passes NaN through, as [Float.min 1. (Float.max 0. m)]
   does).  A point support is never Maybe; the membership branch only
   keeps the division away from a zero width. *)
let[@inline] maybe_success (t : t) lo hi =
  let mass =
    if lo = hi then
      match verdict t lo lo with Tvl.Yes -> 1.0 | Tvl.No | Tvl.Maybe -> 0.0
    else measure t lo hi /. (hi -. lo)
  in
  if mass > 1.0 then 1.0 else if mass < 0.0 then 0.0 else mass

let classify_bounds t ~lo ~hi = verdict t lo hi
let measure_within_bounds t ~lo ~hi = measure t lo hi

let uniform_success_bounds t ~lo ~hi =
  match verdict t lo hi with
  | Tvl.Yes -> 1.0
  | Tvl.No -> 0.0
  | Tvl.Maybe -> maybe_success t lo hi

let mem t x =
  match verdict t x x with Tvl.Yes -> true | Tvl.No | Tvl.Maybe -> false

let covers t i =
  match verdict t (Interval.lo i) (Interval.hi i) with
  | Tvl.Yes -> true
  | Tvl.No | Tvl.Maybe -> false

let disjoint t i =
  match verdict t (Interval.lo i) (Interval.hi i) with
  | Tvl.No -> true
  | Tvl.Yes | Tvl.Maybe -> false

let measure_within t i = measure t (Interval.lo i) (Interval.hi i)

type f64 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let classify_supports t ~(lo : f64) ~(hi : f64) ~len ~off ~verdicts
    ~(laxities : float array) ~(successes : float array) =
  for i = 0 to len - 1 do
    let l = Bigarray.Array1.unsafe_get lo i in
    let h = Bigarray.Array1.unsafe_get hi i in
    let v = verdict t l h in
    Bytes.unsafe_set verdicts (off + i) (Tvl.to_char v);
    match v with
    | Tvl.No ->
        Array.unsafe_set laxities (off + i) 0.0;
        Array.unsafe_set successes (off + i) 0.0
    | Tvl.Yes ->
        Array.unsafe_set laxities (off + i) (h -. l);
        Array.unsafe_set successes (off + i) 1.0
    | Tvl.Maybe ->
        Array.unsafe_set laxities (off + i) (h -. l);
        Array.unsafe_set successes (off + i) (maybe_success t l h)
  done

let pp ppf t =
  match components t with
  | [] -> Format.pp_print_string ppf "{}"
  | cs ->
      Format.pp_print_list
        ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " u ")
        (fun ppf (lo, hi) -> Format.fprintf ppf "[%g, %g]" lo hi)
        ppf cs

let equal (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> x = y) a b
