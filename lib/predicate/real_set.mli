(** Finite unions of disjoint closed real intervals, with infinite
    endpoints allowed.

    This is the satisfying set of a one-dimensional selection predicate:
    atomic comparisons denote half-lines or segments and Boolean
    combinations denote finite unions.  Working with the satisfying set —
    rather than recursing over the predicate tree — makes three-way
    classification and success-probability computation exact even for
    arbitrarily nested [And]/[Or]/[Not].

    Endpoints are treated as closed throughout.  Under the continuous
    belief models used in this repository, single points carry zero
    probability mass, so this loses nothing for success probabilities; for
    classification it means strict and non-strict comparisons coincide,
    which we document rather than fight. *)

type t

val empty : t
val full : t

val segment : float -> float -> t
(** [segment lo hi] is [\[lo, hi\]] ([lo <= hi]; bounds may be infinite but
    not NaN).  @raise Invalid_argument on violation. *)

val at_least : float -> t
(** [\[x, +∞)]. *)

val at_most : float -> t
(** [(-∞, x\]]. *)

val union : t -> t -> t
val inter : t -> t -> t
val complement : t -> t

val mem : t -> float -> bool

val covers : t -> Interval.t -> bool
(** [covers s i] iff every point of [i] belongs to [s]. *)

val disjoint : t -> Interval.t -> bool
(** [disjoint s i] iff no point of [i] belongs to [s]. *)

val components : t -> (float * float) list
(** Disjoint components in increasing order; bounds may be infinite. *)

val measure_within : t -> Interval.t -> float
(** Total length of the intersection of [s] with the (finite) interval. *)

(** {2 Tests on a support given as two floats}

    A set is stored as one flat, sorted float array of component bounds.
    Every test of a set against a support — {!mem}, {!covers},
    {!disjoint}, {!measure_within} above and the functions below — runs
    one float-typed loop over that array, so all of them give
    bit-for-bit the same answers. *)

val classify_bounds : t -> lo:float -> hi:float -> Tvl.t
(** [Yes] if [s] covers [\[lo, hi\]], [No] if it is disjoint from it,
    [Maybe] otherwise. *)

val measure_within_bounds : t -> lo:float -> hi:float -> float
(** {!measure_within} of [\[lo, hi\]]. *)

val uniform_success_bounds : t -> lo:float -> hi:float -> float
(** Probability that a value drawn from a uniform belief on [\[lo, hi\]]
    lies in [s]: 1 on [Yes], 0 on [No], otherwise the covered fraction
    of the width, clamped to [\[0, 1\]]; a point support reads as
    membership. *)

type f64 = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val classify_supports :
  t ->
  lo:f64 ->
  hi:f64 ->
  len:int ->
  off:int ->
  verdicts:Bytes.t ->
  laxities:float array ->
  successes:float array ->
  unit
(** The column kernel: for each row [i < len], the support
    [\[lo.{i}, hi.{i}\]] is classified and written to position [off + i]
    of the buffers — verdict [Tvl.to_char]-packed, laxity (the support
    width, 0 on [No]) and success ({!uniform_success_bounds}, 0 on
    [No]).  The loops are inlined here over unboxed floats, so a call
    allocates nothing. *)

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool
