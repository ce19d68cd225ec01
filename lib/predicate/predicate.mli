(** One-dimensional selection predicates with three-way evaluation.

    A predicate [λ] maps objects to {YES, NO, MAYBE} (paper §1).  This
    module builds predicates over real-valued attributes, evaluates them:

    - exactly on precise values ({!eval});
    - three-way on imprecise values ({!classify}), by comparing the
      object's support against the predicate's satisfying set;
    - probabilistically ({!success}), yielding the paper's success
      probability [s(o)] (§4.1) under the object's belief model.

    Strict and non-strict comparisons are distinguished by {!eval} but
    coincide for {!classify} and {!success} (see {!Real_set}). *)

type t =
  | Ge of float  (** value >= x *)
  | Gt of float  (** value > x *)
  | Le of float  (** value <= x *)
  | Lt of float  (** value < x *)
  | Between of float * float  (** a <= value <= b *)
  | Not of t
  | And of t * t
  | Or of t * t

val ge : float -> t
val gt : float -> t
val le : float -> t
val lt : float -> t

val between : float -> float -> t
(** @raise Invalid_argument if the bounds are reversed or not finite. *)

val not_ : t -> t
val ( &&& ) : t -> t -> t
val ( ||| ) : t -> t -> t

val eval : t -> float -> bool
(** Exact evaluation on a precise value, honouring strictness. *)

val satisfying_set : t -> Real_set.t
(** The set of values satisfying the predicate (all comparisons read as
    non-strict). *)

val classify : t -> Uncertain.t -> Tvl.t
(** [Yes] if the object's support is contained in the satisfying set,
    [No] if disjoint from it, [Maybe] otherwise.  Builds the satisfying
    set on every call: code that classifies many objects compiles the
    predicate once and uses {!classify_compiled}. *)

val classify_interval : t -> Interval.t -> Tvl.t
(** Same, directly on an interval support. *)

val success : t -> Uncertain.t -> float
(** Probability that a probe returns YES, under the object's belief
    model.  Returns 1 (resp. 0) when {!classify} is [Yes] (resp. [No]).
    Like {!classify}, builds the satisfying set per call. *)

(** {2 Compiled form}

    A {!compiled} predicate holds its satisfying set, built once, as a
    flat sorted float array of component bounds.  {!classify} and
    {!success} are {!classify_compiled} and {!success_compiled} of a
    fresh compilation, and every entry point below runs the same
    float-typed loop of {!Real_set}, so all of them agree bit for bit.

    What is measured (and pinned by the allocation tests): a
    {!classify_columns} call allocates nothing.  The per-object entry
    points are ordinary cross-module calls, so their float arguments and
    results are boxed at the call boundary. *)

type compiled

val compile : t -> compiled

val classify_compiled : compiled -> Uncertain.t -> Tvl.t
(** {!classify} without rebuilding the satisfying set. *)

val success_compiled : compiled -> Uncertain.t -> float
(** {!success} without rebuilding the satisfying set.  [Exact] and
    [Interval] beliefs go through {!success_bounds}; a [Gaussian] belief
    integrates its CDF over the set's components. *)

val classify_bounds : compiled -> lo:float -> hi:float -> Tvl.t
(** {!classify} of an object whose support is [\[lo, hi\]]. *)

val success_bounds : compiled -> lo:float -> hi:float -> float
(** {!success} of a flat-schema belief with support [\[lo, hi\]]: a
    point support reads as an exact value (membership), a proper
    interval as a uniform interval belief (covered measure over
    width). *)

val classify_columns :
  compiled ->
  lo:Real_set.f64 ->
  hi:Real_set.f64 ->
  len:int ->
  off:int ->
  verdicts:Bytes.t ->
  laxities:float array ->
  successes:float array ->
  unit
(** {!classify_bounds}, the support width and {!success_bounds} of rows
    [0 .. len - 1] of two bound columns, written to positions
    [off .. off + len - 1] of the buffers (laxity and success are 0 on a
    [No]; the verdict is [Tvl.to_char]-packed) — {!Real_set.classify_supports}
    on the compiled set.  Allocates nothing. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
