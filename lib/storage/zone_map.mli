(** Per-page zone maps over a scalar attribute.

    The paper leaves index-assisted access as future work (§7) but notes
    that "in the presence of an index we can effectively prune away part
    of [T] implicitly" (§3).  A zone map is the lightest such access
    method: each page records the hull of its objects' supports, and a
    page whose hull is classified NO by the predicate can be skipped
    without reading any of its objects.  Pruned objects are definite NOs,
    so skipping them is always sound — it shrinks [|M_ns|] for free and
    thereby improves the recall guarantee without any reads. *)

type t

val build : 'a Heap_file.t -> support:('a -> Interval.t) -> t
(** One hull per page. *)

val of_zones : Interval.t option array -> t
(** A zone map from precomputed hulls (one per page, [None] for an
    empty page) — how persisted column-chunk zone maps re-enter the
    pruning machinery without touching the chunks themselves. *)

val zones : t -> Interval.t option array
(** The hulls, in page order (a copy) — what the columnar codec
    persists alongside the chunks. *)

val page_count : t -> int

val zone : t -> int -> Interval.t option
(** The hull of page [p]; [None] for an empty page. *)

val prunable : t -> Predicate.compiled -> int -> bool
(** [prunable zm pred p] iff every object on page [p] is guaranteed NO.
    The predicate comes compiled, so a scan over many pages builds its
    satisfying set once. *)

val pruned_pages : t -> Predicate.compiled -> int
(** Number of pages {!prunable} would skip. *)

val open_cursor :
  ?obs:Obs.t ->
  ?pool:'a array Buffer_pool.t ->
  t ->
  Predicate.compiled ->
  'a Heap_file.t ->
  'a Heap_file.Cursor.t
(** The pruning-aware scan path: a cursor over [file] that skips every
    page {!prunable} classifies as whole-NO, without fetching it.
    Because skipped objects are definite NOs, they never enter
    [|M_ns|]: the cursor's [remaining] (and hence the operator's
    guarantee accounting) covers surviving pages only, and pruned pages
    are never charged as reads — a scan to exhaustion reads exactly
    [(pages - pruned_pages) * objects_per_page] objects.  [pool] routes
    page fetches through a buffer pool ({!Heap_file.Cursor.open_pooled});
    [obs] adds the pruned page count to [qaq.parallel.pruned_pages] (on
    top of the cursor's own [heap_file.pages_fetched]).
    @raise Invalid_argument if the zone map's page count differs from
    the file's. *)
