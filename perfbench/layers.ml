(* Isolated passes over single layers, shared by the workloads.

   A clock read per row would cost more than the row itself, so layers
   measured per row are timed as whole passes over the same inputs the
   queries use, and divided by the rows they covered. *)

open Common

(* ---- planner: Selectivity then Solver, as Engine.execute runs them ---- *)

type plan = {
  params : Policy.params;
  estimate_s : float;  (** Bernoulli sample + selectivity estimate *)
  solve_s : float;
  solve_words : float;  (** minor words allocated by the solve *)
}

(* The engine splits its sampling stream off the query rng first, so the
   same split here draws the same 1% sample the query planned with. *)
let plan ~qseed ~instance ~cap ~requirements ~cost ~batch ?tiers data =
  let rng = Rng.split (Rng.create qseed) in
  let estimate, estimate_s =
    time (fun () ->
        let sample = Selectivity.bernoulli_sample rng ~fraction:0.01 data in
        if Array.length sample = 0 then None
        else Some (Selectivity.estimate ~instance ~laxity_cap:cap sample))
  in
  let f_y, f_m =
    match estimate with
    | Some e -> (e.Selectivity.f_y, e.Selectivity.f_m)
    | None -> (0.2, 0.2)
  in
  let spec =
    Region_model.spec ~f_y ~f_m ~max_laxity:cap
      ~density:(Density.uniform ~max_laxity:cap)
  in
  let problem =
    Solver.problem ~total:(max 1 (Array.length data)) ~spec ~requirements
      ~cost ~batch ?tiers ()
  in
  let w0, _ = gc_now () in
  let ev, solve_s = time (fun () -> Solver.solve problem) in
  let w1, _ = gc_now () in
  { params = ev.Solver.params; estimate_s; solve_s; solve_words = w1 -. w0 }

(* The laxity cap the engine observes when none is given. *)
let observed_cap (instance : _ Operator.instance) data =
  let m = Array.fold_left (fun m o -> Float.max m (instance.laxity o)) 0.0 data in
  if m > 0.0 then m else 1.0

(* ---- operator: the decision loop over pre-classified items ---------- *)

type decide = {
  decide_s : float;  (** loop time, resolver time excluded *)
  rows : int;  (** objects the loop read *)
  words : float;
  resolver_s : float;
  probes : int;
  batches : int;
  batch : int;
}

(* [Operator.run] over [Scan_pipeline] items of [data], with an instant
   in-memory probe backend and the query's planned policy. *)
let decide ~qseed ~instance ~probe_one ~batch ~params ~requirements data =
  let items = Array.map (Scan_pipeline.classify_one instance) data in
  let resolver_s = ref 0.0 in
  let base =
    Probe_driver.create ~batch_size:batch (fun objs ->
        let t0 = now () in
        let r = Array.map probe_one objs in
        resolver_s := !resolver_s +. (now () -. t0);
        r)
  in
  let driver =
    Probe_driver.premap ~into:Scan_pipeline.original
      ~back:(Scan_pipeline.classify_one instance)
      base
  in
  let w0, _ = gc_now () in
  let report, dt =
    time (fun () ->
        Operator.run ~rng:(Rng.create qseed) ~instance:Scan_pipeline.item_instance
          ~probe:driver ~policy:(Policy.qaq params) ~requirements
          (Operator.source_of_array items))
  in
  let w1, _ = gc_now () in
  {
    decide_s = dt -. !resolver_s;
    rows = report.Operator.counts.Cost_meter.reads;
    words = w1 -. w0;
    resolver_s = !resolver_s;
    probes = Probe_driver.probes base;
    batches = Probe_driver.batches base;
    batch;
  }

let decide_metrics (ds : decide list) =
  let rows = fi (List.fold_left (fun a d -> a + d.rows) 0 ds) in
  let probes = fi (List.fold_left (fun a d -> a + d.probes) 0 ds) in
  let slots =
    fi (List.fold_left (fun a d -> a + (d.batches * d.batch)) 0 ds)
  in
  let total f = List.fold_left (fun a d -> a +. f d) 0.0 ds in
  let n = List.length ds in
  [
    metric ~n "operator.decide_ns_per_row" "ns"
      (ratio (total (fun d -> d.decide_s)) rows *. 1e9);
    metric ~n "operator.minor_words_per_row" "words"
      (ratio (total (fun d -> d.words)) rows);
    metric ~n "probe.backend_ns_per_probe" "ns"
      (ratio (total (fun d -> d.resolver_s)) probes *. 1e9);
    metric ~n "probe.batch_fill_ratio" "ratio" (ratio probes slots);
  ]

let plan_metrics (ps : plan list) =
  let n = List.length ps in
  let med f = Stats.median (Array.of_list (List.map f ps)) in
  [
    metric ~n "selectivity.estimate_ms" "ms" (med (fun p -> p.estimate_s) *. 1e3);
    metric ~n "solver.solve_ms" "ms" (med (fun p -> p.solve_s) *. 1e3);
    metric ~n "solver.minor_words_per_solve" "words" (med (fun p -> p.solve_words));
  ]

(* ---- scan layers over a resident column store ----------------------- *)

(* Per-row cost of the predicate, the chunk kernel and a full source
   drain (kernel plus item materialisation), each the Stats.median over the
   given predicates of one pass over every row. *)
let scan_passes store (preds : Predicate.t list) =
  let rows = fi (Column_store.length store) in
  let chunks =
    Array.init (Column_store.chunk_count store) (Column_store.chunk store)
  in
  let cs = Column_store.chunk_size store in
  let verdicts = Bytes.create cs in
  let laxities = Array.make cs 0.0 in
  let successes = Array.make cs 0.0 in
  let one pred =
    let compiled = Predicate.compile pred in
    let sink = ref 0.0 in
    let (), predicate_s =
      time (fun () ->
          Array.iter
            (fun (c : Column_store.chunk) ->
              for i = 0 to c.len - 1 do
                let lo = Bigarray.Array1.unsafe_get c.lo i in
                let hi = Bigarray.Array1.unsafe_get c.hi i in
                (match Predicate.classify_bounds compiled ~lo ~hi with
                | Tvl.Yes -> sink := !sink +. 1.0
                | Tvl.Maybe | Tvl.No -> ());
                sink := !sink +. Predicate.success_bounds compiled ~lo ~hi
              done)
            chunks)
    in
    ignore (Sys.opaque_identity !sink);
    let (), kernel_s =
      time (fun () ->
          Array.iter
            (fun c ->
              Column_scan.kernel compiled c ~off:0 ~verdicts ~laxities
                ~successes)
            chunks)
    in
    let w0, _ = gc_now () in
    let (), source_s =
      time (fun () ->
          let src =
            Column_scan.source ~store ~of_row:Interval_data.of_row
              ~pred:compiled ()
          in
          let rec drain () =
            match src.Operator.next () with Some _ -> drain () | None -> ()
          in
          drain ())
    in
    let w1, _ = gc_now () in
    (predicate_s, kernel_s, source_s, w1 -. w0)
  in
  let runs = List.map one preds in
  let n = List.length runs in
  let med f = Stats.median (Array.of_list (List.map f runs)) in
  [
    metric ~n "predicate.classify_ns_per_row" "ns"
      (med (fun (p, _, _, _) -> p) /. rows *. 1e9);
    metric ~n "column_scan.kernel_ns_per_row" "ns"
      (med (fun (_, k, _, _) -> k) /. rows *. 1e9);
    metric ~n "column_scan.source_ns_per_row" "ns"
      (med (fun (_, _, s, _) -> s) /. rows *. 1e9);
    metric ~n "column_scan.source_minor_words_per_row" "words"
      (med (fun (_, _, _, w) -> w) /. rows);
  ]

(* Layers a workload never runs report zero. *)
let absent names = List.map (fun (name, unit_) -> metric name unit_ 0.0) names

let scan_absent =
  absent
    [
      ("predicate.classify_ns_per_row", "ns");
      ("column_scan.kernel_ns_per_row", "ns");
      ("column_scan.source_ns_per_row", "ns");
      ("column_scan.source_minor_words_per_row", "words");
    ]

let io_absent =
  absent
    [
      ("io.chunk_fetch_us", "us");
      ("io.fetches_per_chunk", "ratio");
      ("storage.pool_hit_ratio", "ratio");
    ]

let server_absent =
  absent
    [
      ("broker.rounds_per_query", "count");
      ("broker.batch_fill_ratio", "ratio");
      ("broker.reuse_ratio", "ratio");
      ("broker.queue_wait_ms_p50", "ms");
      ("broker.queue_wait_ms_p90", "ms");
      ("broker.backend_busy_share", "ratio");
      ("obs.recorder_overhead_ratio", "ratio");
    ]

let cascade_absent =
  absent
    [
      ("cascade.proxy_settle_ratio", "ratio");
      ("cascade.oracle_probes_per_query", "count");
      ("cascade.proxy_ns_per_probe", "ns");
      ("cascade.oracle_ns_per_probe", "ns");
    ]

(* [count] disjoint bands of width 8: [5, 95] is cut into [count] equal
   slots and each band sits at a random offset inside its slot, so the
   selected share of the data is the same for every draw. *)
let bands rng count =
  let slot = 90.0 /. fi count in
  let band j =
    let lo = 5.0 +. (slot *. fi j) +. Rng.uniform_in rng 0.5 (slot -. 8.5) in
    Predicate.between lo (lo +. 8.0)
  in
  let rec more acc j =
    if j = count then acc else more Predicate.(acc ||| band j) (j + 1)
  in
  more (band 0) 1
