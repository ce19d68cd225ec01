(* The two workloads that call Engine.execute directly, one client with
   one query in flight (closed loop, domains = 1):

   - scan-1m: the columnar selection path of `qaq query` over a QCOL
     file far larger than its 8-chunk decoded pool.  CPU-bound scan: the
     kernel, chunk decode and the decision loop take most of the time;
     no broker or server code runs.
   - cascade: tiered probing (a shrink proxy in front of the oracle,
     built with Tiered.of_functions) over resident rows in the row
     layout — the only workload through Cascade, Tiered and the
     operator's escalation path. *)

open Common

type query = {
  index : int;
  qseed : int;
  pred : Predicate.t;
  req : Quality.requirements;
}

type outcome = {
  latency : float;  (** the Engine.execute call *)
  fp : string;
  reasons : string list;
  reads : int;
  probes : int;
  cost : float;
  plan_s : float;
  plan_params : Policy.params option;
  words : float;
  majors : int;
  tiers : Cascade.stats array;
}

type kind = Scan | Tiers

type state = {
  kind : kind;
  data : Interval_data.record array;
  file : Dataset_io.columnar_file option;  (** scan-1m's QCOL file *)
}

(* ---- inputs, all drawn from the seed --------------------------------- *)

let rows kind scale =
  match (kind, scale) with
  | Scan, Full -> 1_000_000
  | Scan, Toy -> 20_000
  | Tiers, Full -> 200_000
  | Tiers, Toy -> 5_000

let max_width = function Scan -> 10.0 | Tiers -> 30.0
let batch = 16

(* The band counts of one cycle of scan-1m queries.  A query's time
   grows with its bands; the middle count is repeated so the median
   query of a run is one of many alike, not one of two. *)
let band_cycle = [| 1; 2; 3; 3; 3; 4; 5 |]

(* The threshold directions of one cycle of cascade queries, for the
   same reason: two of every three are [ge], so the median query of a
   run is a [ge] query whichever direction is faster. *)
let threshold_cycle = [| Predicate.ge; Predicate.le; Predicate.ge |]

(* Query [i] of a run.  The band counts cycle through [band_cycle] and
   the quality bounds stay in narrow ranges, so every run carries the
   same mix whatever the seed; only positions and exact bounds move. *)
let query kind ~seed i =
  let rng = Rng.create ((seed * 1_000_003) + (i * 7_919) + 1) in
  let pred =
    match kind with
    | Scan -> Layers.bands rng band_cycle.(i mod Array.length band_cycle)
    | Tiers ->
        threshold_cycle.(i mod Array.length threshold_cycle)
          (Rng.uniform_in rng 48.0 52.0)
  in
  let p = Rng.uniform_in rng 0.89 0.91 in
  let r = Rng.uniform_in rng 0.89 0.91 in
  let l =
    match kind with
    | Scan -> Rng.uniform_in rng 4.5 5.5
    | Tiers -> Rng.uniform_in rng 11.0 13.0
  in
  {
    index = i;
    qseed = (seed * 100_003) + i;
    pred;
    req = Quality.requirements ~precision:p ~recall:r ~laxity:l;
  }

let tier_specs =
  [|
    {
      Probe_tier.name = "proxy";
      kind = Probe_tier.Shrink { power = 0.8 };
      c_p = 0.05;
      c_b = 0.5;
      batch = 32;
    };
    {
      Probe_tier.name = "oracle";
      kind = Probe_tier.Resolve;
      c_p = 1.0;
      c_b = 5.0;
      batch = 8;
    };
  |]

let setup_once kind args previous =
  Option.iter
    (fun s -> Option.iter Dataset_io.close_columnar s.file)
    !previous;
  previous := None;
  let records =
    Interval_data.uniform_intervals (Rng.create args.seed)
      ~n:(rows kind args.scale)
      ~value_range:(Interval.make 0.0 100.0)
      ~max_width:(max_width kind)
  in
  let s =
    match kind with
    | Tiers -> { kind; data = records; file = None }
    | Scan ->
        let path = work_file args "scan.qcol" in
        Dataset_io.save_columnar path
          (Interval_data.to_store ~chunk_size:64 records);
        let file = Dataset_io.open_columnar path in
        (* The row view planning runs over comes from the file, as in
           `qaq query`. *)
        let data = Interval_data.of_store (Dataset_io.columnar_store file) in
        { kind; data; file = Some file }
  in
  previous := Some s;
  s

(* ---- one query ------------------------------------------------------- *)

(* What the traced run hooks into: the resolver handed to Probe_driver,
   the chunk loader under the store, and the cascade's tier functions.
   Each call is counted; chunk fetches are also timed.  A call's
   span is kept for the first [detail_queries] queries only, since a
   span per object-level call of every query would outweigh the
   queries themselves. *)
type calls = { mutable n : int; mutable s : float }

type hooks = {
  tr : tracer;
  resolver : calls;
  fetch : calls;
  chunks_seen : (int, unit) Hashtbl.t;
  narrow : calls;
  resolve : calls;
}

let hooks tr =
  let calls () = { n = 0; s = 0.0 } in
  {
    tr;
    resolver = calls ();
    fetch = calls ();
    chunks_seen = Hashtbl.create 1024;
    narrow = calls ();
    resolve = calls ();
  }

let detail_queries = 3

let call ?(timed = false) h (c : calls) (q : query) name f =
  if not h.tr.on then f ()
  else begin
    c.n <- c.n + 1;
    let detail = q.index < detail_queries in
    if not (timed || detail) then f ()
    else begin
      let t0 = now () in
      let v = if detail then span h.tr name f else f () in
      c.s <- c.s +. (now () -. t0);
      v
    end
  end

let fingerprint (r : Interval_data.record Engine.result) report =
  let c = r.Engine.counts and g = report.Operator.guarantees in
  Printf.sprintf "a=%d y=%d mi=%d ex=%b c=%d/%d/%d/%d/%d g=%h/%h/%h w=%h"
    report.Operator.answer_size report.Operator.yes_seen
    report.Operator.maybe_ignored report.Operator.exhausted c.Cost_meter.reads
    c.Cost_meter.probes c.Cost_meter.batches c.Cost_meter.writes_imprecise
    c.Cost_meter.writes_precise g.Quality.precision g.Quality.recall
    g.Quality.max_laxity r.Engine.normalized_cost

(* Every check but the fingerprint comparison, which needs other runs.
   They run after the query's timer stopped. *)
let check_query st q ~obs (r : Interval_data.record Engine.result) report =
  let reasons = ref [] in
  let fail s = reasons := s :: !reasons in
  if Engine.degraded r then fail "degraded";
  if
    (not r.Engine.degradation.Engine.requirements_met)
    || not (Quality.meets report.Operator.guarantees q.req)
  then fail "requirements missed";
  (match Cost_meter.reconcile (Obs.snapshot obs) r.Engine.counts with
  | Ok () -> ()
  | Error e -> fail ("reconcile: " ^ e));
  (* Ground truth: the records keep their true values. *)
  let exact = Interval_data.exact_size q.pred st.data in
  let hits =
    List.fold_left
      (fun n (e : Interval_data.record Operator.emitted) ->
        if Interval_data.in_exact q.pred e.Operator.obj then n + 1 else n)
      0 report.Operator.answer
  in
  let answer_size = List.length report.Operator.answer in
  let precision =
    Quality.Diagnostics.precision ~answer_size ~answer_in_exact:hits
  in
  let recall = Quality.Diagnostics.recall ~exact_size:exact ~answer_in_exact:hits in
  let req = q.req in
  if precision < req.Quality.precision || recall < req.Quality.recall then
    fail
      (Printf.sprintf "audit: achieved precision %.4f recall %.4f below %.2f/%.2f"
         precision recall req.Quality.precision req.Quality.recall);
  List.rev !reasons

let run_query st args (h : hooks) q =
  let obs = Obs.create () in
  let resolver objs =
    call h h.resolver q "probe.resolve" (fun () ->
        Array.map Interval_data.probe objs)
  in
  let instance = Interval_data.instance q.pred in
  let rng = Rng.create q.qseed in
  let execute, tiers =
    match st.kind with
    | Scan ->
        let file = Option.get st.file in
        let base = Dataset_io.columnar_store file in
        let store =
          if not h.tr.on then base
          else
            Column_store.of_fetch ~length:(Column_store.length base)
              ~chunk_size:(Column_store.chunk_size base)
              ~zones:(Column_store.zones base)
              (fun c ->
                Hashtbl.replace h.chunks_seen ((q.index * 1_000_000) + c) ();
                call ~timed:true h h.fetch q "io.fetch" (fun () ->
                    Column_store.chunk base c))
        in
        let probe = Probe_driver.create ~batch_size:batch resolver in
        ( (fun () ->
            Engine.execute ~rng ~domains:1 ~obs
              ~columnar:
                {
                  Engine.store;
                  of_row = Interval_data.of_row;
                  pred = q.pred;
                  prune = false;
                }
              ~instance ~probe ~requirements:q.req st.data),
          fun () -> [||] )
    | Tiers ->
        let narrow ~power o =
          call h h.narrow q "cascade.narrow" (fun () ->
              Interval_data.shrink ~power o)
        in
        let resolve o =
          call h h.resolve q "cascade.resolve" (fun () ->
              Interval_data.probe o)
        in
        let cascade, _ =
          Tiered.of_functions ~obs ~specs:tier_specs ~narrow ~resolve ()
        in
        ( (fun () ->
            Engine.execute ~rng ~domains:1 ~obs ~instance ~cascade
              ~requirements:q.req st.data),
          fun () -> Cascade.stats cascade )
  in
  (* Each query starts with the major cycle finished, so the previous
     query's garbage neither slows this one nor decides when the run's
     memory peaks; otherwise the peak rides on where each query falls
     in the collector's cycle. *)
  Gc.major ();
  let w0, m0 = gc_now () in
  let result =
    query_span h.tr ~query:q.index "query" (fun () ->
        let t0 = now () in
        match span h.tr "engine.execute" execute with
        | r -> Ok (r, now () -. t0)
        | exception e -> Error (Printexc.to_string e, now () -. t0))
  in
  let w1, m1 = gc_now () in
  match result with
  | Error (e, latency) ->
      {
        latency;
        fp = "raised";
        reasons = [ "raised " ^ e ];
        reads = 0;
        probes = 0;
        cost = 0.0;
        plan_s = 0.0;
        plan_params = None;
        words = w1 -. w0;
        majors = m1 - m0;
        tiers = [||];
      }
  | Ok (r, latency) ->
      let report =
        if args.inject_wrong && q.index = 0 then
          { r.Engine.report with Operator.answer = []; answer_size = 0 }
        else r.Engine.report
      in
      let snap = Obs.snapshot obs in
      {
        latency;
        fp = fingerprint r report;
        reasons = check_query st q ~obs r report;
        reads = r.Engine.counts.Cost_meter.reads;
        probes = r.Engine.counts.Cost_meter.probes;
        cost = r.Engine.normalized_cost;
        plan_s =
          (match Metrics.get snap (Span.seconds_key "plan") with
          | Some (Metrics.Level s) -> s
          | _ -> 0.0);
        plan_params =
          Option.map (fun (p : Engine.plan) -> p.Engine.params) r.Engine.plan;
        words = w1 -. w0;
        majors = m1 - m0;
        tiers = tiers ();
      }

(* Queries that make up one full cycle of the mix. *)
let cycle = function
  | Scan -> Array.length band_cycle
  | Tiers -> Array.length threshold_cycle

(* Queries back to back until [seconds] of query time have passed, in
   whole cycles so that every run carries the same mix; the checks
   between queries are not counted. *)
let closed_loop st args h ~seconds =
  let acc = ref [] and spent = ref 0.0 and i = ref 0 in
  while !spent < seconds || !i mod cycle st.kind <> 0 do
    let o = run_query st args h (query st.kind ~seed:args.seed !i) in
    acc := o :: !acc;
    spent := !spent +. o.latency;
    incr i
  done;
  Array.of_list (List.rev !acc)

let replay st args h n =
  Array.init n (fun i -> run_query st args h (query st.kind ~seed:args.seed i))

let record_checks c ~prefix (os : outcome array) =
  Array.iteri
    (fun i o -> record c ~label:(Printf.sprintf "%s q%d" prefix i) o.reasons)
    os

(* ---- metrics ---------------------------------------------------------- *)

let latencies os = Array.map (fun o -> o.latency) os
let total f os = Array.fold_left (fun a o -> a +. f o) 0.0 os

let end_to_end os ~setup:(setup_s, reps) =
  let n = Array.length os in
  let busy = total (fun o -> o.latency) os in
  let lat = latencies os in
  ( [
      metric ~n:reps "setup_s" "s" setup_s;
      metric ~n "queries_per_s" "1/s" (fi n /. busy);
      metric ~n "query_ms_p50" "ms" (Stats.median lat *. 1e3);
      metric ~n "rows_per_s" "rows/s" (total (fun o -> fi o.reads) os /. busy);
      metric ~n "cost_per_object" "W/T" (total (fun o -> o.cost) os /. fi n);
      metric ~n "probes_per_query" "count"
        (total (fun o -> fi o.probes) os /. fi n);
      metric ~n "peak_rss_mb" "MB" (peak_rss_mb ());
    ],
    lat )

let oracle_probes (o : outcome) =
  match o.tiers with
  | [||] -> 0
  | ts -> ts.(Array.length ts - 1).Cascade.st_probes

let proxy_shrinks (o : outcome) =
  match o.tiers with [||] -> 0 | ts -> ts.(0).Cascade.st_shrinks

let per_layer st args ~untraced ~traced (h : hooks) ~pool_before ~pool_after =
  let n = Array.length traced in
  let nf = fi n in
  let busy = total (fun o -> o.latency) traced in
  let reads = total (fun o -> fi o.reads) traced in
  let q = min n 3 in
  let queries = List.init q (query st.kind ~seed:args.seed) in
  let instance_of (q : query) = Interval_data.instance q.pred in
  (* A record's laxity is its interval width, whatever the predicate. *)
  let cap = Layers.observed_cap (instance_of (List.hd queries)) st.data in
  let tiers = match st.kind with Tiers -> Some tier_specs | Scan -> None in
  let b =
    match st.kind with
    | Scan -> batch
    | Tiers -> tier_specs.(Array.length tier_specs - 1).Probe_tier.batch
  in
  let plans =
    List.map
      (fun (qq : query) ->
        Layers.plan ~qseed:qq.qseed ~instance:(instance_of qq) ~cap
          ~requirements:qq.req ~cost:Cost_model.paper ~batch:b ?tiers st.data)
      queries
  in
  List.iteri
    (fun i (p : Layers.plan) ->
      if traced.(i).plan_params <> Some p.Layers.params then
        Printf.printf "note: isolated plan of q%d differs from the engine's\n" i)
    plans;
  let decides =
    List.map2
      (fun (qq : query) (p : Layers.plan) ->
        Layers.decide ~qseed:qq.qseed ~instance:(instance_of qq)
          ~probe_one:Interval_data.probe ~batch:b ~params:p.Layers.params
          ~requirements:qq.req st.data)
      queries plans
  in
  (* Cascade's rows stay in the row layout: it scans no column store
     and reads no file. *)
  let scan =
    match st.kind with
    | Tiers -> Layers.scan_absent
    | Scan ->
        Layers.scan_passes
          (Interval_data.to_store ~chunk_size:64 st.data)
          (List.map (fun (qq : query) -> qq.pred) queries)
  in
  let io =
    match st.kind with
    | Tiers -> Layers.io_absent
    | Scan ->
        let f = h.fetch in
        let hits = pool_after.Buffer_pool.hits - pool_before.Buffer_pool.hits in
        let misses =
          pool_after.Buffer_pool.misses - pool_before.Buffer_pool.misses
        in
        [
          metric ~n:f.n "io.chunk_fetch_us" "us" (ratio f.s (fi f.n) *. 1e6);
          metric ~n:f.n "io.fetches_per_chunk" "ratio"
            (ratio (fi f.n) (fi (Hashtbl.length h.chunks_seen)));
          metric ~n:(hits + misses) "storage.pool_hit_ratio" "ratio"
            (ratio (fi hits) (fi (hits + misses)));
        ]
  in
  let cascade =
    match st.kind with
    | Scan -> Layers.cascade_absent
    | Tiers ->
        let shrinks = total (fun o -> fi (proxy_shrinks o)) traced in
        let oracle = total (fun o -> fi (oracle_probes o)) traced in
        (* The tier functions take about 100 ns, too little to time one
           call at a time: each is timed over a pass on every row. *)
        let per_object f =
          Stats.median
            (Array.init 3 (fun _ ->
                 snd
                   (time (fun () ->
                        Array.iter (fun o -> ignore (Sys.opaque_identity (f o))) st.data))))
          /. fi (Array.length st.data)
        in
        let power = Probe_tier.power tier_specs.(0) in
        [
          metric ~n "cascade.proxy_settle_ratio" "ratio"
            (ratio (shrinks -. oracle) shrinks);
          metric ~n "cascade.oracle_probes_per_query" "count" (oracle /. nf);
          metric ~n:h.narrow.n "cascade.proxy_ns_per_probe" "ns"
            (per_object (Interval_data.shrink ~power) *. 1e9);
          metric ~n:h.resolve.n "cascade.oracle_ns_per_probe" "ns"
            (per_object Interval_data.probe *. 1e9);
        ]
  in
  (* One closed-loop round of an engine workload is one query. *)
  let rounds = latencies untraced in
  let plan_s = total (fun o -> o.plan_s) traced in
  let overhead = ratio busy (total (fun o -> o.latency) untraced) -. 1.0 in
  (* Probes the backend executed: the driver's on scan-1m, the oracle
     tier's on cascade. *)
  let backend =
    match st.kind with
    | Scan -> total (fun o -> fi o.probes) traced
    | Tiers -> total (fun o -> fi (oracle_probes o)) traced
  in
  scan @ io
  @ Layers.decide_metrics decides
  @ [
      metric ~n "probe.backend_probes_per_query" "count" (backend /. nf);
      metric ~n "engine.plan_ms" "ms" (plan_s /. nf *. 1e3);
      metric ~n "engine.plan_share" "ratio" (ratio plan_s busy);
    ]
  @ Layers.plan_metrics plans @ Layers.server_absent
  @ [
      metric ~n:(Array.length rounds) "server.round_ms_p50" "ms" (Stats.median rounds *. 1e3);
      metric ~n:(Array.length rounds) "server.round_ms_p90" "ms"
        (Stats.quantile rounds 0.9 *. 1e3);
    ]
  @ cascade
  @ [
      metric ~n "gc.minor_words_per_row" "words" (ratio (total (fun o -> o.words) traced) reads);
      metric ~n "gc.minor_words_per_query" "words" (total (fun o -> o.words) traced /. nf);
      metric ~n "gc.major_collections_per_query" "count"
        (total (fun o -> fi o.majors) traced /. nf);
      metric ~n "trace.overhead_ratio" "ratio" overhead;
    ]

(* ---- the run ----------------------------------------------------------- *)

let run kind args =
  let c = checks () in
  let previous = ref None in
  let st, setup_s, reps =
    if args.trace then (setup_once kind args previous, 0.0, 1)
    else repeat_setup (fun () -> setup_once kind args previous)
  in
  let pool_stats () =
    match st.file with
    | Some f -> Buffer_pool.stats (Dataset_io.columnar_pool f)
    | None -> { Buffer_pool.hits = 0; misses = 0; evictions = 0 }
  in
  let untraced = closed_loop st args (hooks (tracer false)) ~seconds:args.seconds in
  record_checks c ~prefix:"timed" untraced;
  let persisted =
    check_persisted args
      (Array.to_list (Array.mapi (fun i o -> (string_of_int i, o.fp)) untraced))
  in
  List.iter
    (fun k -> record c ~label:("q" ^ k) [ "fingerprint differs from an earlier run" ])
    persisted;
  let metrics =
    if not args.trace then begin
      let ms, lat = end_to_end untraced ~setup:(setup_s, reps) in
      print_p90 lat;
      ms
    end
    else begin
      let h = hooks (tracer true) in
      let pool_before = pool_stats () in
      let traced = replay st args h (Array.length untraced) in
      let pool_after = pool_stats () in
      record_checks c ~prefix:"traced" traced;
      Array.iteri
        (fun i (o : outcome) ->
          if o.fp <> untraced.(i).fp then
            record c ~label:(Printf.sprintf "traced q%d" i)
              [ "traced fingerprint differs from the untraced run" ])
        traced;
      let ms = per_layer st args ~untraced ~traced h ~pool_before ~pool_after in
      let counts =
        Array.to_list
          (Array.mapi
             (fun i o ->
               [
                 (i, "rows", fi o.reads);
                 (i, "probes", fi o.probes);
                 (i, "minor_words", o.words);
                 (i, "major_collections", fi o.majors);
               ])
             traced)
        |> List.concat
      in
      finish_trace args h.tr ~counts;
      ms
    end
  in
  Option.iter (fun s -> Option.iter Dataset_io.close_columnar s.file) !previous;
  (* Every run writes its own file; a checkout running many seeds would
     otherwise keep a 32 MB file per seed. *)
  let qcol = work_file args "scan.qcol" in
  if Sys.file_exists qcol then Sys.remove qcol;
  (c, metrics)
