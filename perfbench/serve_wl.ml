(* The serve-cold workload: an in-process Server_core driven over its
   line protocol, one Server_core.serve call per round.  Each round is a
   script of 8 QUERY lines (one per tenant) and a RUN; the next round
   starts after DONE, so this is a closed loop with 8 clients.

   The broker cache is off (freshness 0), every backend batch costs 1 ms
   of real latency and RUN has 2 lanes.  Backend rounds set the wall
   time: broker batching and dispatch are the layer that matters. *)

open Common

let tenants = 8

(* Distinct round scripts; the timed phase cycles through them.  A round
   takes about two seconds, so a run rarely wraps. *)
let scripts = 12

let config args =
  {
    Server_core.default_config with
    c_seed = 2004 + args.seed;
    c_total = (match args.scale with Full -> 10_000 | Toy -> 1_000);
    c_freshness = 0.0;
    c_probe_ms = 1.0;
    c_domains = Some 2;
  }

(* The requirements are printed with at most two decimals, so the
   four-decimal guarantees on RESULT lines compare against them exactly. *)
type spec = { tenant : string; p : float; r : float; l : float; qseed : int }

let round_specs ~seed k =
  Array.init tenants (fun j ->
      let rng = Rng.create ((seed * 1_000_003) + (k * 7_919) + (j * 31) + 5) in
      let two x = Float.round (x *. 100.0) /. 100.0 in
      {
        tenant = Printf.sprintf "t%d" j;
        p = two (Rng.uniform_in rng 0.88 0.92);
        r = two (Rng.uniform_in rng 0.58 0.62);
        l = two (Rng.uniform_in rng 48.0 52.0);
        qseed = (seed * 100_003) + (k * tenants) + j;
      })

let write_scripts args =
  Array.init scripts (fun k ->
      let path = work_file args (Printf.sprintf "round%d.txt" k) in
      let oc = open_out path in
      Array.iter
        (fun s ->
          Printf.fprintf oc "QUERY tenant=%s seed=%d p=%.2f r=%.2f l=%.2f\n"
            s.tenant s.qseed s.p s.r s.l)
        (round_specs ~seed:args.seed k);
      output_string oc "RUN\n";
      close_out oc;
      path)

(* ---- one round ---------------------------------------------------------- *)

(* The round's response lines, its wall time, and what the server
   raised, if it did. *)
let serve_round srv path =
  let ic = open_in path in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let oc = Unix.out_channel_of_descr wr in
  let t0 = now () in
  let raised =
    match Server_core.serve srv ic oc with
    | _ -> None
    | exception e -> Some ("serve raised " ^ Printexc.to_string e)
  in
  let wall = now () -. t0 in
  close_out oc;
  close_in ic;
  let inc = Unix.in_channel_of_descr rd in
  let lines = ref [] in
  (try
     while true do
       lines := input_line inc :: !lines
     done
   with End_of_file -> ());
  close_in inc;
  (List.rev !lines, wall, raised)

let fields line =
  List.filter_map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
          Some
            ( String.sub tok 0 i,
              String.sub tok (i + 1) (String.length tok - i - 1) )
      | None -> None)
    (String.split_on_char ' ' line)

let starts_with p s =
  String.length s >= String.length p && String.sub s 0 (String.length p) = p

type result = {
  key : string;  (** script index and tenant *)
  fp : string;
  elapsed : float;
  cost : float;
  probes : int;
  batches : int;
  reasons : string list;
}

type round = {
  script : int;
  wall : float;
  results : result list;
  unanswered : string list;  (** reasons for queries without a RESULT *)
  reads : int;
  plan_s : float;
  plan_calls : int;
  broker : Probe_broker.stats;  (** this round's delta *)
  words : float;
  majors : int;
  round_reasons : string list;
}

let get fs k = List.assoc k fs
let int_of fs k = int_of_string (get fs k)
let float_of fs k = float_of_string (get fs k)

(* A RESULT line's checks.  Its fingerprint is the line without the
   per-run tokens (query id, trace id, elapsed time). *)
let parse_result ~script ~specs ~wall ~inject line =
  let fs = fields line in
  let tenant = get fs "tenant" in
  let spec = Array.to_list specs |> List.find (fun s -> s.tenant = tenant) in
  let fs =
    if inject then
      List.map (fun (k, v) -> if k = "recall" then (k, "0.0000") else (k, v)) fs
    else fs
  in
  let fp =
    List.filter (fun (k, _) -> not (List.mem k [ "id"; "trace"; "elapsed" ])) fs
    |> List.map (fun (k, v) -> k ^ "=" ^ v)
    |> String.concat " "
  in
  let reasons = ref [] in
  let fail s = reasons := s :: !reasons in
  if get fs "met" <> "true" then fail "met=false";
  if get fs "degraded" <> "false" then fail "degraded";
  if int_of fs "failed" <> 0 then fail "failed probes";
  let g =
    {
      Quality.precision = float_of fs "precision";
      recall = float_of fs "recall";
      max_laxity = float_of fs "laxity";
    }
  in
  if
    not
      (Quality.meets g
         (Quality.requirements ~precision:spec.p ~recall:spec.r ~laxity:spec.l))
  then fail "guarantees below the requirements";
  let elapsed = float_of fs "elapsed" in
  (* The server's own latency must fit inside the round clock. *)
  if elapsed > wall +. 0.002 then
    fail (Printf.sprintf "elapsed %.6f s exceeds the round's %.6f s" elapsed wall);
  {
    key = Printf.sprintf "r%d.%s" script tenant;
    fp;
    elapsed;
    cost = float_of fs "cost";
    probes = int_of fs "probes";
    batches = int_of fs "batches";
    reasons = List.rev !reasons;
  }

let count snap key = Metrics.count_of snap key

let level snap key =
  match Metrics.get snap key with Some (Metrics.Level s) -> s | _ -> 0.0

let broker_delta (a : Probe_broker.stats) (b : Probe_broker.stats) =
  {
    Probe_broker.requests = b.requests - a.requests;
    admitted = b.admitted - a.admitted;
    charged = b.charged - a.charged;
    failed = b.failed - a.failed;
    coalesced = b.coalesced - a.coalesced;
    fresh_hits = b.fresh_hits - a.fresh_hits;
    rejected = b.rejected - a.rejected;
    batches = b.batches - a.batches;
  }

let run_round ?(tr = tracer false) ~inject srv ~seed paths script =
  let specs = round_specs ~seed script in
  let obs = Server_core.obs srv in
  let broker = Server_core.broker srv in
  let snap0 = Obs.snapshot obs and b0 = Probe_broker.stats broker in
  (* Each round starts with the major cycle finished, as each query
     does on the engine workloads. *)
  Gc.major ();
  let w0, m0 = gc_now () in
  let lines, wall, raised =
    query_span tr ~query:script "round" (fun () ->
        span tr "server.serve" (fun () -> serve_round srv paths.(script)))
  in
  let w1, m1 = gc_now () in
  let snap1 = Obs.snapshot obs and b1 = Probe_broker.stats broker in
  (* A RESULT line that does not parse counts as no answer. *)
  let results =
    List.filter (starts_with "RESULT ") lines
    |> List.filter_map (fun line ->
           match
             let inject = inject && get (fields line) "tenant" = "t0" in
             parse_result ~script ~specs ~wall ~inject line
           with
           | r -> Some r
           | exception (Not_found | Failure _ | Invalid_argument _) -> None)
  in
  let answered = List.map (fun r -> r.key) results in
  let unanswered =
    Array.to_list specs
    |> List.filter_map (fun s ->
           let key = Printf.sprintf "r%d.%s" script s.tenant in
           if List.mem key answered then None
           else
             let why =
               List.find_opt
                 (fun l -> starts_with "ERR" l || starts_with "REJECTED" l)
                 lines
             in
             let why =
               match (why, raised) with
               | Some line, _ -> line
               | None, Some e -> e
               | None, None -> "no well-formed RESULT"
             in
             Some (Printf.sprintf "%s: %s" key why))
  in
  let round_reasons = ref [] in
  let sum_int f = List.fold_left (fun a r -> a + f r) 0 results in
  (* Round-level reconcile: what the RESULT lines report must be exactly
     what the server's counters saw. *)
  let d_probes = count snap1 Obs.Keys.probes - count snap0 Obs.Keys.probes in
  let d_batches = count snap1 Obs.Keys.batches - count snap0 Obs.Keys.batches in
  if d_probes <> sum_int (fun r -> r.probes) then
    round_reasons :=
      Printf.sprintf "reconcile: qaq.probes moved %d, RESULT lines sum to %d"
        d_probes (sum_int (fun r -> r.probes))
      :: !round_reasons;
  if d_batches <> sum_int (fun r -> r.batches) then
    round_reasons :=
      Printf.sprintf "reconcile: qaq.batches moved %d, RESULT lines sum to %d"
        d_batches (sum_int (fun r -> r.batches))
      :: !round_reasons;
  let plan_key = Span.seconds_key "plan" and calls_key = Span.calls_key "plan" in
  {
    script;
    wall;
    results;
    unanswered;
    reads = count snap1 Obs.Keys.reads - count snap0 Obs.Keys.reads;
    plan_s = level snap1 plan_key -. level snap0 plan_key;
    plan_calls = count snap1 calls_key - count snap0 calls_key;
    broker = broker_delta b0 b1;
    words = w1 -. w0;
    majors = m1 - m0;
    round_reasons = !round_reasons;
  }

(* Every query of a round is checked; a round-level failure fails all
   of its queries.  [seen] holds each query's first fingerprint in this
   process: a repeated query must answer the same. *)
let record_round c seen ~prefix (rd : round) =
  List.iter
    (fun r ->
      let repeat =
        match Hashtbl.find_opt seen r.key with
        | Some fp when fp <> r.fp -> [ "fingerprint differs from an earlier round" ]
        | Some _ -> []
        | None ->
            Hashtbl.replace seen r.key r.fp;
            []
      in
      record c ~label:(prefix ^ " " ^ r.key) (r.reasons @ repeat @ rd.round_reasons))
    rd.results;
  List.iter (fun why -> record c ~label:prefix [ why ]) rd.unanswered

let closed_loop ~inject srv ~seed paths ~seconds =
  let acc = ref [] and spent = ref 0.0 and i = ref 0 in
  while !spent < seconds do
    let rd =
      run_round ~inject:(inject && !i = 0) srv ~seed paths
        (!i mod Array.length paths)
    in
    acc := rd :: !acc;
    spent := !spent +. rd.wall;
    incr i
  done;
  Array.of_list (List.rev !acc)

(* ---- set-up ----------------------------------------------------------------- *)

let setup_once args =
  let cfg = config args in
  (cfg, Server_core.create cfg, write_scripts args)

(* ---- metrics ---------------------------------------------------------------- *)

let all_results rounds = Array.to_list rounds |> List.concat_map (fun rd -> rd.results)
let sumf f rounds = Array.fold_left (fun a rd -> a +. f rd) 0.0 rounds

let end_to_end rounds ~setup:(setup_s, reps) =
  let rs = all_results rounds in
  let n = List.length rs in
  let nf = fi n in
  let elapsed = Array.of_list (List.map (fun r -> r.elapsed) rs) in
  let busy = sum elapsed in
  let wall = sumf (fun rd -> rd.wall) rounds in
  ( [
      metric ~n:reps "setup_s" "s" setup_s;
      metric ~n "queries_per_s" "1/s" (nf /. wall);
      metric ~n "query_ms_p50" "ms" (Stats.median elapsed *. 1e3);
      metric ~n "rows_per_s" "rows/s" (sumf (fun rd -> fi rd.reads) rounds /. busy);
      metric ~n "cost_per_object" "W/T"
        (List.fold_left (fun a r -> a +. r.cost) 0.0 rs /. nf);
      metric ~n "probes_per_query" "count"
        (fi (List.fold_left (fun a r -> a + r.probes) 0 rs) /. nf);
      metric ~n "peak_rss_mb" "MB" (peak_rss_mb ());
    ],
    elapsed )

let broker_sum rounds =
  Array.fold_left
    (fun (a : Probe_broker.stats) rd ->
      let b = rd.broker in
      {
        Probe_broker.requests = a.requests + b.requests;
        admitted = a.admitted + b.admitted;
        charged = a.charged + b.charged;
        failed = a.failed + b.failed;
        coalesced = a.coalesced + b.coalesced;
        fresh_hits = a.fresh_hits + b.fresh_hits;
        rejected = a.rejected + b.rejected;
        batches = a.batches + b.batches;
      })
    {
      Probe_broker.requests = 0;
      admitted = 0;
      charged = 0;
      failed = 0;
      coalesced = 0;
      fresh_hits = 0;
      rejected = 0;
      batches = 0;
    }
    rounds

let per_layer args cfg ~untraced ~traced ~queue_wait ~recorder_overhead =
  let rs = all_results traced in
  let n = List.length rs in
  let nf = fi n in
  let busy = List.fold_left (fun a r -> a +. r.elapsed) 0.0 rs in
  let wall = sumf (fun rd -> rd.wall) traced in
  let b = broker_sum traced in
  let reads = sumf (fun rd -> fi rd.reads) traced in
  let plan_s = sumf (fun rd -> rd.plan_s) traced in
  let plan_calls = sumf (fun rd -> fi rd.plan_calls) traced in
  (* Isolated passes over the server's own dataset, regenerated from the
     same config with the same public generator. *)
  let data =
    Synthetic.generate (Rng.create cfg.Server_core.c_seed)
      (Synthetic.config ~total:cfg.c_total ~f_y:cfg.c_f_y ~f_m:cfg.c_f_m
         ~max_laxity:cfg.c_max_laxity ())
  in
  let specs = Array.sub (round_specs ~seed:args.seed 0) 0 3 in
  let cap = Layers.observed_cap Synthetic.instance data in
  let plans =
    Array.to_list specs
    |> List.map (fun s ->
           ( s,
             Layers.plan ~qseed:s.qseed ~instance:Synthetic.instance ~cap
               ~requirements:
                 (Quality.requirements ~precision:s.p ~recall:s.r ~laxity:s.l)
               ~cost:Cost_model.paper ~batch:cfg.c_batch data ))
  in
  let decides =
    List.map
      (fun (s, (p : Layers.plan)) ->
        Layers.decide ~qseed:s.qseed ~instance:Synthetic.instance
          ~probe_one:Synthetic.probe ~batch:cfg.c_batch ~params:p.Layers.params
          ~requirements:(Quality.requirements ~precision:s.p ~recall:s.r ~laxity:s.l)
          data)
      plans
  in
  let round_ms = Array.map (fun rd -> rd.wall *. 1e3) untraced in
  let latency = cfg.c_probe_ms /. 1000.0 in
  let untraced_wall = sumf (fun rd -> rd.wall) untraced in
  (* The server scans no column store and reads no file. *)
  Layers.scan_absent @ Layers.io_absent
  @ Layers.decide_metrics decides
  @ [
      metric ~n "probe.backend_probes_per_query" "count" (fi b.charged /. nf);
      metric ~n "engine.plan_ms" "ms" (ratio plan_s plan_calls *. 1e3);
      metric ~n "engine.plan_share" "ratio" (ratio plan_s busy);
    ]
  @ Layers.plan_metrics (List.map snd plans)
  @ [
      metric ~n "broker.rounds_per_query" "count" (fi b.batches /. nf);
      metric ~n "broker.batch_fill_ratio" "ratio"
        (ratio (fi b.charged) (fi (b.batches * cfg.c_batch)));
      metric ~n "broker.reuse_ratio" "ratio"
        (ratio (fi (b.coalesced + b.fresh_hits)) (fi b.requests));
      metric ~n:(fst queue_wait) "broker.queue_wait_ms_p50" "ms"
        (fst (snd queue_wait) *. 1e3);
      metric ~n:(fst queue_wait) "broker.queue_wait_ms_p90" "ms"
        (snd (snd queue_wait) *. 1e3);
      metric ~n "broker.backend_busy_share" "ratio"
        (ratio (fi b.batches *. latency) wall);
      metric ~n:(fst recorder_overhead) "obs.recorder_overhead_ratio" "ratio"
        (snd recorder_overhead);
      metric ~n:(Array.length round_ms) "server.round_ms_p50" "ms" (Stats.median round_ms);
      metric ~n:(Array.length round_ms) "server.round_ms_p90" "ms"
        (Stats.quantile round_ms 0.9);
    ]
  @ Layers.cascade_absent
  @ [
      metric ~n "gc.minor_words_per_row" "words"
        (ratio (sumf (fun rd -> rd.words) traced) reads);
      metric ~n "gc.minor_words_per_query" "words"
        (sumf (fun rd -> rd.words) traced /. nf);
      metric ~n "gc.major_collections_per_query" "count"
        (sumf (fun rd -> fi rd.majors) traced /. nf);
      metric ~n "trace.overhead_ratio" "ratio" (ratio wall untraced_wall -. 1.0);
    ]

(* ---- the run ------------------------------------------------------------------ *)

let run args =
  let c = checks () in
  let seen = Hashtbl.create 64 in
  let (cfg, srv, paths), setup_s, reps =
    if args.trace then (setup_once args, 0.0, 1)
    else repeat_setup (fun () -> setup_once args)
  in
  let seed = args.seed in
  let untraced =
    closed_loop ~inject:args.inject_wrong srv ~seed paths ~seconds:args.seconds
  in
  Array.iter (record_round c seen ~prefix:"timed") untraced;
  let keyed rounds =
    Array.to_list rounds
    |> List.mapi (fun i rd ->
           List.map (fun r -> (Printf.sprintf "%d.%s" i r.key, r.fp)) rd.results)
    |> List.concat
  in
  List.iter
    (fun k -> record c ~label:k [ "fingerprint differs from an earlier run" ])
    (check_persisted args (keyed untraced));
  let metrics =
    if not args.trace then begin
      let ms, elapsed = end_to_end untraced ~setup:(setup_s, reps) in
      print_p90 elapsed;
      ms
    end
    else begin
      let tr = tracer true in
      let obs = Server_core.obs srv in
      let before = Obs.snapshot obs in
      let traced =
        Array.map
          (fun rd -> run_round ~tr ~inject:false srv ~seed paths rd.script)
          untraced
      in
      let wait = Metrics.diff ~later:(Obs.snapshot obs) ~earlier:before in
      Array.iter (record_round c seen ~prefix:"traced") traced;
      let queue_wait =
        match Metrics.dist_of wait Obs.Keys.broker_queue_wait with
        | Some d when d.Metrics.d_count > 0 ->
            (d.Metrics.d_count, (Metrics.quantile d 0.5, Metrics.quantile d 0.9))
        | _ -> (0, (0.0, 0.0))
      in
      (* Telemetry cost: the same rounds against a twin server without
         the flight recorder, alternating. *)
      let recorder_overhead =
        let bare = Server_core.create { cfg with Server_core.c_recorder = 0 } in
        let m = max 3 (Array.length untraced / 4) in
        let with_ring = ref 0.0 and without = ref 0.0 in
        for i = 0 to m - 1 do
          let k = i mod Array.length paths in
          let a = run_round ~inject:false srv ~seed paths k in
          let b = run_round ~inject:false bare ~seed paths k in
          record_round c seen ~prefix:"recorder" a;
          record_round c seen ~prefix:"no-recorder" b;
          with_ring := !with_ring +. a.wall;
          without := !without +. b.wall
        done;
        (m, ratio !with_ring !without -. 1.0)
      in
      let ms =
        per_layer args cfg ~untraced ~traced ~queue_wait ~recorder_overhead
      in
      let counts =
        Array.to_list traced
        |> List.mapi (fun i rd ->
               [
                 (i, "rows", fi rd.reads);
                 (i, "queries", fi (List.length rd.results));
                 (i, "backend_probes", fi rd.broker.charged);
                 (i, "backend_batches", fi rd.broker.batches);
                 (i, "minor_words", rd.words);
                 (i, "major_collections", fi rd.majors);
               ])
        |> List.concat
      in
      finish_trace args tr ~counts;
      ms
    end
  in
  (c, metrics)
