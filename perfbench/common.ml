(* Shared plumbing of the benchmark: arguments, clock, statistics, the
   in-memory span recorder, answer-check bookkeeping and metric output.

   Everything here lives outside the library: the benchmark observes
   each layer only through its public interface. *)

let now = Unix.gettimeofday

type scale = Full | Toy

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  scale : scale;
  inject_wrong : bool;  (** corrupt the first query's answer before the checks *)
}

(* Generated inputs, fingerprints and traces, relative to the checkout
   root the benchmark runs from. *)
let workdir = ".perfbench-work"

let work_file args name =
  Filename.concat workdir
    (Printf.sprintf "%s-%d-%s-%s" args.workload args.seed
       (match args.scale with Full -> "full" | Toy -> "toy")
       name)

(* ---- statistics ---------------------------------------------------- *)

let sum xs = Array.fold_left ( +. ) 0.0 xs
let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

(* ---- process counters ---------------------------------------------- *)

(* Allocation and collections of the calling domain.  [Gc.minor_words]
   includes the words of the current minor heap, which [Gc.quick_stat]
   only counts once it is collected. *)
let gc_now () = (Gc.minor_words (), (Gc.quick_stat ()).Gc.major_collections)

(* Peak resident set of the whole process, from the kernel. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf line "VmHWM: %d kB" (fun kb -> fi kb /. 1024.0)
            else scan ()
      in
      scan ())

(* [time f] is [(f (), seconds)]. *)
let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Set-up is timed several times and the median reported, so that work
   moved into set-up shows without one slow repetition deciding it: at
   least three repetitions, more while they add up to under two seconds
   (a set-up of a few milliseconds needs many samples to be steady).
   Returns the last repetition's state, the median and the count. *)
let repeat_setup f =
  let rec go times =
    let v, dt = time f in
    let times = dt :: times in
    let n = List.length times in
    if n >= 1000 || (n >= 3 && sum (Array.of_list times) >= 2.0) then
      (v, Stats.median (Array.of_list times), n)
    else begin
      (* Drop this repetition's state before the next one is built. *)
      ignore (Sys.opaque_identity v);
      Gc.compact ();
      go times
    end
  in
  go []

(* ---- spans ---------------------------------------------------------- *)

(* Spans recorded by the benchmark's own code around its calls into each
   layer.  The recorder is single-domain: every wrapped call runs on the
   benchmark's main domain. *)
type span = {
  sid : int;
  parent : int;  (** 0 for a root *)
  name : string;
  query : int;  (** the query (or round) the span belongs to *)
  start : float;
  stop : float;
}

type tracer = {
  on : bool;
  mutable spans : span list;
  mutable next_sid : int;
  mutable current : int;
  mutable query : int;
}

let tracer on = { on; spans = []; next_sid = 1; current = 0; query = -1 }

let span t name f =
  if not t.on then f ()
  else begin
    let sid = t.next_sid in
    t.next_sid <- sid + 1;
    let parent = t.current in
    t.current <- sid;
    let start = now () in
    let close () =
      t.spans <-
        { sid; parent; name; query = t.query; start; stop = now () }
        :: t.spans;
      t.current <- parent
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

(* The root span of one query, carrying its id. *)
let query_span t ~query name f =
  t.query <- query;
  span t name f

type span_total = { calls : int; total : float; self : float }

(* Per span name: calls, total duration and self time (duration minus
   the part its child spans cover; children never overlap because the
   recorder is single-domain). *)
let span_totals t =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child s.parent
          ((s.stop -. s.start)
          +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.0))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self = d -. Option.value (Hashtbl.find_opt child s.sid) ~default:0.0 in
      let prev =
        Option.value (Hashtbl.find_opt by_name s.name)
          ~default:{ calls = 0; total = 0.0; self = 0.0 }
      in
      Hashtbl.replace by_name s.name
        { calls = prev.calls + 1; total = prev.total +. d; self = prev.self +. self })
    t.spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* Spans and per-query counts are written out once, at the end. *)
let write_trace args t ~counts =
  let path = work_file args "trace.tsv" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "# span\tsid\tparent\tquery\tname\tstart_s\tdur_us\n";
      List.iter
        (fun s ->
          Printf.fprintf oc "span\t%d\t%d\t%d\t%s\t%.6f\t%.3f\n" s.sid s.parent
            s.query s.name s.start
            ((s.stop -. s.start) *. 1e6))
        (List.rev t.spans);
      output_string oc "# count\tquery\tname\tvalue\n";
      List.iter
        (fun (q, name, v) -> Printf.fprintf oc "count\t%d\t%s\t%.17g\n" q name v)
        counts);
  path

(* Write the trace and print each span name's totals. *)
let finish_trace args t ~counts =
  let path = write_trace args t ~counts in
  Printf.printf "trace: %d spans written to %s\n" (List.length t.spans) path;
  List.iter
    (fun (name, s) ->
      Printf.printf "  span %-16s calls=%-8d total=%.6fs self=%.6fs\n" name
        s.calls s.total s.self)
    (span_totals t)

(* ---- answer checks -------------------------------------------------- *)

type checks = {
  mutable attempted : int;
  mutable failed : int;
  mutable shown : int;
}

let checks () = { attempted = 0; failed = 0; shown = 0 }

(* One query's verdict: it fails if any check raised a reason. *)
let record c ~label reasons =
  c.attempted <- c.attempted + 1;
  if reasons <> [] then begin
    c.failed <- c.failed + 1;
    if c.shown < 20 then begin
      c.shown <- c.shown + 1;
      Printf.printf "FAILED %s: %s\n%!" label (String.concat "; " reasons)
    end
  end

(* Fingerprints of earlier runs of the same binary with the same
   workload, seed and scale, kept in the work directory: a query whose
   fingerprint differs from an earlier run's is a failure.  Returns the
   keys that differ.  A run with a corrupted answer neither compares nor
   stores, so it cannot fail the honest runs after it. *)
let check_persisted args (fps : (string * string) list) =
  if args.inject_wrong then []
  else begin
    let build = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
    let path = work_file args ("fingerprints-" ^ build ^ ".tsv") in
    let old = Hashtbl.create 64 in
    (if Sys.file_exists path then
       let ic = open_in path in
       Fun.protect
         ~finally:(fun () -> close_in ic)
         (fun () ->
           try
             while true do
               let line = input_line ic in
               match String.index_opt line '\t' with
               | Some i ->
                   Hashtbl.replace old (String.sub line 0 i)
                     (String.sub line (i + 1) (String.length line - i - 1))
               | None -> ()
             done
           with End_of_file -> ()));
    let differing =
      List.filter_map
        (fun (k, fp) ->
          match Hashtbl.find_opt old k with
          | Some prev when prev <> fp -> Some k
          | _ -> None)
        fps
    in
    List.iter
      (fun (k, fp) -> if not (Hashtbl.mem old k) then Hashtbl.replace old k fp)
      fps;
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) old []
        |> List.sort compare
        |> List.iter (fun (k, v) -> Printf.fprintf oc "%s\t%s\n" k v));
    differing
  end

(* ---- output --------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string; n : int }

let metric ?(n = 0) name unit_ value = { name; value; unit_; n }

(* The 90th percentile is printed only with at least ten samples beyond
   it. *)
let print_p90 latencies =
  let n = Array.length latencies in
  if n >= 100 then
    Printf.printf "query_ms_p90 = %.3f ms (n=%d)\n"
      (Stats.quantile latencies 0.9 *. 1e3)
      n
  else Printf.printf "query_ms_p90: not reported, n=%d < 100\n" n

let print_metrics title ms =
  Printf.printf "== %s\n" title;
  List.iter
    (fun m ->
      Printf.printf "  %-38s %16.6f %-8s n=%d\n" m.name m.value m.unit_ m.n)
    ms

(* The result line: always the last line of standard output. *)
let print_result ~correct (c : checks) ms =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
  in
  let body =
    List.map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value)
          m.unit_)
      ms
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct c.attempted c.failed (String.concat ", " body)
