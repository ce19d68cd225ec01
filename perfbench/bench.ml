(* The benchmark command.  One run: build the workload's inputs from the
   seed, run its queries in a closed loop for the given number of
   seconds, check every answer, and print the metrics; the last line of
   standard output is the JSON result.

     bench --workload scan-1m|serve-cold|cascade --seed N
           --seconds S --trace 0|1 [--scale full|toy] [--inject-wrong]

   --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
   replays the same queries with spans recorded around each layer call
   and prints the per-layer metrics.  The exit code is 1 when any query
   failed its checks. *)

open Common

let usage () =
  prerr_endline
    "usage: bench --workload scan-1m|serve-cold|cascade --seed N \
     --seconds S --trace 0|1 [--scale full|toy] [--inject-wrong]";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and scale = ref Full and inject = ref false in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | "--scale" :: "full" :: rest -> scale := Full; go rest
    | "--scale" :: "toy" :: rest -> scale := Toy; go rest
    | "--inject-wrong" :: rest -> inject := true; go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some workload, Some seed, Some seconds, Some trace when seconds > 0.0 ->
      {
        workload;
        seed;
        seconds;
        trace;
        scale = !scale;
        inject_wrong = !inject;
      }
  | _ -> usage ()

let () =
  let args = parse Sys.argv in
  if not (Sys.file_exists workdir) then Unix.mkdir workdir 0o755;
  let c, metrics =
    match args.workload with
    | "scan-1m" -> Engine_wl.run Engine_wl.Scan args
    | "cascade" -> Engine_wl.run Engine_wl.Tiers args
    | "serve-cold" -> Serve_wl.run args
    | w ->
        Printf.eprintf "unknown workload %S\n" w;
        exit 2
  in
  print_metrics
    (Printf.sprintf "%s seed=%d %s" args.workload args.seed
       (if args.trace then "per-layer (traced run)" else "end-to-end"))
    metrics;
  Printf.printf "failed_ratio = %.6f (%d of %d queries)\n"
    (ratio (fi c.failed) (fi c.attempted))
    c.failed c.attempted;
  let finite = List.for_all (fun m -> Float.is_finite m.value) metrics in
  if not finite then print_endline "FAILED: a metric is not a finite number";
  let correct = c.failed = 0 && finite && c.attempted > 0 in
  print_result ~correct c metrics;
  exit (if correct then 0 else 1)
