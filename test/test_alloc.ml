(* Allocation regression tests: the hot paths documented as
   allocation-free must stay so.  Each measures the [Gc.minor_words]
   delta of a call made after a warm-up call of the same closure. *)

let minor_words f =
  f ();
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let checkf msg expected actual = Alcotest.(check (float 0.0)) msg expected actual
let checkb = Alcotest.(check bool)

let three_bands =
  Predicate.(between 10.0 18.0 ||| between 40.0 48.0 ||| between 70.0 78.0)

(* A resident 64-row chunk whose rows hit all three verdicts. *)
let chunk () =
  let records =
    Interval_data.uniform_intervals (Rng.create 3) ~n:64
      ~value_range:(Interval.make 0.0 100.0) ~max_width:10.0
  in
  Column_store.chunk (Interval_data.to_store ~chunk_size:64 records) 0

let test_kernel () =
  let ch = chunk () in
  let pred = Predicate.compile three_bands in
  let verdicts = Bytes.create 64 in
  let laxities = Array.make 64 0.0 and successes = Array.make 64 0.0 in
  let words =
    minor_words (fun () ->
        Column_scan.kernel pred ch ~off:0 ~verdicts ~laxities ~successes)
  in
  let seen v = Bytes.exists (fun c -> Tvl.equal (Tvl.of_char c) v) verdicts in
  checkb "chunk has YES, NO and MAYBE rows" true
    (seen Tvl.Yes && seen Tvl.No && seen Tvl.Maybe);
  checkf "kernel allocates nothing" 0.0 words

(* A store whose rows are all NO: the columnar source hands every one
   out as the same shared item, so once a wave is classified, consuming
   its rows allocates nothing. *)
let test_source_no_rows () =
  let n = 64 * 64 in
  let rows =
    Array.init n (fun id ->
        { Column_store.id; lo = 50.0; hi = 51.0; truth = 50.5 })
  in
  let store = Column_store.create ~chunk_size:64 rows in
  let pred = Predicate.compile three_bands in
  let src =
    Column_scan.source ~wave:16 ~store ~of_row:Interval_data.of_row ~pred ()
  in
  (* The first row dispatches a wave of 16 chunks (1024 rows). *)
  let not_no = ref 0 in
  let next () =
    match src.Operator.next () with
    | Some { Scan_pipeline.verdict = Tvl.No; _ } -> ()
    | Some _ | None -> incr not_no
  in
  next ();
  let words =
    minor_words (fun () ->
        for _ = 1 to 500 do
          next ()
        done)
  in
  Alcotest.(check int) "every row handed out as NO" 0 !not_no;
  checkf "NO rows of a classified wave allocate nothing" 0.0 words

let test_first_feasible () =
  let counters = Counters.create ~total:100 in
  let req = Quality.requirements ~precision:0.9 ~recall:0.9 ~laxity:5.0 in
  let preference = [ Decision.Ignore; Decision.Forward; Decision.Probe ] in
  let laxity = 1.0 in
  let words =
    minor_words (fun () ->
        for _ = 1 to 10_000 do
          ignore
            (Sys.opaque_identity
               (Decision.first_feasible counters req ~verdict:Tvl.Maybe
                  ~laxity ~preference))
        done)
  in
  checkf "first_feasible allocates nothing" 0.0 words

(* A draw allocates nothing inside the generator: [bernoulli] and [int]
   return immediates and allocate nothing at all.  [bits64] and
   [uniform] return an [int64] and a [float] to this module, which the
   default build (every module compiled [-opaque], so nothing is inlined
   across modules) hands back boxed: their only allocation is that box,
   3 and 2 words. *)
let draws = 10_000

let test_rng () =
  let r = Rng.create 7 in
  let per_draw f = minor_words f /. float_of_int draws in
  checkf "bernoulli allocates nothing" 0.0
    (per_draw (fun () ->
         for _ = 1 to draws do
           ignore (Sys.opaque_identity (Rng.bernoulli r 0.3))
         done));
  checkf "int allocates nothing" 0.0
    (per_draw (fun () ->
         for _ = 1 to draws do
           ignore (Sys.opaque_identity (Rng.int r 17))
         done));
  checkb "bits64 allocates at most its boxed result" true
    (per_draw (fun () ->
         for _ = 1 to draws do
           ignore (Rng.bits64 r)
         done)
    <= 3.0);
  checkb "uniform allocates at most its boxed result" true
    (per_draw (fun () ->
         for _ = 1 to draws do
           ignore (Rng.uniform r)
         done)
    <= 2.0)

let suite =
  [
    ("column kernel", `Quick, test_kernel);
    ("columnar source on NO rows", `Quick, test_source_no_rows);
    ("first feasible action", `Quick, test_first_feasible);
    ("rng draws", `Quick, test_rng);
  ]
