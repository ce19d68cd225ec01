type t = { zones : Interval.t option array }

let build file ~support =
  let zones = Array.make (Heap_file.page_count file) None in
  Heap_file.iter_pages file (fun p objects ->
      let hull =
        Array.fold_left
          (fun acc o ->
            let s = support o in
            match acc with None -> Some s | Some h -> Some (Interval.hull h s))
          None objects
      in
      zones.(p) <- hull);
  { zones }

let of_zones zones = { zones = Array.copy zones }
let page_count t = Array.length t.zones
let zones t = Array.copy t.zones

let zone t p =
  if p < 0 || p >= page_count t then invalid_arg "Zone_map.zone: index";
  t.zones.(p)

let prunable t pred p =
  match zone t p with
  | None -> true
  | Some hull ->
      Tvl.equal
        (Predicate.classify_bounds pred ~lo:(Interval.lo hull)
           ~hi:(Interval.hi hull))
        Tvl.No

let pruned_pages t pred =
  let n = ref 0 in
  for p = 0 to page_count t - 1 do
    if prunable t pred p then incr n
  done;
  !n

let open_cursor ?obs ?pool t pred file =
  if page_count t <> Heap_file.page_count file then
    invalid_arg "Zone_map.open_cursor: zone map does not match the file";
  let skip_page = prunable t pred in
  let cursor =
    match pool with
    | Some bp -> Heap_file.Cursor.open_pooled ?obs ~skip_page file ~pool:bp
    | None -> Heap_file.Cursor.open_filtered ?obs file ~skip_page
  in
  (match obs with
  | Some o ->
      Metrics.add
        (Obs.counter o Obs.Keys.pruned_pages)
        (Heap_file.Cursor.pages_skipped cursor)
  | None -> ());
  cursor
