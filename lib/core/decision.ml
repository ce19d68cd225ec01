type action = Forward | Probe | Ignore

let equal_action a b =
  match (a, b) with
  | Forward, Forward | Probe, Probe | Ignore, Ignore -> true
  | (Forward | Probe | Ignore), _ -> false

let pp_action ppf a =
  Format.pp_print_string ppf
    (match a with Forward -> "forward" | Probe -> "probe" | Ignore -> "ignore")

let can_forward counters (req : Quality.requirements) ~verdict ~laxity =
  match (verdict : Tvl.t) with
  | No -> invalid_arg "Decision.can_forward: NO objects are never forwarded"
  | Yes -> laxity <= req.laxity
  | Maybe ->
      laxity <= req.laxity
      (* Rule (b): the post-forward precision guarantee |A∩Y| / (|A|+1)
         must not fall below p_q. *)
      && float_of_int (Counters.answer_yes counters)
         >= req.precision *. float_of_int (Counters.answer_size counters + 1)

let can_ignore counters (req : Quality.requirements) ~verdict =
  match (verdict : Tvl.t) with
  | No -> true
  | Yes | Maybe ->
      (* Rule (c): after the ignore the worst-case final recall is
         |A∩Y| / (|Y| + |M_s−A| + 1): ignoring a YES grows |Y|, ignoring a
         MAYBE grows |M_s−A| — either way the denominator gains one. *)
      let denominator =
        Counters.yes_seen counters + Counters.maybe_ignored counters + 1
      in
      float_of_int (Counters.answer_yes counters)
      >= req.recall *. float_of_int denominator

let feasible counters req ~verdict ~laxity =
  let forward =
    match (verdict : Tvl.t) with
    | No -> []
    | Yes | Maybe ->
        if can_forward counters req ~verdict ~laxity then [ Forward ] else []
  in
  let ignore_ = if can_ignore counters req ~verdict then [ Ignore ] else [] in
  forward @ [ Probe ] @ ignore_

(* A direct recursion over the preference list: it runs once per YES or
   MAYBE object, so it allocates no predicate closure and no option. *)
let rec first_feasible counters req ~verdict ~laxity ~preference =
  match preference with
  | [] | Probe :: _ -> Probe
  | Forward :: rest -> (
      match (verdict : Tvl.t) with
      | (Yes | Maybe) when can_forward counters req ~verdict ~laxity -> Forward
      | No | Yes | Maybe ->
          first_feasible counters req ~verdict ~laxity ~preference:rest)
  | Ignore :: rest ->
      if can_ignore counters req ~verdict then Ignore
      else first_feasible counters req ~verdict ~laxity ~preference:rest
