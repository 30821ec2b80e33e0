type window = { from_ms : float; until_ms : float }

let in_window w now = now >= w.from_ms && now < w.until_ms

type rule =
  | Crash of { node : Address.t; w : window }
  | Drop of { src : Address.t; dst : Address.t; w : window }
  | Slow of { src : Address.t; dst : Address.t; w : window; extra_ms : float }
  | Flaky of { src : Address.t; dst : Address.t; w : window; p_drop : float }
  | Partition of { groups : Address.Set.t list; w : window }
  | Skew of { node : Address.t; w : window; offset_ms : float }

let window_of = function
  | Crash { w; _ } | Drop { w; _ } | Slow { w; _ } | Flaky { w; _ }
  | Partition { w; _ } | Skew { w; _ } ->
      w

(* [rules] is authoritative (newest first). [active] caches the rules
   whose window held the instant of the last refresh, in [rules]
   order; [\[lo, hi)] is the gap between the nearest window edges
   ([from_ms] or [until_ms] of any rule) at or below and above it.
   Windows are half-open and no edge lies inside the gap, so every
   instant there has the same active set: queries inside it reuse
   [active], any other query (earlier or later) refreshes. Predicates
   still check their own window over this order-preserving subset, so
   verdicts and flaky/slow RNG draws equal a scan of [rules]. With no
   active rule a query returns before building a closure. [add] and
   [clear] set [hi = neg_infinity], an empty gap, to force a refresh. *)
type t = {
  mutable rules : rule list;
  mutable active : rule list;
  mutable lo : float;
  mutable hi : float;
}

let create () = { rules = []; active = []; lo = infinity; hi = neg_infinity }

let add t r =
  t.rules <- r :: t.rules;
  t.hi <- neg_infinity

let clear t =
  t.rules <- [];
  t.hi <- neg_infinity

let is_empty t = t.rules = []

let refresh t now =
  let edge (lo, hi) e =
    if e <= now then (Float.max lo e, hi) else (lo, Float.min hi e)
  in
  let lo, hi =
    List.fold_left
      (fun acc r ->
        let w = window_of r in
        edge (edge acc w.from_ms) w.until_ms)
      (neg_infinity, infinity) t.rules
  in
  t.active <- List.filter (fun r -> in_window (window_of r) now) t.rules;
  t.lo <- lo;
  t.hi <- hi

let active t ~now_ms =
  if not (now_ms >= t.lo && now_ms < t.hi) then refresh t now_ms;
  t.active

let window ~from_ms ~duration_ms =
  { from_ms; until_ms = from_ms +. duration_ms }

let crash t ~node ~from_ms ~duration_ms =
  add t (Crash { node; w = window ~from_ms ~duration_ms })

let drop t ~src ~dst ~from_ms ~duration_ms =
  add t (Drop { src; dst; w = window ~from_ms ~duration_ms })

let slow t ~src ~dst ~from_ms ~duration_ms ~extra_ms =
  add t (Slow { src; dst; w = window ~from_ms ~duration_ms; extra_ms })

let flaky t ~src ~dst ~from_ms ~duration_ms ~p_drop =
  add t (Flaky { src; dst; w = window ~from_ms ~duration_ms; p_drop })

let partition t ~groups ~from_ms ~duration_ms =
  let groups = List.map Address.Set.of_list groups in
  add t (Partition { groups; w = window ~from_ms ~duration_ms })

let skew t ~node ~from_ms ~duration_ms ~offset_ms =
  add t (Skew { node; w = window ~from_ms ~duration_ms; offset_ms })

let crashed rules ~now_ms node =
  List.exists
    (function
      | Crash { node = n; w } -> Address.equal n node && in_window w now_ms
      | _ -> false)
    rules

let is_crashed t ~now_ms node =
  match active t ~now_ms with [] -> false | rules -> crashed rules ~now_ms node

(* Oldest-first, straight off [rules] (not [active]): the cluster's
   crash/recovery scheduler reads the whole timeline up front,
   including windows that will long have expired when it looks. *)
let crash_windows t node =
  List.rev t.rules
  |> List.filter_map (function
       | Crash { node = n; w } when Address.equal n node ->
           Some (w.from_ms, w.until_ms)
       | _ -> None)

let link_matches ~src ~dst rule_src rule_dst =
  Address.equal src rule_src && Address.equal dst rule_dst

let partition_severed groups src dst =
  (* Severed when the two endpoints appear in different groups; nodes
     absent from every group communicate freely. *)
  let find a = List.find_opt (fun g -> Address.Set.mem a g) groups in
  match (find src, find dst) with
  | Some ga, Some gb -> not (ga == gb)
  | _ -> false

(* The rule scans sit apart from the queries below, as [crashed] does
   for [is_crashed], so the queries inline and the clock reading they
   take stays unboxed while no rule is active. *)
let skew_sum rules ~now_ms node =
  List.fold_left
    (fun acc rule ->
      match rule with
      | Skew { node = n; w; offset_ms }
        when Address.equal n node && in_window w now_ms ->
          acc +. offset_ms
      | _ -> acc)
    0.0 rules

(* Deterministic (no RNG draws): a node's clock error at a given
   instant is the sum of the active skew offsets, so fault-free runs
   and runs whose skew windows never overlap a query are bit-identical
   to a skew-free schedule. *)
let clock_offset t ~now_ms node =
  match active t ~now_ms with [] -> 0.0 | rules -> skew_sum rules ~now_ms node

let dropped rules rng ~now_ms ~src ~dst =
  crashed rules ~now_ms src || crashed rules ~now_ms dst
  || List.exists
       (function
         | Drop { src = s; dst = d; w } ->
             in_window w now_ms && link_matches ~src ~dst s d
         | Flaky { src = s; dst = d; w; p_drop } ->
             in_window w now_ms && link_matches ~src ~dst s d
             && Rng.bernoulli rng ~p:p_drop
         | Partition { groups; w } ->
             in_window w now_ms && partition_severed groups src dst
         | Crash _ | Slow _ | Skew _ -> false)
       rules

let slowed rules rng ~now_ms ~src ~dst =
  List.fold_left
    (fun acc rule ->
      match rule with
      | Slow { src = s; dst = d; w; extra_ms }
        when in_window w now_ms && link_matches ~src ~dst s d ->
          acc +. Rng.float rng extra_ms
      | _ -> acc)
    0.0 rules

let should_drop t rng ~now_ms ~src ~dst =
  match active t ~now_ms with [] -> false | r -> dropped r rng ~now_ms ~src ~dst

let extra_delay t rng ~now_ms ~src ~dst =
  match active t ~now_ms with [] -> 0.0 | r -> slowed r rng ~now_ms ~src ~dst

let rule_count t = List.length t.rules

(* ------------------------------------------------------------------ *)
(* Serialization: schedules as JSON, for nemesis repro lines.          *)
(* ------------------------------------------------------------------ *)

let addr_json a = Json.String (Address.to_string a)

let window_fields w =
  [
    ("from_ms", Json.Number w.from_ms);
    ("duration_ms", Json.Number (w.until_ms -. w.from_ms));
  ]

let link_fields src dst w =
  (("src", addr_json src) :: ("dst", addr_json dst) :: window_fields w)

let rule_to_json = function
  | Crash { node; w } ->
      Json.Obj
        (("kind", Json.String "crash")
        :: ("node", addr_json node)
        :: window_fields w)
  | Drop { src; dst; w } ->
      Json.Obj (("kind", Json.String "drop") :: link_fields src dst w)
  | Slow { src; dst; w; extra_ms } ->
      Json.Obj
        ((("kind", Json.String "slow") :: link_fields src dst w)
        @ [ ("extra_ms", Json.Number extra_ms) ])
  | Flaky { src; dst; w; p_drop } ->
      Json.Obj
        ((("kind", Json.String "flaky") :: link_fields src dst w)
        @ [ ("p_drop", Json.Number p_drop) ])
  | Partition { groups; w } ->
      Json.Obj
        (("kind", Json.String "partition")
        :: ( "groups",
             Json.List
               (List.map
                  (fun g ->
                    Json.List
                      (List.map addr_json (Address.Set.elements g)))
                  groups) )
        :: window_fields w)
  | Skew { node; w; offset_ms } ->
      Json.Obj
        ((("kind", Json.String "skew")
         :: ("node", addr_json node)
         :: window_fields w)
        @ [ ("offset_ms", Json.Number offset_ms) ])

(* Rules are stored newest-first; serialize in the order they were
   added (flaky rules draw from the RNG in list order, so order is
   part of behaviour). *)
let to_json t = Json.List (List.rev_map rule_to_json t.rules)
