type per_zone = Per_zone_majority | Per_zone_all

type spec =
  | Majority of int list
  | Count of { members : int list; threshold : int }
  | Fast of int list
  | Zones of { zones : int list list; need_zones : int; per_zone : per_zone }

let majority_threshold n = (n / 2) + 1
let fast_threshold n = (3 * n + 3) / 4

let rec strictly_increasing = function
  | a :: (b :: _ as rest) -> a < b && strictly_increasing rest
  | _ -> true

(* Protocols pass [0 .. n-1] on every round; a list that is already
   sorted and duplicate-free is returned as is instead of re-sorted. *)
let dedup l = if strictly_increasing l then l else List.sort_uniq Int.compare l

let members = function
  | Majority ms | Fast ms -> dedup ms
  | Count { members; _ } -> dedup members
  | Zones { zones; _ } -> dedup (List.concat zones)

let zone_need per_zone zone =
  match per_zone with
  | Per_zone_majority -> majority_threshold (List.length zone)
  | Per_zone_all -> List.length zone

let min_size = function
  | Majority ms -> majority_threshold (List.length (dedup ms))
  | Fast ms -> fast_threshold (List.length (dedup ms))
  | Count { threshold; _ } -> threshold
  | Zones { zones; need_zones; per_zone } ->
      let needs =
        List.map (zone_need per_zone) zones |> List.sort Int.compare
      in
      let rec take k acc = function
        | _ when k = 0 -> acc
        | [] -> acc
        | x :: rest -> take (k - 1) (acc + x) rest
      in
      take need_zones 0 needs

(* Trackers sit on the per-ack hot path (one [ack] + [satisfied] per
   vote message), so everything derivable from the immutable [spec] is
   computed once at [create]: the deduped member list, the vote
   threshold for the flat specs, and a per-replica flag byte indexed
   by id (ids are small ints, see the mli) holding membership and
   acked/nacked bits. The flags are the whole vote state: a vote is
   one bounds check and one byte read/write, with no list scan (which
   keeps [ack] O(1) at n = 81) and no cons cell, and the flat specs
   count their acks as they land. *)
type t = {
  spec : spec;
  memb : int list;  (** [members spec], deduped once at creation *)
  threshold : int;  (** acks needed among [memb]; unused for [Zones] *)
  flags : Bytes.t;  (** per-id bits: 1 = member, 2 = acked, 4 = nacked *)
  mutable n_acked : int;
}

let flag_member = 1
let flag_acked = 2
let flag_nacked = 4

let create spec =
  let memb = members spec in
  let threshold =
    match spec with
    | Majority _ -> majority_threshold (List.length memb)
    | Fast _ -> fast_threshold (List.length memb)
    | Count { threshold; _ } -> threshold
    | Zones _ -> max_int (* zone counting, not a flat threshold *)
  in
  let top = List.fold_left (fun acc m -> if m > acc then m else acc) (-1) memb in
  let flags = Bytes.make (top + 1) '\000' in
  List.iter
    (fun m -> if m >= 0 then Bytes.unsafe_set flags m (Char.unsafe_chr flag_member))
    memb;
  { spec; memb; threshold; flags; n_acked = 0 }

let flag t id = Char.code (Bytes.unsafe_get t.flags id)

(* Set [bit] on member [id] unless it is already set; [true] if it was
   newly set. Strays (non-members, ids out of range) are ignored. *)
let mark t id bit =
  id >= 0
  && id < Bytes.length t.flags
  &&
  let f = flag t id in
  f land (flag_member lor bit) = flag_member
  && begin
       Bytes.unsafe_set t.flags id (Char.unsafe_chr (f lor bit));
       true
     end

let ack t id = if mark t id flag_acked then t.n_acked <- t.n_acked + 1
let nack t id = ignore (mark t id flag_nacked)

let has t bit id = id >= 0 && id < Bytes.length t.flags && flag t id land bit <> 0

let count_in acked group =
  List.fold_left (fun acc m -> if List.mem m acked then acc + 1 else acc) 0 group

let satisfied_with spec acked =
  match spec with
  | Majority ms ->
      let ms = dedup ms in
      count_in acked ms >= majority_threshold (List.length ms)
  | Fast ms ->
      let ms = dedup ms in
      count_in acked ms >= fast_threshold (List.length ms)
  | Count { members; threshold } -> count_in acked (dedup members) >= threshold
  | Zones { zones; need_zones; per_zone } ->
      let ok_zones =
        List.filter
          (fun z -> count_in acked z >= zone_need per_zone z)
          zones
      in
      List.length ok_zones >= need_zones

(* Zone members carrying the acked flag, counted off the flags: no
   closure, no list. *)
let rec acked_in t n = function
  | [] -> n
  | m :: rest -> acked_in t (if has t flag_acked m then n + 1 else n) rest

let rec zones_ok t per_zone n = function
  | [] -> n
  | z :: rest ->
      zones_ok t per_zone
        (if acked_in t 0 z >= zone_need per_zone z then n + 1 else n)
        rest

let satisfied t =
  match t.spec with
  | Majority _ | Fast _ | Count _ ->
      (* [ack] admits each member at most once, so [n_acked] is exactly
         the number of acked members *)
      t.n_acked >= t.threshold
  | Zones { zones; need_zones; per_zone } ->
      zones_ok t per_zone 0 zones >= need_zones

let rejected t =
  (* Satisfaction impossible even if every silent member eventually
     acks: treat all non-nacked members as acked and re-check. *)
  let optimistic = List.filter (fun m -> not (has t flag_nacked m)) t.memb in
  not (satisfied_with t.spec optimistic)

let acks t = List.filter (has t flag_acked) t.memb

(* Clear every vote: each member's byte goes back to its membership
   bit alone, whatever it held. *)
let reset t =
  for id = 0 to Bytes.length t.flags - 1 do
    Bytes.unsafe_set t.flags id (Char.unsafe_chr (flag t id land flag_member))
  done;
  t.n_acked <- 0

let spec t = t.spec
let is_quorum spec acked = satisfied_with spec (dedup acked)

(* Enumerate subsets of [l] of size [k]. *)
let rec choose k l =
  if k = 0 then [ [] ]
  else
    match l with
    | [] -> []
    | x :: rest ->
        List.map (fun s -> x :: s) (choose (k - 1) rest) @ choose k rest

let minimal_quorums spec =
  match spec with
  | Majority ms ->
      let ms = dedup ms in
      choose (majority_threshold (List.length ms)) ms
  | Fast ms ->
      let ms = dedup ms in
      choose (fast_threshold (List.length ms)) ms
  | Count { members; threshold } -> choose threshold (dedup members)
  | Zones { zones; need_zones; per_zone } ->
      let zone_minimals =
        List.map (fun z -> choose (zone_need per_zone z) z) zones
      in
      (* pick need_zones zones, then one minimal per chosen zone *)
      let rec zone_choices k zs =
        if k = 0 then [ [] ]
        else
          match zs with
          | [] -> []
          | z :: rest ->
              let with_z =
                List.concat_map
                  (fun minimal ->
                    List.map (fun s -> minimal @ s) (zone_choices (k - 1) rest))
                  z
              in
              with_z @ zone_choices k rest
      in
      List.map dedup (zone_choices need_zones zone_minimals)

let intersects a b =
  let qa = minimal_quorums a and qb = minimal_quorums b in
  qa <> [] && qb <> []
  && List.for_all
       (fun sa ->
         List.for_all (fun sb -> List.exists (fun x -> List.mem x sb) sa) qb)
       qa
