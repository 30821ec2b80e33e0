type t = { round : int; owner : int }

let zero = { round = 0; owner = -1 }
let initial ~owner = { round = 1; owner }
let next t ~owner = { round = t.round + 1; owner }
let succ t = { round = t.round + 1; owner = t.owner }

(* [round] above [owner + 1]: the packed ints order as the ballots do *)
let owner_bits = 16
let max_owner = (1 lsl owner_bits) - 2
let max_round = (1 lsl 40) - 1

let pack t =
  if t.round < 0 || t.round > max_round || t.owner < -1 || t.owner > max_owner
  then
    invalid_arg
      (Printf.sprintf "Ballot.pack: %d.%d outside rounds [0, %d], owners [-1, %d]"
         t.round t.owner max_round max_owner);
  (t.round lsl owner_bits) lor (t.owner + 1)

let unpack p =
  { round = p lsr owner_bits; owner = (p land ((1 lsl owner_bits) - 1)) - 1 }

let compare a b =
  match Int.compare a.round b.round with
  | 0 -> Int.compare a.owner b.owner
  | c -> c

let equal a b = compare a b = 0
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0
let ( > ) a b = compare a b > 0
let ( >= ) a b = compare a b >= 0
let pp ppf t = Format.fprintf ppf "%d.%d" t.round t.owner
