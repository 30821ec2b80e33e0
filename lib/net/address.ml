type t = Replica of int | Client of int

(* Every send names its endpoints, so the constructors hand out
   prebuilt values for the ids a deployment actually uses instead of a
   fresh two-word block per call. Values stay structural: nothing
   compares addresses physically. *)
let interned = 1024
let replicas = Array.init interned (fun i -> Replica i)
let clients = Array.init interned (fun i -> Client i)

let replica i =
  if i >= 0 && i < interned then Array.unsafe_get replicas i else Replica i

let client i =
  if i >= 0 && i < interned then Array.unsafe_get clients i else Client i

let is_replica = function Replica _ -> true | Client _ -> false
let is_client = function Client _ -> true | Replica _ -> false

let replica_id = function
  | Replica i -> i
  | Client i -> invalid_arg (Printf.sprintf "Address.replica_id: client %d" i)

let compare a b =
  match (a, b) with
  | Replica i, Replica j -> Int.compare i j
  | Client i, Client j -> Int.compare i j
  | Replica _, Client _ -> -1
  | Client _, Replica _ -> 1

let equal a b = compare a b = 0
let hash = function Replica i -> (2 * i) + 1 | Client i -> 2 * i

let code = hash

let of_code c =
  if c land 1 = 1 then replica (c asr 1) else client (c asr 1)

let pp ppf = function
  | Replica i -> Format.fprintf ppf "n%d" i
  | Client i -> Format.fprintf ppf "c%d" i

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Hashed = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
module Table = Hashtbl.Make (Hashed)
