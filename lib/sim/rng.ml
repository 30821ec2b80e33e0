type t = Random.State.t

let create ~seed = Random.State.make [| seed; 0x9e3779b9; seed lxor 0x85ebca6b |]
let split t = Random.State.split t

(* A draw from [\[0, 1)], bit for bit what [Random.State.float t 1.0]
   returns: the first iteration of the stdlib's [rawfloat], whose
   recursion keeps it (and every float it returns) out of line. In the
   1-in-2^53 case where the top 53 bits are all zero, the stdlib's own
   loop draws again. *)
let[@inline] unit_float t =
  let n = Int64.shift_right_logical (Random.State.bits64 t) 11 in
  if n <> 0L then Int64.to_float n *. 0x1.p-53 else Random.State.float t 1.0

let[@inline] float t bound = unit_float t *. bound

let int t bound =
  assert (bound > 0);
  Random.State.int t bound

let bool t = Random.State.bool t
let[@inline] bernoulli t ~p = unit_float t < p

let[@inline] uniform t ~lo ~hi =
  assert (lo <= hi);
  lo +. float t (hi -. lo)

(* Box–Muller: draw u1 away from 0 to keep [log] finite. *)
let[@inline] normal t ~mu ~sigma =
  let u1 = 1.0 -. unit_float t in
  let u2 = unit_float t in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let[@inline] exponential t ~rate =
  assert (rate > 0.0);
  let u = 1.0 -. unit_float t in
  -.log u /. rate

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  assert (Array.length a > 0);
  a.(Random.State.int t (Array.length a))
