(* The two running floats live in a 2-slot float array rather than
   mutable record fields: the record also holds ints and a bool, so it
   is not a flat float record, and every store to a mutable float field
   of such a record allocates a fresh box. Float-array loads and stores
   are always unboxed.  Slots: 0 = busy_until, 1 = busy_time. *)
type t = {
  t_in_ms : float;
  t_out_ms : float;
  bytes_per_ms : float; (* NIC throughput *)
  s : float array;
  mutable processed : int;
  free : bool;
}

let create ?(t_in_ms = 0.012) ?(t_out_ms = 0.008) ?(bandwidth_mbps = 10_000.0)
    () =
  {
    t_in_ms;
    t_out_ms;
    (* mbps are megabits/s: bytes per ms = mbps * 1e6 / 8 / 1e3 *)
    bytes_per_ms = bandwidth_mbps *. 125.0;
    s = Array.make 2 0.0;
    processed = 0;
    free = false;
  }

let zero () =
  {
    t_in_ms = 0.0;
    t_out_ms = 0.0;
    bytes_per_ms = infinity;
    s = Array.make 2 0.0;
    processed = 0;
    free = true;
  }

(* [Float.max now_ms busy_until] spelled as a comparison: identical
   for the non-nan, non-negative timestamps the queue ever sees, and a
   cross-module [Float.max] call boxes both operands and the result. *)
let[@inline] occupy t ~now_ms ~cost =
  if t.free then now_ms
  else begin
    let b = t.s.(0) in
    let start = if now_ms > b then now_ms else b in
    let finish = start +. cost in
    t.s.(0) <- finish;
    t.s.(1) <- t.s.(1) +. cost;
    finish
  end

(* Same arithmetic as [occupy] but also reports the message's own
   queueing wait and service split — the tracing layer's per-hop
   attribution. The [ready] value is bit-identical to [occupy]'s. *)
let[@inline] occupy_split t ~now_ms ~cost =
  if t.free then (now_ms, 0.0, 0.0)
  else begin
    let b = t.s.(0) in
    let start = if now_ms > b then now_ms else b in
    let finish = start +. cost in
    t.s.(0) <- finish;
    t.s.(1) <- t.s.(1) +. cost;
    (finish, start -. now_ms, cost)
  end

let[@inline] nic_cost t ~size_bytes =
  if t.free then 0.0 else float_of_int size_bytes /. t.bytes_per_ms

let[@inline] occupy_incoming t ~now_ms ~size_bytes =
  t.processed <- t.processed + 1;
  occupy t ~now_ms ~cost:(t.t_in_ms +. nic_cost t ~size_bytes)

let[@inline] occupy_outgoing t ~now_ms ~copies ~size_bytes =
  t.processed <- t.processed + 1;
  occupy t ~now_ms
    ~cost:(t.t_out_ms +. (float_of_int copies *. nic_cost t ~size_bytes))

let[@inline] occupy_incoming_split t ~now_ms ~size_bytes =
  t.processed <- t.processed + 1;
  occupy_split t ~now_ms ~cost:(t.t_in_ms +. nic_cost t ~size_bytes)

let[@inline] occupy_outgoing_split t ~now_ms ~copies ~size_bytes =
  t.processed <- t.processed + 1;
  occupy_split t ~now_ms
    ~cost:(t.t_out_ms +. (float_of_int copies *. nic_cost t ~size_bytes))

(* The ready time [occupy_incoming] would return, bit for bit, without
   occupying the queue or counting the message. *)
let[@inline] incoming_ready t ~now_ms ~size_bytes =
  if t.free then now_ms
  else begin
    let b = t.s.(0) in
    let start = if now_ms > b then now_ms else b in
    start +. (t.t_in_ms +. nic_cost t ~size_bytes)
  end

let busy_until t = t.s.(0)
let busy_time t = t.s.(1)
let messages_processed t = t.processed

let reset t =
  t.s.(0) <- 0.0;
  t.s.(1) <- 0.0;
  t.processed <- 0
