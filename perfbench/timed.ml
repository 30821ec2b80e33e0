(* Tracing from outside the program. [Make (P) (M)] is a protocol that
   behaves exactly like [P]: the cluster engine drives it through the
   same public entry points, and every call is passed straight through.
   What the wrapper adds sits only at those boundaries:

   - always: counting tracing hooks ([env.obs]) for proposals, fast
     reads and relay hops, and a record of every replica instance the
     engine creates, so the checkers can read their state machines;
   - when [M.timed]: a span around every handler ([on_message] keyed by
     [P.message_label], [on_request], timer callbacks, start and
     recovery) and around every env capability (sends, reliable posts,
     timers).

   Spans nest — collapsed delivery runs a receiver's handler inside the
   sender's [send] — so the accounting keeps a stack and charges each
   span its self time (its duration minus its children's). The self
   times of all spans plus the engine's residual then add up to the
   wall time of the traced run. *)

let now_ns () = Int64.to_int (Monotonic_clock.clock_linux_get_time ())

(* Span categories. Message labels are appended after the fixed ones
   the first time a label is seen. *)
let c_request = 0
let c_timer = 1
let c_start = 2
let c_send = 3
let c_timer_env = 4
let c_rel_other = 5
let first_label = 6
let handler_cats = [ c_request; c_timer; c_start ]

type spans = {
  mutable names : string array;
  mutable calls : int array;
  mutable self_ns : int array;
  mutable ncat : int;
  mutable start : int array;
  mutable child : int array;
  mutable depth : int;
}

let fixed_names = [| "request"; "timer"; "start"; "send"; "timer_env"; "rel_other" |]

let spans =
  {
    names = Array.append fixed_names (Array.make 26 "");
    calls = Array.make 32 0;
    self_ns = Array.make 32 0;
    ncat = first_label;
    start = Array.make 64 0;
    child = Array.make 64 0;
    depth = 0;
  }

(* Counts taken at the protocols' own tracing hooks. *)
type counts = {
  mutable proposes : int;  (** commands assigned a slot *)
  mutable propose_rounds : int;  (** distinct (replica, instant) proposals *)
  mutable fast_reads : int;
  mutable relay_hops : int;
}

let counts = { proposes = 0; propose_rounds = 0; fast_reads = 0; relay_hops = 0 }

let read_counts () = { counts with proposes = counts.proposes }

let reset () =
  spans.ncat <- first_label;
  Array.fill spans.calls 0 (Array.length spans.calls) 0;
  Array.fill spans.self_ns 0 (Array.length spans.self_ns) 0;
  spans.depth <- 0;
  counts.proposes <- 0;
  counts.propose_rounds <- 0;
  counts.fast_reads <- 0;
  counts.relay_hops <- 0

let enter () =
  let d = spans.depth in
  if d = Array.length spans.start then begin
    let grow a = Array.append a (Array.make d 0) in
    spans.start <- grow spans.start;
    spans.child <- grow spans.child
  end;
  spans.child.(d) <- 0;
  spans.depth <- d + 1;
  spans.start.(d) <- now_ns ()

let leave cat =
  let t = now_ns () in
  let d = spans.depth - 1 in
  spans.depth <- d;
  let dur = t - spans.start.(d) in
  spans.calls.(cat) <- spans.calls.(cat) + 1;
  spans.self_ns.(cat) <- spans.self_ns.(cat) + dur - spans.child.(d);
  if d > 0 then spans.child.(d - 1) <- spans.child.(d - 1) + dur

(* Labels are usually literal constants, so physical equality hits
   first; structural equality catches the rest. *)
let label_cat label =
  let rec find i =
    if i = spans.ncat then begin
      if i = Array.length spans.names then begin
        let grow a x = Array.append a (Array.make i x) in
        spans.names <- grow spans.names "";
        spans.calls <- grow spans.calls 0;
        spans.self_ns <- grow spans.self_ns 0
      end;
      spans.names.(i) <- label;
      spans.ncat <- i + 1;
      i
    end
    else if spans.names.(i) == label || String.equal spans.names.(i) label then i
    else find (i + 1)
  in
  find first_label

(* Per-category totals of one traced run; index [i] of each array is
   category [i], message labels from [first_label] on. *)
type snapshot = { names : string array; calls : int array; self_ns : int array }

let snapshot () =
  let n = spans.ncat in
  {
    names = Array.sub spans.names 0 n;
    calls = Array.sub spans.calls 0 n;
    self_ns = Array.sub spans.self_ns 0 n;
  }

let is_handler i = i >= first_label || List.mem i handler_cats

let sum_if pred a =
  let acc = ref 0 in
  Array.iteri (fun i v -> if pred i then acc := !acc + v) a;
  !acc

let handler_calls s = sum_if is_handler s.calls
let handler_self_ns s = sum_if is_handler s.self_ns
let total_self_ns s = sum_if (fun _ -> true) s.self_ns

let labels s =
  List.filter_map
    (fun i -> if i >= first_label then Some (s.names.(i), s.calls.(i), s.self_ns.(i)) else None)
    (List.init (Array.length s.names) Fun.id)

module type MODE = sig
  val timed : bool
end

module Make (P : Proto.RUNNABLE) (M : MODE) = struct
  include P

  (* One slot per (group, replica): a recovered instance replaces the
     crashed one, found by its storage device, which the engine keeps
     across the crash. Slots are created in group order, n per group. *)
  type slot = { id : int; device : Storage.t option; mutable replica : P.replica }

  let slots : slot list ref = ref []

  let capture (env : P.message Proto.env) r =
    let same s =
      match (s.device, env.Proto.storage) with
      | Some a, Some b -> a == b
      | _ -> false
    in
    match List.find_opt same !slots with
    | Some s -> s.replica <- r
    | None -> slots := { id = env.Proto.id; device = env.Proto.storage; replica = r } :: !slots

  (* Current replica instances, grouped per consensus group. *)
  let groups ~n =
    let rec chunk acc cur k = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | s :: rest ->
          if k = n then chunk (List.rev cur :: acc) [ (s.id, s.replica) ] 1 rest
          else chunk acc ((s.id, s.replica) :: cur) (k + 1) rest
    in
    chunk [] [] 0 (List.rev !slots)

  (* Counting hooks in front of the engine's own; [active] is set so
     that relay rounds report their hops even when the engine's trace
     is off. The hooks read the clock only, never the RNG. *)
  let counting_obs (env : P.message Proto.env) =
    let inner = env.Proto.obs in
    let last = ref Float.neg_infinity in
    {
      Proto.active = true;
      on_propose =
        (fun ~slot ~cmd ->
          let now = env.Proto.now () in
          counts.proposes <- counts.proposes + 1;
          if now <> !last then begin
            counts.propose_rounds <- counts.propose_rounds + 1;
            last := now
          end;
          inner.Proto.on_propose ~slot ~cmd);
      on_quorum = inner.Proto.on_quorum;
      on_read =
        (fun () ->
          counts.fast_reads <- counts.fast_reads + 1;
          inner.Proto.on_read ());
      on_relay =
        (fun ~start_ms ~end_ms ->
          counts.relay_hops <- counts.relay_hops + 1;
          inner.Proto.on_relay ~start_ms ~end_ms);
    }

  let timed_env (env : P.message Proto.env) : P.message Proto.env =
    let rel = env.Proto.rel in
    let send1 f x =
      enter ();
      f x;
      leave c_send
    in
    {
      env with
      Proto.schedule =
        (fun delay f ->
          enter ();
          let h =
            env.Proto.schedule delay (fun () ->
                enter ();
                f ();
                leave c_timer)
          in
          leave c_timer_env;
          h);
      cancel =
        (fun h ->
          enter ();
          env.Proto.cancel h;
          leave c_timer_env);
      send = (fun dst m -> send1 (env.Proto.send dst) m);
      broadcast = (fun m -> send1 env.Proto.broadcast m);
      multicast = (fun dsts m -> send1 (env.Proto.multicast dsts) m);
      send_sized = (fun dst ~size_bytes m -> send1 (env.Proto.send_sized dst ~size_bytes) m);
      broadcast_sized = (fun ~size_bytes m -> send1 (env.Proto.broadcast_sized ~size_bytes) m);
      multicast_sized =
        (fun dsts ~size_bytes m -> send1 (env.Proto.multicast_sized dsts ~size_bytes) m);
      reply = (fun client r -> send1 (env.Proto.reply client) r);
      forward = (fun dst ~client req -> send1 (env.Proto.forward dst ~client) req);
      rel =
        {
          rel with
          Proto.post =
            (fun ?key ?size_bytes ~ack dst m ->
              enter ();
              let k = rel.Proto.post ?key ?size_bytes ~ack dst m in
              leave c_send;
              k);
          post_multi =
            (fun ?key ?size_bytes ~ack dsts m ->
              enter ();
              let k = rel.Proto.post_multi ?key ?size_bytes ~ack dsts m in
              leave c_send;
              k);
          post_all =
            (fun ?key ?size_bytes ~ack m ->
              enter ();
              let k = rel.Proto.post_all ?key ?size_bytes ~ack m in
              leave c_send;
              k);
          settle =
            (fun ~dst ~key ->
              enter ();
              rel.Proto.settle ~dst ~key;
              leave c_rel_other);
          settle_all =
            (fun ~key ->
              enter ();
              rel.Proto.settle_all ~key;
              leave c_rel_other);
          unpost_all =
            (fun () ->
              enter ();
              rel.Proto.unpost_all ();
              leave c_rel_other);
        };
    }

  let span cat f x =
    enter ();
    f x;
    leave cat

  let create env =
    let env = { env with Proto.obs = counting_obs env } in
    let r =
      if M.timed then begin
        enter ();
        let r = P.create (timed_env env) in
        leave c_start;
        r
      end
      else P.create env
    in
    capture env r;
    r

  let on_message =
    if M.timed then fun r ~src m ->
      let c = label_cat (P.message_label m) in
      enter ();
      P.on_message r ~src m;
      leave c
    else P.on_message

  let on_request =
    if M.timed then fun r ~client req ->
      enter ();
      P.on_request r ~client req;
      leave c_request
    else P.on_request

  let on_start = if M.timed then span c_start P.on_start else P.on_start
  let on_recover = if M.timed then span c_start P.on_recover else P.on_recover
end
