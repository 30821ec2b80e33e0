(* One in-flight request's timestamps. Fields start at [nan] and are
   filled as the round progresses; [on_reply] turns them into
   component samples. Records are recycled on an intrusive free list
   ([rnext]; the shared [req_nil] sentinel marks the end) so a
   closed-loop client's steady stream of requests reuses a handful of
   records instead of allocating one per request. *)
type open_req = {
  mutable client : int;
  mutable cmd_id : int;
  mutable is_read : bool;
  mutable submitted_ms : float;
  mutable arrival_ms : float;
  mutable wait_ms : float;
  mutable service_ms : float;
  mutable handled_ms : float;
  mutable proposed_ms : float;
  mutable quorum_ms : float;
  mutable rnext : open_req;
}

let rec req_nil =
  {
    client = -1;
    cmd_id = -1;
    is_read = false;
    submitted_ms = nan;
    arrival_ms = nan;
    wait_ms = nan;
    service_ms = nan;
    handled_ms = nan;
    proposed_ms = nan;
    quorum_ms = nan;
    rnext = req_nil;
  }

(* Requests are keyed by (client, cmd_id) packed into one int: client
   ids are small and dense, per-client command ids are per-run
   counters far below 2^40. *)
let pack_req ~client ~cmd_id = (client lsl 40) lor cmd_id

type node_acc = {
  mutable nwait : float;
  mutable nbusy : float;
  mutable nmsgs : int;
}

type bucket = { mutable bcount : int; mutable bsum : float }

(* Spans live in growable parallel arrays (structure-of-arrays), not a
   [Span.t list]: recording a span writes four scalars, allocating
   nothing beyond amortized array growth. Names are resolved at export
   time from the span's kind (constant strings for components; the
   request parent span rebuilds "request c<id>#<n>" from its packed
   key in [sp_aux]). *)
let kind_request = 0

let kind_names =
  [|
    "request";
    "net:client->replica";
    "queue-wait";
    "service";
    "propose-gap";
    "quorum-wait";
    "exec+reply";
    "server";
    "net:replica->client";
    "relay:aggregate";
  |]

let kind_relay = 9

type t = {
  on : bool;
  window_ms : float;
  max_spans : int;
  mutable from_ms : float;
  mutable until_ms : float;
  reqs : (int, open_req) Hashtbl.t; (* packed (client, cmd_id) keys *)
  mutable req_pool : open_req; (* free list; [req_nil] = empty *)
  by_slot : (int, int) Hashtbl.t; (* slot -> packed request key *)
  (* component statistics, window-filtered *)
  c_e2e : Stats.t;
  c_net_in : Stats.t;
  c_wait_in : Stats.t;
  c_service_in : Stats.t;
  c_propose_gap : Stats.t;
  c_quorum : Stats.t;
  c_exec_reply : Stats.t;
  c_net_out : Stats.t;
  c_server : Stats.t;
  c_read_e2e : Stats.t;
  c_write_e2e : Stats.t;
  mutable fast_reads : int;
      (* reads served off the fast path (lease / quorum / tail) — they
         never reach [on_propose], so this is the only trace of them *)
  c_relay : Stats.t;
      (* relay aggregation hops (round received at relay -> combined
         ack sent); kept OUT of [components] — the hop overlaps the
         quorum wait, so adding it would break the telescoping check *)
  mutable relay_hops : int;
  nodes : (int, node_acc) Hashtbl.t;
  msgs : (string, int ref) Hashtbl.t;
  buckets : (int, bucket) Hashtbl.t;
  (* span storage (SoA) *)
  mutable sp_kind : int array;
  mutable sp_track : int array;
  mutable sp_start : float array;
  mutable sp_end : float array;
  mutable sp_aux : int array;
  mutable n_spans : int;
}

let create ?(window_ms = 100.0) ?(max_spans = 200_000) ~enabled () =
  {
    on = enabled;
    window_ms;
    max_spans;
    from_ms = 0.0;
    until_ms = infinity;
    reqs = Hashtbl.create (if enabled then 256 else 1);
    req_pool = req_nil;
    by_slot = Hashtbl.create (if enabled then 256 else 1);
    c_e2e = Stats.create ();
    c_net_in = Stats.create ();
    c_wait_in = Stats.create ();
    c_service_in = Stats.create ();
    c_propose_gap = Stats.create ();
    c_quorum = Stats.create ();
    c_exec_reply = Stats.create ();
    c_net_out = Stats.create ();
    c_server = Stats.create ();
    c_read_e2e = Stats.create ();
    c_write_e2e = Stats.create ();
    fast_reads = 0;
    c_relay = Stats.create ();
    relay_hops = 0;
    nodes = Hashtbl.create (if enabled then 16 else 1);
    msgs = Hashtbl.create (if enabled then 32 else 1);
    buckets = Hashtbl.create (if enabled then 64 else 1);
    sp_kind = [||];
    sp_track = [||];
    sp_start = [||];
    sp_end = [||];
    sp_aux = [||];
    n_spans = 0;
  }

let enabled t = t.on

let set_window t ~from_ms ~until_ms =
  t.from_ms <- from_ms;
  t.until_ms <- until_ms

let window t = (t.from_ms, t.until_ms)

let alloc_req t ~client ~cmd_id ~now_ms =
  let r =
    if t.req_pool != req_nil then begin
      let r = t.req_pool in
      t.req_pool <- r.rnext;
      r.rnext <- r;
      r
    end
    else
      let rec r =
        {
          client = 0;
          cmd_id = 0;
          is_read = false;
          submitted_ms = nan;
          arrival_ms = nan;
          wait_ms = nan;
          service_ms = nan;
          handled_ms = nan;
          proposed_ms = nan;
          quorum_ms = nan;
          rnext = r;
        }
      in
      r
  in
  r.client <- client;
  r.cmd_id <- cmd_id;
  r.is_read <- false;
  r.submitted_ms <- now_ms;
  r.arrival_ms <- nan;
  r.wait_ms <- nan;
  r.service_ms <- nan;
  r.handled_ms <- nan;
  r.proposed_ms <- nan;
  r.quorum_ms <- nan;
  r

let release_req t r =
  r.rnext <- t.req_pool;
  t.req_pool <- r

let on_submit t ~client ~cmd_id ~is_read ~now_ms =
  if t.on then begin
    let key = pack_req ~client ~cmd_id in
    if not (Hashtbl.mem t.reqs key) then begin
      let r = alloc_req t ~client ~cmd_id ~now_ms in
      r.is_read <- is_read;
      Hashtbl.add t.reqs key r
    end
  end

let on_fast_read t = if t.on then t.fast_reads <- t.fast_reads + 1

let on_request_arrival t ~client ~cmd_id ~arrival_ms ~wait_ms ~service_ms
    ~ready_ms =
  if t.on then
    match Hashtbl.find_opt t.reqs (pack_req ~client ~cmd_id) with
    | Some r when Float.is_nan r.arrival_ms ->
        r.arrival_ms <- arrival_ms;
        r.wait_ms <- wait_ms;
        r.service_ms <- service_ms;
        r.handled_ms <- ready_ms
    | _ -> ()

let on_propose t ~slot ~client ~cmd_id ~now_ms =
  if t.on then
    let key = pack_req ~client ~cmd_id in
    match Hashtbl.find_opt t.reqs key with
    | Some r when Float.is_nan r.proposed_ms ->
        r.proposed_ms <- now_ms;
        Hashtbl.replace t.by_slot slot key
    | _ -> ()

let on_quorum t ~slot ~now_ms =
  if t.on then
    match Hashtbl.find_opt t.by_slot slot with
    | Some key -> (
        Hashtbl.remove t.by_slot slot;
        match Hashtbl.find_opt t.reqs key with
        | Some r when Float.is_nan r.quorum_ms -> r.quorum_ms <- now_ms
        | _ -> ())
    | None -> ()

let grow_spans t =
  let cap = Array.length t.sp_kind in
  let ncap = if cap = 0 then 1024 else cap * 2 in
  let gi a = Array.append a (Array.make (ncap - cap) 0) in
  let gf a = Array.append a (Array.make (ncap - cap) 0.0) in
  t.sp_kind <- gi t.sp_kind;
  t.sp_track <- gi t.sp_track;
  t.sp_aux <- gi t.sp_aux;
  t.sp_start <- gf t.sp_start;
  t.sp_end <- gf t.sp_end

let push_span t ~kind ~track ~aux ~start_ms ~end_ms =
  if t.n_spans < t.max_spans then begin
    if t.n_spans >= Array.length t.sp_kind then grow_spans t;
    let i = t.n_spans in
    t.sp_kind.(i) <- kind;
    t.sp_track.(i) <- track;
    t.sp_aux.(i) <- aux;
    t.sp_start.(i) <- start_ms;
    t.sp_end.(i) <- end_ms;
    t.n_spans <- i + 1
  end

let on_relay_hop t ~start_ms ~end_ms =
  if t.on then begin
    t.relay_hops <- t.relay_hops + 1;
    if start_ms >= t.from_ms && end_ms <= t.until_ms then begin
      Stats.add t.c_relay (end_ms -. start_ms);
      push_span t ~kind:kind_relay ~track:0 ~aux:0 ~start_ms ~end_ms
    end
  end

let record_bucket t ~done_ms ~latency =
  let b = int_of_float (done_ms /. t.window_ms) in
  match Hashtbl.find_opt t.buckets b with
  | Some bk ->
      bk.bcount <- bk.bcount + 1;
      bk.bsum <- bk.bsum +. latency
  | None -> Hashtbl.add t.buckets b { bcount = 1; bsum = latency }

let on_reply t ~client ~cmd_id ~sent_ms ~ready_ms =
  if t.on then
    let key = pack_req ~client ~cmd_id in
    match Hashtbl.find_opt t.reqs key with
    | None -> () (* duplicate reply after the first already closed it *)
    | Some r ->
        Hashtbl.remove t.reqs key;
        let e2e = ready_ms -. r.submitted_ms in
        record_bucket t ~done_ms:ready_ms ~latency:e2e;
        let dissected = not (Float.is_nan r.arrival_ms) in
        let staged =
          dissected
          && (not (Float.is_nan r.proposed_ms))
          && not (Float.is_nan r.quorum_ms)
        in
        if r.submitted_ms >= t.from_ms && ready_ms <= t.until_ms then begin
          Stats.add t.c_e2e e2e;
          Stats.add (if r.is_read then t.c_read_e2e else t.c_write_e2e) e2e;
          if dissected then begin
            Stats.add t.c_net_in (r.arrival_ms -. r.submitted_ms);
            Stats.add t.c_wait_in r.wait_ms;
            Stats.add t.c_service_in r.service_ms;
            Stats.add t.c_server (sent_ms -. r.handled_ms);
            Stats.add t.c_net_out (ready_ms -. sent_ms);
            if staged then begin
              Stats.add t.c_propose_gap (r.proposed_ms -. r.handled_ms);
              Stats.add t.c_quorum (r.quorum_ms -. r.proposed_ms);
              Stats.add t.c_exec_reply (sent_ms -. r.quorum_ms)
            end
          end
        end;
        let sp kind a b =
          push_span t ~kind ~track:client ~aux:0 ~start_ms:a ~end_ms:b
        in
        push_span t ~kind:kind_request ~track:client ~aux:key
          ~start_ms:r.submitted_ms ~end_ms:ready_ms;
        if dissected then begin
          sp 1 r.submitted_ms r.arrival_ms;
          sp 2 r.arrival_ms (r.arrival_ms +. r.wait_ms);
          sp 3 (r.arrival_ms +. r.wait_ms) r.handled_ms;
          if staged then begin
            sp 4 r.handled_ms r.proposed_ms;
            sp 5 r.proposed_ms r.quorum_ms;
            sp 6 r.quorum_ms sent_ms
          end
          else sp 7 r.handled_ms sent_ms;
          sp 8 sent_ms ready_ms
        end;
        release_req t r

let node_acc t node =
  match Hashtbl.find_opt t.nodes node with
  | Some a -> a
  | None ->
      let a = { nwait = 0.0; nbusy = 0.0; nmsgs = 0 } in
      Hashtbl.add t.nodes node a;
      a

let on_hop t ~node ~now_ms ~wait_ms ~service_ms =
  if t.on && now_ms >= t.from_ms && now_ms <= t.until_ms then begin
    let a = node_acc t node in
    a.nwait <- a.nwait +. wait_ms;
    a.nbusy <- a.nbusy +. service_ms;
    a.nmsgs <- a.nmsgs + 1
  end

let count_msg t label =
  if t.on then
    match Hashtbl.find_opt t.msgs label with
    | Some r -> incr r
    | None -> Hashtbl.add t.msgs label (ref 1)

let e2e t = t.c_e2e
let net_in t = t.c_net_in
let wait_in t = t.c_wait_in
let service_in t = t.c_service_in
let propose_gap t = t.c_propose_gap
let quorum_wait t = t.c_quorum
let exec_reply t = t.c_exec_reply
let net_out t = t.c_net_out
let server_residency t = t.c_server
let read_e2e t = t.c_read_e2e
let write_e2e t = t.c_write_e2e
let fast_reads t = t.fast_reads
let relay_hops t = t.relay_hops
let relay_hop_ms t = t.c_relay

let components t =
  if Stats.count t.c_quorum > 0 then
    [
      ("net client->replica", t.c_net_in);
      ("queue wait", t.c_wait_in);
      ("service", t.c_service_in);
      ("propose gap", t.c_propose_gap);
      ("quorum wait", t.c_quorum);
      ("exec+reply", t.c_exec_reply);
      ("net replica->client", t.c_net_out);
    ]
  else
    [
      ("net client->replica", t.c_net_in);
      ("queue wait", t.c_wait_in);
      ("service", t.c_service_in);
      ("server residency", t.c_server);
      ("net replica->client", t.c_net_out);
    ]

let node_ids t =
  Hashtbl.fold (fun i _ acc -> i :: acc) t.nodes [] |> List.sort Int.compare

let node_wait_ms t i =
  match Hashtbl.find_opt t.nodes i with Some a -> a.nwait | None -> 0.0

let node_busy_ms t i =
  match Hashtbl.find_opt t.nodes i with Some a -> a.nbusy | None -> 0.0

let node_msgs t i =
  match Hashtbl.find_opt t.nodes i with Some a -> a.nmsgs | None -> 0

let message_counts t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.msgs []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let series t =
  Hashtbl.fold
    (fun b bk acc ->
      ( float_of_int b *. t.window_ms,
        bk.bcount,
        bk.bsum /. float_of_int bk.bcount )
      :: acc)
    t.buckets []
  |> List.sort (fun (a, _, _) (b, _, _) -> Float.compare a b)

let span_count t = t.n_spans

let span_name t i =
  let kind = t.sp_kind.(i) in
  if kind = kind_request then
    let aux = t.sp_aux.(i) in
    Printf.sprintf "request c%d#%d" (aux lsr 40) (aux land ((1 lsl 40) - 1))
  else kind_names.(kind)

let to_chrome_json t =
  let meta =
    Json.Obj
      [
        ("name", Json.String "process_name");
        ("ph", Json.String "M");
        ("pid", Json.Number 0.0);
        ( "args",
          Json.Obj [ ("name", Json.String "paxi clients (track = client id)") ]
        );
      ]
  in
  let events = ref [] in
  for i = t.n_spans - 1 downto 0 do
    let span =
      Span.make ~name:(span_name t i) ~track:t.sp_track.(i)
        ~start_ms:t.sp_start.(i) ~end_ms:t.sp_end.(i)
    in
    events := Span.to_chrome_json span :: !events
  done;
  Json.Obj
    [
      ("traceEvents", Json.List (meta :: !events));
      ("displayTimeUnit", Json.String "ms");
    ]
