(* Stable storage as a second service queue.

   The paper's dissection framework treats every latency source as a
   service station on the critical path; *The Performance of Paxos in
   the Cloud* (PAPERS.md) shows the fsync is the dominant one in real
   deployments. This module models one replica's write-ahead log +
   disk: protocols write records ([set_reg], [append], [truncate],
   [write_snapshot]) and then [sync] — the ack they owe the leader
   (P1b/P2b/VoteReply/AppendReply) may only be sent from the sync
   continuation, which fires after the simulated fsync completes. The
   device is FIFO with one in-flight fsync ([busy_until]), so
   back-to-back syncs queue exactly like a second Procq.

   Three durability disciplines ([sync_mode]):
   - [Sync_none]   — the continuation runs synchronously; no events,
                     no RNG draws, no latency. On fault-free runs it
                     replays the memory-only run exactly (CI-gated).
   - [Sync_every]  — every sync is its own fsync of [fsync_ms].
   - [Sync_batched]— group commit: syncs arriving within
                     [batch_window_ms] share one fsync.

   Crash semantics: records reach the durable image only when their
   fsync *completes*. [crash] discards every record not yet durable
   (unsynced or in flight), counts it in [lost_writes], and bumps an
   epoch so any stray completion event is inert (the cluster also
   mass-cancels the owner's timers — the epoch is defense in depth).
   Recovery reads back only the registers (small named integers:
   ballots, terms, votes), the retained log entries, and the latest
   snapshot.

   Writing a record allocates nothing, and a sync nothing beyond the
   caller's continuation (DESIGN.md §14): records wait in a ring of
   parallel arrays, syncs in a ring of (continuation, sync time), and
   in-flight fsyncs in a FIFO ring of (journal end, waiter end); the
   durable log is pages of parallel arrays.

   A memory-only replica writes to [volatile], which records nothing
   and runs every continuation at once ([after] builds no closure for
   it), so protocols keep one durable path.

   The record vocabulary is deliberately protocol-agnostic — integer
   registers, (index, a, b, cmd) log entries, snapshot images of
   applied commands — so this library sits below [paxi] and every
   protocol maps its own persistent state onto it. *)

type sync_mode = Sync_none | Sync_batched | Sync_every

let mode_to_string = function
  | Sync_none -> "none"
  | Sync_batched -> "batched"
  | Sync_every -> "every"

let mode_of_string = function
  | "none" -> Ok Sync_none
  | "batched" -> Ok Sync_batched
  | "every" -> Ok Sync_every
  | s -> Error (Printf.sprintf "unknown sync_mode %S (none|batched|every)" s)

type config = {
  sync_mode : sync_mode;
  fsync_ms : float;  (** service time of one fsync *)
  batch_window_ms : float;  (** group-commit window for [Sync_batched] *)
  snapshot_threshold : int;
      (** snapshot + truncate once the retained log exceeds this many
          entries; 0 disables snapshots *)
  replay_ms_per_cmd : float;
      (** simulated cost of replaying one log entry at recovery *)
}

let default_config =
  {
    sync_mode = Sync_every;
    (* cloud-SSD ballpark: an order of magnitude above the LAN RTT's
       0.0427ms one-way, per the Paxos-in-the-cloud measurements *)
    fsync_ms = 0.5;
    batch_window_ms = 0.2;
    snapshot_threshold = 0;
    replay_ms_per_cmd = 0.01;
  }

let validate_config c =
  if c.fsync_ms < 0.0 then Error "storage.fsync_ms must be >= 0"
  else if c.batch_window_ms <= 0.0 && c.sync_mode = Sync_batched then
    Error "storage.batch_window_ms must be > 0 in batched mode"
  else if c.snapshot_threshold < 0 then
    Error "storage.snapshot_threshold must be >= 0"
  else if c.replay_ms_per_cmd < 0.0 then
    Error "storage.replay_ms_per_cmd must be >= 0"
  else Ok c

let config_to_json c =
  Json.Obj
    [
      ("mode", Json.String (mode_to_string c.sync_mode));
      ("fsync_ms", Json.Number c.fsync_ms);
      ("batch_window_ms", Json.Number c.batch_window_ms);
      ("snapshot_threshold", Json.Number (float_of_int c.snapshot_threshold));
      ("replay_ms_per_cmd", Json.Number c.replay_ms_per_cmd);
    ]

let known_fields =
  [ "mode"; "fsync_ms"; "batch_window_ms"; "snapshot_threshold";
    "replay_ms_per_cmd" ]

let config_of_json j =
  let ( let* ) = Result.bind in
  let* () =
    match j with
    | Json.Obj fields -> (
        match
          List.find_opt (fun (k, _) -> not (List.mem k known_fields)) fields
        with
        | Some (k, _) -> Error (Printf.sprintf "unknown storage field %S" k)
        | None -> Ok ())
    | _ -> Error "storage must be an object"
  in
  let floatf name default =
    match Json.member name j with
    | None -> Ok default
    | Some v -> (
        match Json.to_float v with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "storage.%s must be a number" name))
  in
  let* sync_mode =
    match Json.member "mode" j with
    | None -> Ok default_config.sync_mode
    | Some v -> (
        match Json.get_string v with
        | Some s -> mode_of_string s
        | None -> Error "storage.mode must be a string")
  in
  let* fsync_ms = floatf "fsync_ms" default_config.fsync_ms in
  let* batch_window_ms =
    floatf "batch_window_ms" default_config.batch_window_ms
  in
  let* snapshot_threshold =
    match Json.member "snapshot_threshold" j with
    | None -> Ok default_config.snapshot_threshold
    | Some v -> (
        match Json.to_int v with
        | Some i -> Ok i
        | None -> Error "storage.snapshot_threshold must be an integer")
  in
  let* replay_ms_per_cmd =
    floatf "replay_ms_per_cmd" default_config.replay_ms_per_cmd
  in
  validate_config
    {
      sync_mode;
      fsync_ms;
      batch_window_ms;
      snapshot_threshold;
      replay_ms_per_cmd;
    }

(* ---- layout ---------------------------------------------------------- *)

type kind = Reg | Entry | Truncate | Snapshot

(* A durable-log page: [page_size] consecutive slots as parallel
   arrays. A slot is present when its command is not [absent]. Small
   pages keep every array a minor-heap block, and truncation drops
   whole pages. *)
type page = {
  pa : int array;
  pb : int array;
  pcmd : Command.t array;
  mutable live : int; (* present slots *)
}

let page_bits = 7
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let absent = Command.make ~id:(-2) ~client:(-2) (Command.Get (-2))

(* Stands in for every page not yet written. *)
let no_page = { pa = [||]; pb = [||]; pcmd = [||]; live = 0 }

(* The device's float state in one flat block, so updating it does not
   box. *)
type clock = {
  mutable busy_until : float;
  mutable busy_ms : float;
  mutable sync_wait_ms : float;
}

type t = {
  volatile : bool; (* [volatile]: no call touches another field *)
  config : config;
  sim : Sim.t;
  timers : Timers.t;
      (* the owner's crash domain: every completion event is tracked
         there and dies with the owner at the crash edge *)
  (* durable image *)
  mutable regs : int array;
  mutable pages : page array;
      (* [pages.(i)] is page number [log_base / page_size + i] *)
  mutable entries : int; (* present slots across all pages *)
  mutable log_base : int;
  mutable log_top : int; (* one past the highest durable slot *)
  mutable snap : (int * int * Command.t array) option;
  (* Journal: records [jhead, jtail) written but not yet durable, in
     write order. Sequence [s] lives at [s land (capacity - 1)] of each
     ring; [jimage] is allocated by the first snapshot record. *)
  mutable jkind : kind array;
  mutable jindex : int array;
  mutable ja : int array;
  mutable jb : int array;
  mutable jcmd : Command.t array;
  mutable jimage : Command.t array array;
  mutable jhead : int;
  mutable jtail : int;
  (* waiters [whead, wtail): sync continuations and their sync times *)
  mutable wk : (unit -> unit) array;
  mutable wt : float array;
  mutable whead : int;
  mutable wtail : int;
  (* in-flight fsyncs [fhead, ftail), FIFO: the journal end and the
     waiter end each one makes durable *)
  mutable fjend : int array;
  mutable fwend : int array;
  mutable fhead : int;
  mutable ftail : int;
  (* the device's two event thunks, rebuilt at each crash so that
     events scheduled before it stay inert *)
  mutable complete : unit -> unit;
  mutable flush : unit -> unit;
  mutable flush_scheduled : bool;
  clock : clock;
  mutable epoch : int;
  (* metrics *)
  mutable n_writes : int;
  mutable n_fsyncs : int;
  mutable n_syncs : int;
  mutable n_lost : int;
}

let snapshot_threshold t = t.config.snapshot_threshold

(* A fresh ring of capacity [cap] (a power of two) holding sequences
   [head, tail) of [ring]. *)
let regrow ring ~fill ~head ~tail ~cap =
  let r = Array.make cap fill in
  let m = Array.length ring - 1 in
  for s = head to tail - 1 do
    r.(s land (cap - 1)) <- ring.(s land m)
  done;
  r

let next_cap ring = Int.max 16 (2 * Array.length ring)

(* ---- durable image mutation (runs at fsync completion) --------------- *)

let durable_reg t idx v =
  if idx >= Array.length t.regs then begin
    let grown = Array.make (2 * (idx + 1)) 0 in
    Array.blit t.regs 0 grown 0 (Array.length t.regs);
    t.regs <- grown
  end;
  t.regs.(idx) <- v

(* The page holding [index] (>= log_base), allocated on first use. *)
let page t index =
  let i = (index lsr page_bits) - (t.log_base lsr page_bits) in
  let n = Array.length t.pages in
  if i >= n then begin
    let grown = Array.make (Int.max (2 * n) (i + 1)) no_page in
    Array.blit t.pages 0 grown 0 n;
    t.pages <- grown
  end;
  let pg = t.pages.(i) in
  if pg != no_page then pg
  else begin
    let pg =
      {
        pa = Array.make page_size 0;
        pb = Array.make page_size 0;
        pcmd = Array.make page_size absent;
        live = 0;
      }
    in
    t.pages.(i) <- pg;
    pg
  end

let durable_entry t index a b cmd =
  if index >= t.log_base then begin
    let pg = page t index and o = index land page_mask in
    if pg.pcmd.(o) == absent then begin
      pg.live <- pg.live + 1;
      t.entries <- t.entries + 1
    end;
    pg.pa.(o) <- a;
    pg.pb.(o) <- b;
    pg.pcmd.(o) <- cmd;
    if index >= t.log_top then t.log_top <- index + 1
  end

(* Discard slots below [upto]: whole pages go at once, then the slots
   of the page holding [upto] that fall below it (slots below the old
   base are absent already). *)
let durable_truncate t upto =
  if upto > t.log_base then begin
    let n = Array.length t.pages in
    let first = upto lsr page_bits in
    let dropped = Int.min n (first - (t.log_base lsr page_bits)) in
    for i = 0 to dropped - 1 do
      t.entries <- t.entries - t.pages.(i).live
    done;
    Array.blit t.pages dropped t.pages 0 (n - dropped);
    Array.fill t.pages (n - dropped) dropped no_page;
    (if n > dropped && t.pages.(0) != no_page then
       let pg = t.pages.(0) in
       for o = 0 to (upto land page_mask) - 1 do
         if pg.pcmd.(o) != absent then begin
           pg.pcmd.(o) <- absent;
           pg.live <- pg.live - 1;
           t.entries <- t.entries - 1
         end
       done);
    t.log_base <- upto;
    if t.log_top < upto then t.log_top <- upto
  end

(* Apply journal records up to sequence [upto] to the durable image. *)
let make_durable t upto =
  let m = Array.length t.jkind - 1 in
  while t.jhead < upto do
    let i = t.jhead land m in
    t.jhead <- t.jhead + 1;
    match t.jkind.(i) with
    | Reg -> durable_reg t t.jindex.(i) t.ja.(i)
    | Entry -> durable_entry t t.jindex.(i) t.ja.(i) t.jb.(i) t.jcmd.(i)
    | Truncate -> durable_truncate t t.jindex.(i)
    | Snapshot ->
        t.snap <- Some (t.jindex.(i), t.ja.(i), t.jimage.(i));
        t.jimage.(i) <- [||]
  done

(* ---- write path ------------------------------------------------------ *)

let push t kind index a b cmd =
  if not t.volatile then begin
    if t.jtail - t.jhead = Array.length t.jkind then begin
      let head = t.jhead and tail = t.jtail and cap = next_cap t.jkind in
      t.jkind <- regrow t.jkind ~fill:Reg ~head ~tail ~cap;
      t.jindex <- regrow t.jindex ~fill:0 ~head ~tail ~cap;
      t.ja <- regrow t.ja ~fill:0 ~head ~tail ~cap;
      t.jb <- regrow t.jb ~fill:0 ~head ~tail ~cap;
      t.jcmd <- regrow t.jcmd ~fill:Command.noop ~head ~tail ~cap;
      if Array.length t.jimage > 0 then
        t.jimage <- regrow t.jimage ~fill:[||] ~head ~tail ~cap
    end;
    let i = t.jtail land (Array.length t.jkind - 1) in
    t.jkind.(i) <- kind;
    t.jindex.(i) <- index;
    t.ja.(i) <- a;
    t.jb.(i) <- b;
    t.jcmd.(i) <- cmd;
    t.jtail <- t.jtail + 1;
    t.n_writes <- t.n_writes + 1
  end

let set_reg t idx v = push t Reg idx v 0 Command.noop
let append t ~index ~a ~b cmd = push t Entry index a b cmd
let truncate t ~upto = push t Truncate upto 0 0 Command.noop

let write_snapshot t ~last_index ~a image =
  if not t.volatile then begin
    push t Snapshot last_index a 0 Command.noop;
    if Array.length t.jimage = 0 then
      t.jimage <- Array.make (Array.length t.jkind) [||];
    t.jimage.((t.jtail - 1) land (Array.length t.jimage - 1)) <- image
  end

(* One fsync completed: the oldest in flight, the device being FIFO.
   Its records become durable, then its waiters run in sync order. *)
let complete t =
  let f = t.fhead land (Array.length t.fjend - 1) in
  let wend = t.fwend.(f) in
  t.fhead <- t.fhead + 1;
  make_durable t t.fjend.(f);
  let now = Sim.now t.sim in
  while t.whead < wend do
    let i = t.whead land (Array.length t.wk - 1) in
    let k = t.wk.(i) in
    t.wk.(i) <- ignore;
    t.whead <- t.whead + 1;
    t.n_syncs <- t.n_syncs + 1;
    t.clock.sync_wait_ms <- t.clock.sync_wait_ms +. (now -. t.wt.(i));
    k ()
  done

let[@inline] schedule t ~delay k =
  ignore (Timers.track t.timers (Sim.schedule_after t.sim ~delay k))

(* One fsync covering every record and waiter so far; it starts when
   the previous fsync finishes. *)
let begin_fsync t =
  if t.ftail - t.fhead = Array.length t.fjend then begin
    let head = t.fhead and tail = t.ftail and cap = next_cap t.fjend in
    t.fjend <- regrow t.fjend ~fill:0 ~head ~tail ~cap;
    t.fwend <- regrow t.fwend ~fill:0 ~head ~tail ~cap
  end;
  let f = t.ftail land (Array.length t.fjend - 1) in
  t.fjend.(f) <- t.jtail;
  t.fwend.(f) <- t.wtail;
  t.ftail <- t.ftail + 1;
  let now = Sim.now t.sim in
  let dur = t.config.fsync_ms in
  let done_at = Float.max now t.clock.busy_until +. dur in
  t.clock.busy_until <- done_at;
  t.clock.busy_ms <- t.clock.busy_ms +. dur;
  t.n_fsyncs <- t.n_fsyncs + 1;
  schedule t ~delay:(done_at -. now) t.complete

let flush t =
  t.flush_scheduled <- false;
  begin_fsync t

(* Thunks for the current epoch: a completion or flush scheduled before
   a crash finds the epoch moved on and does nothing. *)
let arm t =
  let epoch = t.epoch in
  t.complete <- (fun () -> if t.epoch = epoch then complete t);
  t.flush <- (fun () -> if t.epoch = epoch then flush t)

let create ~config ~sim ~timers =
  let t =
    {
      volatile = false;
      config;
      sim;
      timers;
      regs = [||];
      pages = [||];
      entries = 0;
      log_base = 0;
      log_top = 0;
      snap = None;
      jkind = [||];
      jindex = [||];
      ja = [||];
      jb = [||];
      jcmd = [||];
      jimage = [||];
      jhead = 0;
      jtail = 0;
      wk = [||];
      wt = [||];
      whead = 0;
      wtail = 0;
      fjend = [||];
      fwend = [||];
      fhead = 0;
      ftail = 0;
      complete = ignore;
      flush = ignore;
      flush_scheduled = false;
      clock = { busy_until = 0.0; busy_ms = 0.0; sync_wait_ms = 0.0 };
      epoch = 0;
      n_writes = 0;
      n_fsyncs = 0;
      n_syncs = 0;
      n_lost = 0;
    }
  in
  arm t;
  t

(* No call reaches its sim, timers or event thunks. *)
let volatile =
  let sim = Sim.create () in
  let config =
    { default_config with sync_mode = Sync_none; snapshot_threshold = 0 }
  in
  { (create ~config ~sim ~timers:(Timers.create sim)) with volatile = true }

let sync t k =
  if t.volatile then k ()
  else if t.config.sync_mode = Sync_none then begin
    (* free durability: apply synchronously, no event, no draw *)
    make_durable t t.jtail;
    t.n_syncs <- t.n_syncs + 1;
    k ()
  end
  else begin
    if t.wtail - t.whead = Array.length t.wk then begin
      let head = t.whead and tail = t.wtail and cap = next_cap t.wk in
      t.wk <- regrow t.wk ~fill:ignore ~head ~tail ~cap;
      t.wt <- regrow t.wt ~fill:0.0 ~head ~tail ~cap
    end;
    let i = t.wtail land (Array.length t.wk - 1) in
    t.wk.(i) <- k;
    t.wt.(i) <- Sim.now t.sim;
    t.wtail <- t.wtail + 1;
    if t.config.sync_mode = Sync_every then begin_fsync t
    else if not t.flush_scheduled then begin
      t.flush_scheduled <- true;
      schedule t ~delay:t.config.batch_window_ms t.flush
    end
  end

(* The continuation closure is built only for a device that waits. *)
let after t f a b = if t.volatile then f a b else sync t (fun () -> f a b)

(* ---- crash ----------------------------------------------------------- *)

let crash t =
  if not t.volatile then begin
    t.epoch <- t.epoch + 1;
    t.n_lost <- t.n_lost + (t.jtail - t.jhead);
    t.jhead <- t.jtail;
    Array.fill t.jimage 0 (Array.length t.jimage) [||];
    Array.fill t.wk 0 (Array.length t.wk) ignore;
    t.whead <- t.wtail;
    t.fhead <- t.ftail;
    t.flush_scheduled <- false;
    t.clock.busy_until <- Sim.now t.sim;
    arm t
  end

(* ---- recovery reads -------------------------------------------------- *)

let reg t idx = if idx < Array.length t.regs then t.regs.(idx) else 0
let log_base t = t.log_base
let log_top t = t.log_top
let snapshot t = t.snap
let durable_entries t = t.entries

let iter_entries t ~f =
  let p0 = t.log_base lsr page_bits in
  for i = t.log_base to t.log_top - 1 do
    let p = (i lsr page_bits) - p0 in
    if p < Array.length t.pages && t.pages.(p) != no_page then begin
      let pg = t.pages.(p) and o = i land page_mask in
      let cmd = pg.pcmd.(o) in
      if cmd != absent then f i ~a:pg.pa.(o) ~b:pg.pb.(o) cmd
    end
  done

let replay_cost_ms t =
  t.config.replay_ms_per_cmd *. float_of_int t.entries

(* ---- metrics --------------------------------------------------------- *)

type totals = {
  writes : int;
  fsyncs : int;
  busy_ms : float;
  lost_writes : int;
  syncs : int;
  sync_wait_ms : float;
}

let no_totals =
  {
    writes = 0;
    fsyncs = 0;
    busy_ms = 0.0;
    lost_writes = 0;
    syncs = 0;
    sync_wait_ms = 0.0;
  }

let totals t =
  {
    writes = t.n_writes;
    fsyncs = t.n_fsyncs;
    busy_ms = t.clock.busy_ms;
    lost_writes = t.n_lost;
    syncs = t.n_syncs;
    sync_wait_ms = t.clock.sync_wait_ms;
  }

let add_totals x y =
  {
    writes = x.writes + y.writes;
    fsyncs = x.fsyncs + y.fsyncs;
    busy_ms = x.busy_ms +. y.busy_ms;
    lost_writes = x.lost_writes + y.lost_writes;
    syncs = x.syncs + y.syncs;
    sync_wait_ms = x.sync_wait_ms +. y.sync_wait_ms;
  }
