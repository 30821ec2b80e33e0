type tag = int * int

let zero_tag = (0, -1)
let next_tag (ts, _) ~self = (ts + 1, self)

type 'v register = { mutable tag : tag; mutable value : 'v }

let fresh_register ~empty = { tag = zero_tag; value = empty }

let lookup table ~empty key =
  match Hashtbl.find_opt table key with
  | Some r -> r
  | None ->
      let r = fresh_register ~empty in
      Hashtbl.add table key r;
      r

let adopt r ~tag ~value =
  if tag > r.tag then begin
    r.tag <- tag;
    r.value <- value
  end

type phase = Query | Store

type 'v t = {
  spec : Quorum.spec;
  mutable phase : phase;
  mutable best_tag : tag;
  mutable best_value : 'v;
  mutable quorum : Quorum.t;
}

let create spec ~self ~local_tag ~local_value =
  let quorum = Quorum.create spec in
  Quorum.ack quorum self;
  { spec; phase = Query; best_tag = local_tag; best_value = local_value; quorum }

let phase t = t.phase
let satisfied t = Quorum.satisfied t.quorum
let best t = (t.best_tag, t.best_value)

let query_ack t ~src ~tag ~value =
  match t.phase with
  | Store -> false
  | Query ->
      if tag > t.best_tag then begin
        t.best_tag <- tag;
        t.best_value <- value
      end;
      Quorum.ack t.quorum src;
      Quorum.satisfied t.quorum

let begin_store t ~self ~tag ~value =
  t.phase <- Store;
  t.best_tag <- tag;
  t.best_value <- value;
  let quorum = Quorum.create t.spec in
  Quorum.ack quorum self;
  t.quorum <- quorum

let store_ack t ~src =
  match t.phase with
  | Query -> false
  | Store ->
      Quorum.ack t.quorum src;
      Quorum.satisfied t.quorum
