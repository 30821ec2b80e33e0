(** Consensus checker (§4.2): validates that replicated state machines
    agree, beyond what client-observed linearizability can show. For
    every data record it collects the per-key version history H^r from
    each node — its applied sequence filtered to the key's writes
    ({!State_machine.key_history}) — and verifies that all histories
    share a common prefix — diverging prefixes mean two nodes
    committed different commands for the same position. *)

type violation = {
  key : Command.key;
  node_a : int;
  node_b : int;
  position : int;  (** index where the histories diverge *)
}

val common_prefix : Command.t list -> Command.t list -> (unit, int) result
(** [Ok ()] when one history is a prefix of the other; [Error i] gives
    the first diverging index. *)

val check_key :
  key:Command.key -> histories:(int * Command.t list) list -> violation list
(** Pairwise common-prefix validation of one key's histories
    ([node_id, writers oldest-first]). *)

val check :
  state_machines:(int * State_machine.t) list ->
  keys:Command.key list ->
  violation list
(** Collect histories from each node's state machine, one pass over
    each applied sequence, and check every key. *)

val pp_violation : Format.formatter -> violation -> unit
