type violation = {
  key : Command.key;
  node_a : int;
  node_b : int;
  position : int;
}

let common_prefix a b =
  let rec go i a b =
    match (a, b) with
    | [], _ | _, [] -> Ok ()
    | x :: xs, y :: ys -> if Command.equal x y then go (i + 1) xs ys else Error i
  in
  go 0 a b

let check_key ~key ~histories =
  let rec pairs = function
    | [] -> []
    | (na, ha) :: rest ->
        List.filter_map
          (fun (nb, hb) ->
            match common_prefix ha hb with
            | Ok () -> None
            | Error position -> Some { key; node_a = na; node_b = nb; position })
          rest
        @ pairs rest
  in
  pairs histories

let check ~state_machines ~keys =
  let nodes =
    List.map (fun (node, sm) -> (node, State_machine.histories sm)) state_machines
  in
  List.concat_map
    (fun key ->
      check_key ~key
        ~histories:(List.map (fun (node, history) -> (node, history key)) nodes))
    keys

let pp_violation ppf v =
  Format.fprintf ppf
    "key %d: nodes %d and %d diverge at version %d" v.key v.node_a v.node_b
    v.position
