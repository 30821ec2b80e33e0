let pool_of = function Some p -> p | None -> Pool.default ()

let map ?pool f xs =
  Pool.run_list (pool_of pool) (List.map (fun x () -> f x) xs)
