type kind =
  | Mm1
  | Md1
  | Mg1 of { service_cv2 : float }
  | Gg1 of { arrival_cv2 : float; service_cv2 : float }

let is_stable ~lambda ~mu = lambda > 0.0 && lambda < mu

let wait_time kind ~lambda ~mu =
  if lambda <= 0.0 then 0.0
  else if not (is_stable ~lambda ~mu) then infinity
  else
    let rho = lambda /. mu in
    match kind with
    | Mm1 -> rho *. rho /. (lambda *. (1.0 -. rho))
    | Md1 -> rho /. (2.0 *. mu *. (1.0 -. rho))
    | Mg1 { service_cv2 } ->
        (* Pollaczek–Khinchine with sigma^2 = cv2 / mu^2:
           Wq = (lambda^2 sigma^2 + rho^2) / (2 lambda (1 - rho)) *)
        let sigma2 = service_cv2 /. (mu *. mu) in
        ((lambda *. lambda *. sigma2) +. (rho *. rho))
        /. (2.0 *. lambda *. (1.0 -. rho))
    | Gg1 { arrival_cv2 = ca; service_cv2 = cs } ->
        rho *. rho
        *. (1.0 +. cs)
        *. (ca +. (rho *. rho *. cs))
        /. (2.0 *. lambda *. (1.0 -. rho) *. (1.0 +. (rho *. rho *. cs)))
