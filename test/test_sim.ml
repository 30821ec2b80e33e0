let test_schedule_order () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule_at sim ~time:2.0 (fun () -> log := "b" :: !log));
  ignore (Sim.schedule_at sim ~time:1.0 (fun () -> log := "a" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "order" [ "a"; "b" ] (List.rev !log)

let test_clock_advances () =
  let sim = Sim.create () in
  let seen = ref [] in
  ignore (Sim.schedule_at sim ~time:5.0 (fun () -> seen := Sim.now sim :: !seen));
  ignore (Sim.schedule_at sim ~time:10.0 (fun () -> seen := Sim.now sim :: !seen));
  Sim.run sim;
  Alcotest.(check (list (float 0.0))) "clock at events" [ 5.0; 10.0 ] (List.rev !seen)

let test_schedule_after () =
  let sim = Sim.create () in
  let fired_at = ref 0.0 in
  ignore
    (Sim.schedule_at sim ~time:3.0 (fun () ->
         ignore (Sim.schedule_after sim ~delay:2.0 (fun () -> fired_at := Sim.now sim))));
  Sim.run sim;
  Alcotest.(check (float 1e-9)) "relative" 5.0 !fired_at

let test_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule_at sim ~time:1.0 (fun () -> fired := true) in
  Sim.cancel sim h;
  Sim.run sim;
  Alcotest.(check bool) "cancelled" false !fired;
  (* cancelling again — or cancelling [nil] — is a no-op, even after
     the slot was recycled *)
  Sim.cancel sim h;
  Sim.cancel sim Sim.nil;
  Alcotest.(check bool) "nil is nil" true (Sim.is_nil Sim.nil)

let test_stale_handle_ignored () =
  (* a handle kept across its event's firing must not cancel the
     slot's next tenant (generation counters make it stale) *)
  let sim = Sim.create () in
  let h1 = Sim.schedule_at sim ~time:1.0 (fun () -> ()) in
  Sim.run sim;
  let fired = ref false in
  ignore (Sim.schedule_at sim ~time:2.0 (fun () -> fired := true));
  Sim.cancel sim h1;
  Sim.run sim;
  Alcotest.(check bool) "second event still fired" true !fired

let test_run_until_horizon () =
  let sim = Sim.create () in
  let fired = ref [] in
  List.iter
    (fun t -> ignore (Sim.schedule_at sim ~time:t (fun () -> fired := t :: !fired)))
    [ 1.0; 2.0; 3.0; 4.0 ];
  Sim.run_until sim 2.5;
  Alcotest.(check (list (float 0.0))) "only before horizon" [ 1.0; 2.0 ] (List.rev !fired);
  Alcotest.(check (float 0.0)) "clock at horizon" 2.5 (Sim.now sim);
  Sim.run_until sim 10.0;
  Alcotest.(check int) "rest fired" 4 (List.length !fired)

let test_past_scheduling_rejected () =
  let sim = Sim.create () in
  Sim.run_until sim 5.0;
  Alcotest.check_raises "past" (Invalid_argument "Sim.schedule_at: time 1 < now 5")
    (fun () -> ignore (Sim.schedule_at sim ~time:1.0 (fun () -> ())))

let test_negative_delay_clamped () =
  let sim = Sim.create () in
  Sim.run_until sim 5.0;
  let fired = ref false in
  ignore (Sim.schedule_after sim ~delay:(-3.0) (fun () -> fired := true));
  Sim.run sim;
  Alcotest.(check bool) "fired now" true !fired

let test_cascading_events () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      ignore
        (Sim.schedule_after sim ~delay:1.0 (fun () ->
             incr count;
             chain (n - 1)))
  in
  chain 100;
  Sim.run sim;
  Alcotest.(check int) "all fired" 100 !count;
  Alcotest.(check (float 0.0)) "time" 100.0 (Sim.now sim)

let test_step () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim ~time:1.0 (fun () -> ()));
  Alcotest.(check bool) "one step" true (Sim.step sim);
  Alcotest.(check bool) "exhausted" false (Sim.step sim)

let test_pending () =
  let sim = Sim.create () in
  ignore (Sim.schedule_at sim ~time:1.0 (fun () -> ()));
  ignore (Sim.schedule_at sim ~time:2.0 (fun () -> ()));
  Alcotest.(check int) "two pending" 2 (Sim.pending sim)

(* --- zero-delay lane ------------------------------------------------ *)

let test_immediate_runs_before_later_events () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule_at sim ~time:1.0 (fun () -> log := "later" :: !log));
  ignore (Sim.schedule_immediate sim (fun () -> log := "now" :: !log));
  Sim.run sim;
  Alcotest.(check (list string)) "immediate first" [ "now"; "later" ]
    (List.rev !log);
  Alcotest.(check (float 0.0)) "clock stayed for immediate" 1.0 (Sim.now sim)

let test_immediate_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  List.iter
    (fun tag -> ignore (Sim.schedule_immediate sim (fun () -> log := tag :: !log)))
    [ "a"; "b"; "c" ];
  Sim.run sim;
  Alcotest.(check (list string)) "lane is FIFO" [ "a"; "b"; "c" ] (List.rev !log)

let test_immediate_interleaves_with_same_time_heap () =
  (* schedule_at at the current instant routes to the lane; either way
     the merged order must follow scheduling order at equal times *)
  let sim = Sim.create () in
  let log = ref [] in
  ignore
    (Sim.schedule_at sim ~time:2.0 (fun () ->
         ignore (Sim.schedule_immediate sim (fun () -> log := "i1" :: !log));
         ignore (Sim.schedule_at sim ~time:2.0 (fun () -> log := "z1" :: !log));
         ignore (Sim.schedule_immediate sim (fun () -> log := "i2" :: !log))));
  Sim.run sim;
  Alcotest.(check (list string)) "scheduling order at one instant"
    [ "i1"; "z1"; "i2" ] (List.rev !log)

let test_immediate_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore
    (Sim.schedule_at sim ~time:1.0 (fun () ->
         let h = Sim.schedule_immediate sim (fun () -> fired := true) in
         Sim.cancel sim h));
  Sim.run sim;
  Alcotest.(check bool) "cancelled lane event" false !fired

let test_immediate_counts_as_pending_and_step () =
  let sim = Sim.create () in
  ignore (Sim.schedule_immediate sim (fun () -> ()));
  ignore (Sim.schedule_at sim ~time:1.0 (fun () -> ()));
  Alcotest.(check int) "lane + heap pending" 2 (Sim.pending sim);
  Alcotest.(check bool) "step lane" true (Sim.step sim);
  Alcotest.(check bool) "step heap" true (Sim.step sim);
  Alcotest.(check bool) "exhausted" false (Sim.step sim)

(* --- cancelled-event retention -------------------------------------- *)

let test_mass_cancel_empties_heap () =
  (* a leader re-arming 10k timers and cancelling them all must not
     leave dead entries pinned in the heap: each cancel removes its
     entry at once *)
  let sim = Sim.create () in
  let n = 10_000 in
  let handles =
    Array.init n (fun i ->
        Sim.schedule_at sim ~time:(1.0 +. float_of_int i) (fun () ->
            Alcotest.fail "cancelled timer fired"))
  in
  Alcotest.(check int) "all pending" n (Sim.pending sim);
  Array.iter (fun h -> Sim.cancel sim h) handles;
  Alcotest.(check int) "heap empty" 0 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "no events fired" 0 (Sim.events_fired sim)

let test_cancel_interleaved_survivors_fire_in_order () =
  (* cancelling every other timer, each removal re-sifting the heap,
     must not disturb the survivors' firing order or clock *)
  let sim = Sim.create () in
  let n = 2_000 in
  let log = ref [] in
  let handles =
    Array.init n (fun i ->
        Sim.schedule_at sim ~time:(1.0 +. float_of_int i) (fun () ->
            log := i :: !log))
  in
  for i = 0 to n - 1 do
    if i mod 2 = 0 then Sim.cancel sim handles.(i)
  done;
  Sim.run sim;
  let expect = List.init (n / 2) (fun k -> (2 * k) + 1) in
  Alcotest.(check (list int)) "odd timers in order" expect (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last survivor"
    (1.0 +. float_of_int (n - 1))
    (Sim.now sim)

let test_immediate_cascade_runs_same_instant () =
  let sim = Sim.create () in
  let depth = ref 0 in
  let rec go n =
    if n > 0 then
      ignore
        (Sim.schedule_immediate sim (fun () ->
             incr depth;
             go (n - 1)))
  in
  ignore (Sim.schedule_at sim ~time:3.0 (fun () -> go 50));
  Sim.run sim;
  Alcotest.(check int) "all ran" 50 !depth;
  Alcotest.(check (float 0.0)) "no time passed" 3.0 (Sim.now sim)

(* --- reference model -------------------------------------------------- *)

(* Random programs against a list model of the scheduler. Each queued
   entry carries its (time, seq) and whether it went to the zero-delay
   lane (scheduled at the current instant). The earliest entry by
   (time, seq) runs next. Cancelling a heap entry removes it at once; a
   cancelled lane entry stays queued, and counted in [pending], until
   it reaches the front and is skipped. Times come from a small set so
   that ties and same-instant lane entries are common. *)
type model_entry = {
  id : int;
  time : float;
  seq : int;
  lane : bool;
  mutable cancelled : bool;
}

let prop_matches_model =
  QCheck.Test.make ~name:"scheduler matches list model" ~count:500
    QCheck.(list_of_size Gen.(0 -- 200) (int_bound 9999))
    (fun ops ->
      let sim = Sim.create () in
      let handles = Hashtbl.create 64 (* id -> handle *) in
      let fired = ref [] and expect_fired = ref [] in
      let clock = ref 0.0 and next_seq = ref 0 in
      let queue = ref [] in
      let ok = ref true in
      let schedule ~lane time sched =
        let id = Hashtbl.length handles in
        let h = sched (fun () -> fired := (id, Sim.now sim) :: !fired) in
        Hashtbl.replace handles id h;
        queue := { id; time; seq = !next_seq; lane; cancelled = false } :: !queue;
        incr next_seq
      in
      let earliest () =
        List.fold_left
          (fun b e ->
            match b with
            | Some b when (b.time, b.seq) < (e.time, e.seq) -> Some b
            | _ -> Some e)
          None !queue
      in
      let run_next e =
        queue := List.filter (fun e' -> e'.id <> e.id) !queue;
        clock := e.time;
        if not e.cancelled then expect_fired := (e.id, e.time) :: !expect_fired
      in
      List.iter
        (fun op ->
          let arg = op / 10 in
          (match op mod 10 with
          | 0 | 1 | 2 ->
              let time = !clock +. (0.5 *. float_of_int (arg mod 4)) in
              schedule ~lane:(time = !clock) time (fun f ->
                  Sim.schedule_at sim ~time f)
          | 3 -> schedule ~lane:true !clock (Sim.schedule_immediate sim)
          | 4 | 5 | 6 ->
              let n = Hashtbl.length handles in
              if n = 0 || arg mod 8 = 0 then Sim.cancel sim Sim.nil
              else begin
                let id = arg mod n in
                Sim.cancel sim (Hashtbl.find handles id);
                queue :=
                  List.filter_map
                    (fun e ->
                      if e.id <> id then Some e
                      else if e.lane then begin
                        e.cancelled <- true;
                        Some e
                      end
                      else None)
                    !queue
              end
          | 7 | 8 ->
              let expect = earliest () in
              Option.iter run_next expect;
              if Sim.step sim <> Option.is_some expect then ok := false
          | _ ->
              let horizon = !clock +. (0.5 *. float_of_int ((arg mod 5) - 1)) in
              let rec go () =
                match earliest () with
                | Some e
                  when List.exists (fun e -> e.lane) !queue || e.time <= horizon
                  ->
                    run_next e;
                    go ()
                | _ -> ()
              in
              go ();
              if horizon > !clock then clock := horizon;
              Sim.run_until sim horizon);
          let live id = List.exists (fun e -> e.id = id && not e.cancelled) !queue in
          if
            !fired <> !expect_fired
            || Sim.now sim <> !clock
            || Sim.pending sim <> List.length !queue
            || Hashtbl.fold
                 (fun id h bad -> bad || Sim.live sim h <> live id)
                 handles false
          then ok := false)
        ops;
      !ok)

let suite =
  ( "sim",
    [
      Alcotest.test_case "schedule order" `Quick test_schedule_order;
      Alcotest.test_case "clock advances" `Quick test_clock_advances;
      Alcotest.test_case "schedule_after is relative" `Quick test_schedule_after;
      Alcotest.test_case "cancel" `Quick test_cancel;
      Alcotest.test_case "stale handle ignored" `Quick test_stale_handle_ignored;
      Alcotest.test_case "mass cancel empties heap" `Quick
        test_mass_cancel_empties_heap;
      Alcotest.test_case "cancel interleaved, survivors in order" `Quick
        test_cancel_interleaved_survivors_fire_in_order;
      Alcotest.test_case "run_until horizon" `Quick test_run_until_horizon;
      Alcotest.test_case "past scheduling rejected" `Quick test_past_scheduling_rejected;
      Alcotest.test_case "negative delay clamped" `Quick test_negative_delay_clamped;
      Alcotest.test_case "cascading events" `Quick test_cascading_events;
      Alcotest.test_case "step" `Quick test_step;
      Alcotest.test_case "pending" `Quick test_pending;
      Alcotest.test_case "immediate before later events" `Quick
        test_immediate_runs_before_later_events;
      Alcotest.test_case "immediate FIFO" `Quick test_immediate_fifo;
      Alcotest.test_case "immediate interleaves with same-time heap" `Quick
        test_immediate_interleaves_with_same_time_heap;
      Alcotest.test_case "immediate cancel" `Quick test_immediate_cancel;
      Alcotest.test_case "immediate pending/step" `Quick
        test_immediate_counts_as_pending_and_step;
      Alcotest.test_case "immediate cascade same instant" `Quick
        test_immediate_cascade_runs_same_instant;
      QCheck_alcotest.to_alcotest prop_matches_model;
    ] )
