(* A fixed reference workload that shares no code with the program
   under test: hashtable updates, random reads and writes over a 16 MB
   array, short-lived closures and boxed floats — the kind of work the
   simulator's event loop does. Timing it next to the program tells how
   fast the host runs at that moment.

   On a shared host the speed of one core drifts by 20-30% within
   seconds. The drift is common to everything in the process, so the
   benchmark reports its wall times scaled by [nominal / measured] of
   the reference timed alongside them: a time "at the reference host
   speed". The raw times are printed beside the scaled ones. The
   reference cannot absorb a gain in the program, since it runs none of
   the program's code. *)

(* The 16 MB array lives outside the OCaml heap, and the table is built
   afresh by every call, so the reference leaves nothing live behind
   that would change the program's GC work. *)
let cells = 1 lsl 21
let arr = Bigarray.(Array1.create int c_layout cells)
let () = Bigarray.Array1.fill arr 0
let state = ref 12345
let sink = ref 0.0

let run iters =
  let rnd () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  let tbl : (int, float * int) Hashtbl.t = Hashtbl.create 4096 in
  let q = Queue.create () in
  for i = 1 to iters do
    let k = rnd () land (cells - 1) in
    Bigarray.Array1.unsafe_set arr k (Bigarray.Array1.unsafe_get arr k + i);
    Hashtbl.replace tbl (k land 0x3FFF) (float_of_int i, k);
    Queue.push (fun () -> sink := !sink +. float_of_int k) q;
    if Queue.length q > 64 then (Queue.pop q) ();
    match Hashtbl.find_opt tbl (rnd () land 0x3FFF) with
    | Some (f, _) -> sink := !sink +. f
    | None -> ()
  done;
  ignore (Sys.opaque_identity !sink)

let seconds iters =
  let t0 = Timed.now_ns () in
  run iters;
  float_of_int (Timed.now_ns () - t0) /. 1e9

(* Timed before and after every repeated run; [rep_nominal_s] is its
   median on a 2-core Xeon VM at 2.0 GHz, the host the bounds were set
   on, so scaled times read close to raw ones there. *)
let rep_iters = 150_000
let rep_nominal_s = 0.057
