(* The running moments live in one float array, [m], indexed by the
   constants below: a mutable float field of this mixed record would
   box on every store, five boxes per [add]. Welford running moments:
   the textbook sumsq - n*m^2 form cancels catastrophically once
   samples sit on a large offset (virtual-time stamps late in a run),
   so the second moment is accumulated as the centered [m2] instead.
   [sum] is kept alongside because [mean] as sum/n is the historically
   pinned value in fixed-seed outputs. *)
let slot_sum = 0
let slot_wmean = 1
let slot_m2 = 2
let slot_lo = 3
let slot_hi = 4

type t = {
  mutable data : float array;
  mutable n : int;
  m : float array;
  mutable sorted_n : int;
      (* [data.(0 .. sorted_n-1)] is sorted; [data.(sorted_n .. n-1)]
         is the unsorted tail appended since the last query *)
}

let create () =
  {
    data = [||];
    n = 0;
    m = [| 0.0; 0.0; 0.0; infinity; neg_infinity |];
    sorted_n = 0;
  }

let add t x =
  if t.n >= Array.length t.data then begin
    let cap = Int.max 64 (2 * Array.length t.data) in
    let nd = Array.make cap 0.0 in
    Array.blit t.data 0 nd 0 t.n;
    t.data <- nd
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1;
  let m = t.m in
  m.(slot_sum) <- m.(slot_sum) +. x;
  let d = x -. m.(slot_wmean) in
  m.(slot_wmean) <- m.(slot_wmean) +. (d /. float_of_int t.n);
  m.(slot_m2) <- m.(slot_m2) +. (d *. (x -. m.(slot_wmean)));
  if x < m.(slot_lo) then m.(slot_lo) <- x;
  if x > m.(slot_hi) then m.(slot_hi) <- x

let add_all t xs = List.iter (add t) xs
let count t = t.n
let mean t = if t.n = 0 then nan else t.m.(slot_sum) /. float_of_int t.n

let variance t =
  if t.n < 2 then nan else t.m.(slot_m2) /. float_of_int (t.n - 1)

let stddev t = sqrt (variance t)
let min t = if t.n = 0 then nan else t.m.(slot_lo)
let max t = if t.n = 0 then nan else t.m.(slot_hi)

(* Reporting interleaves [add] and [percentile] (per-region tables,
   CDFs, summaries), so re-sorting all [n] samples on every query is
   O(n log n) each time. Instead keep the prefix sorted across
   queries: sort only the tail appended since the last query and merge
   it in — O(k log k + n) for a tail of k new samples. *)
let ensure_sorted t =
  if t.sorted_n < t.n then begin
    if t.sorted_n = 0 then begin
      let view = Array.sub t.data 0 t.n in
      Array.sort Float.compare view;
      Array.blit view 0 t.data 0 t.n
    end
    else begin
      let tail = Array.sub t.data t.sorted_n (t.n - t.sorted_n) in
      Array.sort Float.compare tail;
      (* merge sorted prefix and tail backwards, in place *)
      let i = ref (t.sorted_n - 1) and j = ref (Array.length tail - 1) in
      let k = ref (t.n - 1) in
      while !j >= 0 do
        if !i >= 0 && Float.compare t.data.(!i) tail.(!j) > 0 then begin
          t.data.(!k) <- t.data.(!i);
          decr i
        end
        else begin
          t.data.(!k) <- tail.(!j);
          decr j
        end;
        decr k
      done
    end;
    t.sorted_n <- t.n
  end

let percentile t p =
  if t.n = 0 then nan
  else begin
    ensure_sorted t;
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = p /. 100.0 *. float_of_int (t.n - 1) in
    let lo_idx = int_of_float (Float.floor rank) in
    let hi_idx = Stdlib.min (t.n - 1) (lo_idx + 1) in
    let frac = rank -. float_of_int lo_idx in
    t.data.(lo_idx) +. (frac *. (t.data.(hi_idx) -. t.data.(lo_idx)))
  end

let median t = percentile t 50.0

(* Quantiles through [percentile], so the two agree by construction:
   nearest-rank rounding here used to disagree with [percentile]'s
   linear interpolation at small n. *)
let cdf t ~points =
  if t.n = 0 || points <= 0 then []
  else
    List.init points (fun i ->
        let q = float_of_int (i + 1) /. float_of_int points in
        (percentile t (q *. 100.0), q))

let histogram t ~bins =
  if t.n = 0 || bins <= 0 then []
  else begin
    let lo = t.m.(slot_lo) and hi = t.m.(slot_hi) in
    let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
    let counts = Array.make bins 0 in
    for i = 0 to t.n - 1 do
      let b = int_of_float ((t.data.(i) -. lo) /. width) in
      let b = Stdlib.max 0 (Stdlib.min (bins - 1) b) in
      counts.(b) <- counts.(b) + 1
    done;
    List.init bins (fun b ->
        ( lo +. (float_of_int b *. width),
          lo +. (float_of_int (b + 1) *. width),
          counts.(b) ))
  end

let samples t =
  ensure_sorted t;
  Array.sub t.data 0 t.n

let merge a b =
  let t = create () in
  for i = 0 to a.n - 1 do
    add t a.data.(i)
  done;
  for i = 0 to b.n - 1 do
    add t b.data.(i)
  done;
  t

let pp_summary ppf t =
  if t.n = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.3f p50=%.3f p99=%.3f min=%.3f max=%.3f"
      t.n (mean t) (median t) (percentile t 99.0) (min t) (max t)
