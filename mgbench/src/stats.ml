(* Order statistics for timings. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* The lower quartile, interpolated between order statistics. *)
let lower_quartile xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = float_of_int (n - 1) /. 4.0 in
    let i = int_of_float pos in
    if i + 1 >= n then a.(i) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))

(* A tail percentile that has enough samples behind it to mean
   something: the highest nearest-rank percentile, at most the 99th,
   that still has at least 10 samples above it.  When that percentile
   would not lie above the median (fewer than 21 samples) there is no
   tail to speak of and the maximum is reported, flagged by
   [beyond_count] < 10. *)
type tail = {
  value : float;
  pct : float;  (** The percentile actually reported, in (0, 100]. *)
  samples : int;
  beyond_count : int;  (** Samples strictly ranked above the reported one. *)
}

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then { value = nan; pct = nan; samples = 0; beyond_count = 0 }
  else
    let p99_rank = ((99 * n) + 99) / 100 in
    let rank = min p99_rank (n - 10) in
    let rank = if 2 * rank > n then rank else n in
    { value = a.(rank - 1);
      pct = 100.0 *. float_of_int rank /. float_of_int n;
      samples = n;
      beyond_count = n - rank }
