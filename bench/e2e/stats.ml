(* Order statistics over samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an already sorted array: the smallest
   sample with at least [q] of the samples at or below it. *)
let rank_sorted s q =
  let n = Array.length s in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) in
    s.(max 0 (min (n - 1) (k - 1)))

let percentile a q = rank_sorted (sorted a) q

let mean a =
  let n = Array.length a in
  if n = 0 then nan else Array.fold_left ( +. ) 0. a /. float_of_int n

(* Quartiles exactly as Python's [statistics.quantiles(xs, n=4)] gives
   them (the default "exclusive" method), so the spreads reported here
   match the ones the acceptance check computes.  A single sample is
   its own quartiles. *)
let quartiles a =
  let d = sorted a in
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = i * m / 4 in
      let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median a =
  let _, m, _ = quartiles a in
  m

(* Interquartile range as a share of the median. *)
let rel_iqr a =
  let q1, m, q3 = quartiles a in
  if m = 0. then if q3 -. q1 = 0. then 0. else infinity
  else Float.abs ((q3 -. q1) /. m)

(* Mean of the samples without the highest [drop] share: one preemption
   of a microsecond-scale call by the host should not move its mean. *)
let trimmed_mean ?(drop = 0.01) a =
  let s = sorted a in
  let n = Array.length s - int_of_float (drop *. float_of_int (Array.length s)) in
  if n <= 0 then nan else Array.fold_left ( +. ) 0. (Array.sub s 0 n) /. float_of_int n
