(* Raw samples and exact order statistics.

   Percentiles come from the sorted samples themselves (nearest rank),
   never from [Obs.Histogram]'s 12%-wide buckets, and a percentile is
   refused unless at least [min_beyond] samples lie strictly above its
   rank: the 75th percentile needs 40 samples, the median 20. *)

type t = {
  mutable data : float array;
  mutable n : int;
}

let create () = { data = Array.make 256 0.; n = 0 }

let add t x =
  if t.n = Array.length t.data then begin
    let bigger = Array.make (2 * t.n) 0. in
    Array.blit t.data 0 bigger 0 t.n;
    t.data <- bigger
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n
let min_beyond = 10

let sorted t =
  let a = Array.sub t.data 0 t.n in
  Array.sort Float.compare a;
  a

(* Nearest rank: the smallest sample with at least a [p] share of the
   samples at or below it. *)
let percentile t p =
  let a = sorted t in
  let n = Array.length a in
  let rank = max 1 (int_of_float (Float.ceil (p *. float_of_int n))) in
  if n - rank < min_beyond then None else Some a.(rank - 1)

(* Set-up times and throughput readings are few and all kept: a plain
   median, without the tail rule. *)
let median_exn t =
  let a = sorted t in
  let n = Array.length a in
  if n = 0 then invalid_arg "Sample.median_exn: no samples";
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.
