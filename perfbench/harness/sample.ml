type summary = {
  n : int;
  median : float;
  p95 : float;
  beyond_p95 : int;  (** samples strictly above the p95 *)
  mean : float;
}

let summarize xs =
  if Array.length xs = 0 then invalid_arg "Sample.summarize: no samples";
  let p95 = Mope_stats.Summary.percentile xs 95.0 in
  { n = Array.length xs;
    median = Mope_stats.Summary.median xs;
    p95;
    beyond_p95 = Array.fold_left (fun acc x -> if x > p95 then acc + 1 else acc) 0 xs;
    mean = Mope_stats.Summary.mean xs }

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so quartiles here match the ones the acceptance check takes. *)
let quartiles xs =
  let d = Array.copy xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld < 2 then invalid_arg "Sample.quartiles: need at least two values";
  let m = ld + 1 in
  let q i =
    let j = i * m / 4 in
    let j = if j < 1 then 1 else if j > ld - 1 then ld - 1 else j in
    let delta = (i * m) - (j * 4) in
    ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
  in
  (q 1, q 2, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, med, q3 = quartiles xs in
  if Float.equal med 0.0 then 0.0 else (q3 -. q1) /. Float.abs med

let ratio a b = if Float.equal b 0.0 then 0.0 else a /. b

