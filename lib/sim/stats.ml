type t = {
  mutable size : int;
  mutable mean_acc : float;
  mutable low : float;
  mutable high : float;
}

let create () = { size = 0; mean_acc = 0.; low = infinity; high = neg_infinity }

(* Running mean (Welford's update): no float sum to lose precision in
   over long runs. *)
let add t x =
  t.size <- t.size + 1;
  t.mean_acc <- t.mean_acc +. ((x -. t.mean_acc) /. float_of_int t.size);
  if x < t.low then t.low <- x;
  if x > t.high then t.high <- x

let count t = t.size
let mean t = if t.size = 0 then 0. else t.mean_acc
let min_value t = if t.size = 0 then 0. else t.low
let max_value t = if t.size = 0 then 0. else t.high
