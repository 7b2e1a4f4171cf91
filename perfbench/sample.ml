(* Order statistics and timing shared by every workload. *)

let now_s () = Int64.to_float (Gossip_util.Instrument.now_ns ()) /. 1e9

(* [time f] runs [f ()] and returns its result with the elapsed
   monotonic seconds. *)
let time f =
  let t0 = now_s () in
  let r = f () in
  (r, now_s () -. t0)

(* Linear interpolation between closest ranks (numpy's default); [nan]
   on no samples. *)
let quantile xs q =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let sum xs = Array.fold_left ( +. ) 0.0 xs
let min xs = Array.fold_left Float.min Float.infinity xs
let max xs = Array.fold_left Float.max Float.neg_infinity xs

(* Growable float buffer for per-operation samples. *)
type buf = { mutable data : float array; mutable len : int }

let buf () = { data = Array.make 1024 0.0; len = 0 }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (2 * b.len) 0.0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

let contents b = Array.sub b.data 0 b.len
