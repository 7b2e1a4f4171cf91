(* One process-wide knob: the CLI's --domains flag (or a library user)
   sets it once and every parallel loop in the stack picks it up without
   threading a parameter through each layer. *)
let default_override = Atomic.make None

let set_default_domains d =
  (match d with
  | Some d when d < 1 -> invalid_arg "Parallel.set_default_domains: d < 1"
  | _ -> ());
  Atomic.set default_override d

let default_domains () = Atomic.get default_override

let recommended_domains () =
  match Atomic.get default_override with
  | Some d -> d
  | None ->
      let cpus =
        match Domain.recommended_domain_count () with
        | c when c > 0 -> c
        | _ -> 1
      in
      max 1 (min 8 (cpus - 1))

(* Per-worker busy time of the last parallel call, as gauges: a skewed
   block split shows up as one worker's busy-ns dwarfing the others'
   (utilization = mean busy / max busy, 1.0 = perfectly balanced).
   Gated on the same switches as span timing — the clocks are only read
   and the registry only touched when telemetry is on, so untraced
   per-round reduces at small n pay nothing. *)
let timed_workers () = Instrument.enabled () || Instrument.tracing ()

let publish_busy busy_ns workers =
  let total = Array.fold_left ( +. ) 0.0 busy_ns in
  let maxb = Array.fold_left Float.max 0.0 busy_ns in
  Array.iteri
    (fun w b ->
      Instrument.set_gauge (Printf.sprintf "parallel.worker_busy_ms.%d" w)
        (b /. 1e6))
    busy_ns;
  Instrument.set_gauge "parallel.utilization"
    (if maxb > 0.0 then total /. (float_of_int workers *. maxb) else 1.0)

(* Static chunking: worker [w] handles indices with [i mod workers = w].
   Interleaving balances load when costs vary smoothly across the index
   range (e.g. vertex blocks of growing size). *)
let init ?domains n f =
  let workers = match domains with Some d -> max 1 d | None -> recommended_domains () in
  if n <= 0 then [||]
  else if workers = 1 || n < 4 then Array.init n f
  else begin
    Instrument.add "parallel.domain-spawns" (workers - 1);
    let timed = timed_workers () in
    let busy_ns = if timed then Array.make workers 0.0 else [||] in
    let results = Array.make n None in
    let work w () =
      (* Emitted from inside the worker, so the event's [dom] field is
         stamped with the worker's own domain id. *)
      if Instrument.tracing () then
        Instrument.event "parallel.worker"
          ~attrs:
            [
              ("worker", Json.Int w);
              ("workers", Json.Int workers);
              ("items", Json.Int n);
            ];
      let t0 = if timed then Instrument.now_ns () else 0L in
      let i = ref w in
      while !i < n do
        results.(!i) <- Some (f !i);
        i := !i + workers
      done;
      if timed then
        busy_ns.(w) <- Int64.to_float (Int64.sub (Instrument.now_ns ()) t0)
    in
    let handles =
      List.init (workers - 1) (fun w -> Domain.spawn (work (w + 1)))
    in
    work 0 ();
    List.iter Domain.join handles;
    if timed then publish_busy busy_ns workers;
    Array.map
      (function Some x -> x | None -> assert false (* all indices covered *))
      results
  end

let map ?domains f arr = init ?domains (Array.length arr) (fun i -> f arr.(i))

(* Fused map-reduce: each worker folds its strided slice into a local
   accumulator, and the per-worker partials are combined in worker order.
   Nothing of size [n] is ever materialized.  Workers fold different
   interleavings of the index range, so [combine] must be associative and
   commutative for the result to be domain-count independent. *)
let reduce ?domains n f combine init =
  let workers = match domains with Some d -> max 1 d | None -> recommended_domains () in
  if n <= 0 then init
  else if workers = 1 || n < 4 then begin
    let acc = ref init in
    for i = 0 to n - 1 do
      acc := combine !acc (f i)
    done;
    !acc
  end
  else begin
    Instrument.add "parallel.domain-spawns" (workers - 1);
    let timed = timed_workers () in
    let busy_ns = if timed then Array.make workers 0.0 else [||] in
    let work w () =
      if Instrument.tracing () then
        Instrument.event "parallel.worker"
          ~attrs:
            [
              ("worker", Json.Int w);
              ("workers", Json.Int workers);
              ("items", Json.Int n);
            ];
      let t0 = if timed then Instrument.now_ns () else 0L in
      let acc = ref init in
      let i = ref w in
      while !i < n do
        acc := combine !acc (f !i);
        i := !i + workers
      done;
      if timed then
        busy_ns.(w) <- Int64.to_float (Int64.sub (Instrument.now_ns ()) t0);
      !acc
    in
    let handles =
      List.init (workers - 1) (fun w -> Domain.spawn (work (w + 1)))
    in
    let first = work 0 () in
    let res =
      List.fold_left (fun acc h -> combine acc (Domain.join h)) first handles
    in
    if timed then publish_busy busy_ns workers;
    res
  end

(* A few blocks per worker keeps the strided distribution balanced when
   block costs differ. *)
let reduce_blocks ?domains n f combine init =
  let workers = match domains with Some d -> max 1 d | None -> recommended_domains () in
  let nblocks = max 1 (min n (workers * 4)) in
  reduce ~domains:workers nblocks
    (fun b -> f (b * n / nblocks) ((b + 1) * n / nblocks))
    combine init

let max_float ?domains f arr =
  reduce ?domains (Array.length arr) (fun i -> f arr.(i)) Float.max neg_infinity
