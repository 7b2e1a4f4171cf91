module Schedule = Gossip_protocol.Schedule
module Systolic = Gossip_protocol.Systolic

(* Every statistic runs the protocol on the Chunked kernel at items = n,
   one domain, exactly as [Engine] does. *)
let start p =
  let sched = Schedule.of_systolic p in
  (Schedule.tables ~domains:1 sched, Chunked.create (Schedule.n_vertices sched))

let arrival_times p ~horizon =
  let table, st = start p in
  let n = Chunked.n_vertices st in
  let arrival = Array.make_matrix n n max_int in
  for v = 0 to n - 1 do
    arrival.(v).(v) <- 0
  done;
  let round = ref 0 in
  while !round < horizon && not (Chunked.complete st) do
    Chunked.apply_senders ~domains:1 st (table !round);
    incr round;
    for v = 0 to n - 1 do
      for item = 0 to n - 1 do
        if arrival.(item).(v) = max_int && Chunked.knows st v item then
          arrival.(item).(v) <- !round
      done
    done
  done;
  arrival

type summary = {
  gossip_time : int option;
  broadcast_times : int array;
  mean_arrival : float;
  max_arrival : int;
  rounds_run : int;
}

let summarize ?horizon p =
  let n = Gossip_topology.Digraph.n_vertices (Systolic.graph p) in
  let horizon =
    match horizon with Some h -> h | None -> Engine.default_cap p
  in
  let arrival = arrival_times p ~horizon in
  let broadcast_times =
    Array.map
      (fun row -> Array.fold_left max 0 row)
      arrival
  in
  let finite = ref [] in
  Array.iter
    (fun row ->
      Array.iter (fun a -> if a < max_int then finite := a :: !finite) row)
    arrival;
  let count = List.length !finite in
  let mean_arrival =
    if count = 0 then 0.0
    else float_of_int (List.fold_left ( + ) 0 !finite) /. float_of_int count
  in
  let max_arrival =
    List.fold_left (fun acc a -> max acc a) 0 !finite
  in
  let complete = count = n * n in
  let rounds_run = min horizon (if complete then max_arrival else horizon) in
  {
    gossip_time = (if complete then Some max_arrival else None);
    broadcast_times;
    mean_arrival;
    max_arrival;
    rounds_run;
  }

let newly_informed p ~horizon =
  let table, st = start p in
  let prev = ref (Chunked.items_known st) in
  Array.init horizon (fun i ->
      Chunked.apply_senders ~domains:1 st (table i);
      let now = Chunked.items_known st in
      let delta = now - !prev in
      prev := now;
      delta)

type message_costs = { transmissions : int; useful : int; rounds : int }

let message_complexity ?horizon p =
  let horizon =
    match horizon with Some h -> h | None -> Engine.default_cap p
  in
  let table, st = start p in
  let transmissions = ref 0 and useful = ref 0 in
  let rounds = ref 0 in
  while !rounds < horizon && not (Chunked.complete st) do
    let round = Systolic.period_round p !rounds in
    let before = List.map (fun (_, y) -> Chunked.known_by st y) round in
    Chunked.apply_senders ~domains:1 st (table !rounds);
    List.iter2
      (fun (_, y) b ->
        incr transmissions;
        if Chunked.known_by st y > b then incr useful)
      round before;
    incr rounds
  done;
  { transmissions = !transmissions; useful = !useful; rounds = !rounds }
