module Protocol = Gossip_protocol.Protocol
module Schedule = Gossip_protocol.Schedule
module Systolic = Gossip_protocol.Systolic

type outcome = {
  completed_at : int option;
  rounds_run : int;
  coverage : float;
}

let run_protocol p =
  let n = Gossip_topology.Digraph.n_vertices (Protocol.graph p) in
  let st = Chunked.create n in
  let apply = Chunked.arc_applier st in
  let completed = ref None in
  let i = ref 0 in
  let total = Protocol.length p in
  while !completed = None && !i < total do
    apply (Protocol.round p !i);
    incr i;
    if Chunked.complete st then completed := Some !i
  done;
  { completed_at = !completed; rounds_run = !i; coverage = Chunked.coverage st }

let default_cap p =
  let n = Gossip_topology.Digraph.n_vertices (Systolic.graph p) in
  (8 * Systolic.period p * n) + 64

let run_until ?probe ?cap ~done_ p =
  let cap = match cap with Some c -> c | None -> default_cap p in
  let sched = Schedule.of_systolic p in
  let table = Schedule.tables ~domains:1 sched in
  let st = Chunked.create (Schedule.n_vertices sched) in
  let result = ref None in
  let i = ref 0 in
  while !result = None && !i < cap do
    (* one domain: runs are short, and the server's worker pool already
       runs them side by side *)
    Chunked.apply_senders ~domains:1 st (table !i);
    incr i;
    (match probe with
    | Some f -> f ~round:!i ~coverage:(Chunked.coverage st)
    | None -> ());
    if done_ st then result := Some !i
  done;
  !result

let gossip_time ?probe ?cap p = run_until ?probe ?cap ~done_:Chunked.complete p

let broadcast_time ?probe ?cap p ~src =
  let n = Gossip_topology.Digraph.n_vertices (Systolic.graph p) in
  if src < 0 || src >= n then
    invalid_arg "Engine.broadcast_time: src out of range";
  let everyone_knows st =
    let rec go v = v >= n || (Chunked.knows st v src && go (v + 1)) in
    go 0
  in
  run_until ?probe ?cap ~done_:everyone_knows p

type run = { time : int option; curve : float array }

let gossip_run ?cap p =
  let module Instrument = Gossip_util.Instrument in
  let module Json = Gossip_util.Json in
  let curve = ref [] in
  let streaming = Instrument.tracing () in
  let probe ~round ~coverage =
    curve := coverage :: !curve;
    if streaming then
      Instrument.event "engine.round"
        ~attrs:[ ("round", Json.Int round); ("coverage", Json.Float coverage) ]
  in
  let time =
    Instrument.span "simulate.gossip-run" (fun () -> gossip_time ~probe ?cap p)
  in
  { time; curve = Array.of_list (List.rev !curve) }
