(** Dissemination statistics beyond the completion time.

    The lower-bound story is about the {e last} item to arrive; these
    helpers expose the whole distribution — per-item arrival times, the
    dissemination curve, per-round throughput — which the examples use to
    show {e where} a protocol loses time, not just how much. *)

(** [arrival_times p ~horizon] runs the systolic protocol for [horizon]
    rounds and returns the matrix [a] with [a.(item).(vertex)] the first
    round after which [vertex] knows [item] ([0] for the origin,
    [max_int] when it never arrives within the horizon). *)
val arrival_times :
  Gossip_protocol.Systolic.t -> horizon:int -> int array array

(** Summary of one protocol run. *)
type summary = {
  gossip_time : int option;  (** completion round *)
  broadcast_times : int array;  (** per source: when its item reached all *)
  mean_arrival : float;  (** average finite arrival time *)
  max_arrival : int;  (** worst finite arrival (= gossip time if complete) *)
  rounds_run : int;
}

(** [summarize ?horizon p] computes the summary (default horizon =
    {!Engine.default_cap}). *)
val summarize : ?horizon:int -> Gossip_protocol.Systolic.t -> summary

(** [newly_informed p ~horizon] — for each executed round, how many
    (vertex, item) pairs were learned in that round; the integral of this
    curve is [n² - n] exactly when gossip completes. *)
val newly_informed : Gossip_protocol.Systolic.t -> horizon:int -> int array

(** Message complexity of one run: how many transmissions the protocol
    spent, and how many were wasted (carried no new item to the
    receiver).  Systolic protocols are oblivious, so they keep
    transmitting after saturation — the waste quantifies the overhead of
    obliviousness. *)
type message_costs = {
  transmissions : int;  (** arc activations executed *)
  useful : int;  (** activations that taught the receiver something *)
  rounds : int;  (** rounds executed (to completion or the horizon) *)
}

(** [message_complexity ?horizon p] runs the systolic protocol until
    gossip completes (or the horizon) and accounts transmissions. *)
val message_complexity :
  ?horizon:int -> Gossip_protocol.Systolic.t -> message_costs
