(** Synchronous gossip simulation.

    The engine executes a protocol on the whispering-model semantics of
    Section 3: at the start every processor knows exactly its own item;
    when arc [(x, y)] is active at round [i], at the beginning of round
    [i+1] processor [y] additionally knows everything [x] knew at the
    beginning of round [i].  Because every round is a matching, a sender
    is never simultaneously a receiver except through the opposite arc in
    full-duplex mode, which exchanges start-of-round knowledge.

    Gossip completes at the first round after which every processor knows
    every item; broadcast from [src] completes when every processor knows
    [src]'s item.

    This module is the front end for explicit protocols: every run
    drives a {!Chunked} state at [items = n] on one domain, systolic
    protocols through {!Gossip_protocol.Schedule.of_systolic} and finite
    ones round by round through {!Chunked.arc_applier}. *)

(** Result of running a protocol to completion or exhaustion. *)
type outcome = {
  completed_at : int option;
      (** number of rounds after which gossip was complete, if it was *)
  rounds_run : int;
  coverage : float;  (** fraction of (processor, item) pairs known at end *)
}

(** [run_protocol p] executes all rounds of the finite protocol and
    reports the earliest completion round. *)
val run_protocol : Gossip_protocol.Protocol.t -> outcome

(** [default_cap p] is [8·s·n + 64] for an [s]-systolic protocol on [n]
    processors: the round budget of {!gossip_time}, {!broadcast_time}
    and the {!Stats} horizons when no cap is given. *)
val default_cap : Gossip_protocol.Systolic.t -> int

(** [gossip_time ?probe ?cap p] expands the systolic protocol [p] until
    gossip completes and returns the number of rounds, or [None] if still
    incomplete after [cap] rounds (default {!default_cap}).  [probe], when
    given, observes every executed round (1-based) together with the
    coverage — the fraction of the [n²] (processor, item) pairs known
    after it — without perturbing the run. *)
val gossip_time :
  ?probe:(round:int -> coverage:float -> unit) ->
  ?cap:int ->
  Gossip_protocol.Systolic.t ->
  int option

(** [broadcast_time ?probe ?cap p ~src] — rounds until everyone knows
    [src]'s item under systolic protocol [p].
    @raise Invalid_argument unless [0 <= src < n]. *)
val broadcast_time :
  ?probe:(round:int -> coverage:float -> unit) ->
  ?cap:int ->
  Gossip_protocol.Systolic.t ->
  src:int ->
  int option

(** A gossip run with its full dissemination record. *)
type run = { time : int option; curve : float array }

(** [gossip_run ?cap p] is {!gossip_time} plus observability: the
    coverage curve ([curve.(i)] = coverage after round [i+1]) is always
    recorded, the run executes under the ["simulate.gossip-run"]
    instrumentation span, and — when a trace sink is installed — every
    round streams an ["engine.round"] JSONL event carrying its coverage.
    Backs [gossip_lab simulate --json]. *)
val gossip_run : ?cap:int -> Gossip_protocol.Systolic.t -> run
