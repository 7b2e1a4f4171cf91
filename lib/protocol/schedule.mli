(** Implicit periodic schedules: rounds as generator functions.

    A systolic protocol repeats a period of matchings forever.  The
    materialized {!Systolic.t} stores those matchings as arc lists over a
    {!Digraph.t}; at a million vertices neither fits in memory.  This
    module represents a schedule by its {e sender function}
    [sender round v] — the vertex transmitting to [v] in [round], or
    [-1] — which is the specification, and by a {e round compiler}
    ({!tables}) that turns one round at a time into a receiver→sender
    table, the only form the simulators' round kernel reads.  A run's
    tables live in at most two n-word buffers (plus one per
    {!with_drops} layer) that every round overwrites; no period is ever
    stored, except by {!of_systolic}, whose period tables are the
    protocol itself.  The materialized protocols become one instance via
    {!of_systolic} (the form in which every systolic protocol is
    simulated), and {!to_systolic} bridges back so property tests can
    pin implicit schedules against their materialized counterparts on
    small instances. *)

type t

(** [make ~name ~n ~mode ~period ~sender] wraps a sender function.
    Requirements on [sender round v] for [0 <= v < n], [round >= 0]:
    pure, total, and every round must be a matching — distinct receivers
    have distinct senders, and (half-duplex) no sender is also a
    receiver; full-duplex rounds may pair mutual senders.  Periodicity
    ([sender (round + period) = sender round]) is expected of plain
    schedules but intentionally {e not} of fault-wrapped ones
    ({!with_drops} keys drops on the absolute round index).
    @raise Invalid_argument on [n < 0] or [period < 1]. *)
val make :
  name:string ->
  n:int ->
  mode:Protocol.mode ->
  period:int ->
  sender:(int -> int -> int) ->
  t

val name : t -> string
val n_vertices : t -> int
val mode : t -> Protocol.mode
val period : t -> int

(** [sender t round v] is the vertex transmitting to [v] in (absolute)
    [round], or [-1] when [v] only listens.
    @raise Invalid_argument on [round < 0]. *)
val sender : t -> int -> int -> int

(** [tables ?domains t] starts one run's round compiler: [compile round]
    is (absolute) round [round]'s receiver→sender table — an array [a]
    of length at least [n] with [a.(v) = sender t round v] for every
    [0 <= v < n].  The compiler owns the array: it stays valid until the
    compiler's next call, and callers must not write it.  Fills run in
    vertex blocks on [domains] workers (default
    {!Gossip_util.Parallel.recommended_domains}); the tables are
    identical at every worker count.  Per constructor:
    - {!of_systolic}: the precomputed period table, no fill at all;
    - pairing schedules ({!of_pairing}, the structured generators and
      {!proposal}): one partner array per pairing, shared by the two
      half-duplex rounds of a pairing; {!proposal} computes it from one
      candidate per vertex;
    - {!with_drops}: the inner table filtered into a buffer of its own;
    - {!make}: one [sender] call per vertex.
    Memory: at most two n-word buffers per run, plus one per
    {!with_drops} layer.  A compiler is not itself safe to share between
    domains; start one per run.
    @raise Invalid_argument on a negative round. *)
val tables : ?domains:int -> t -> int -> int array

(** [of_systolic sys] views a materialized systolic protocol as a
    schedule, precomputing one receiver-indexed sender table per period
    round.  Sender functions agree arc-for-arc with
    {!Systolic.period_round}. *)
val of_systolic : Systolic.t -> t

(** [round_arcs t i] materializes round [i] as a sorted arc list —
    bridging and tests only; O(n). *)
val round_arcs : t -> int -> (int * int) list

(** [to_systolic t g] materializes one full period over graph [g],
    re-validated by {!Protocol.make} (every arc in [g], every round a
    matching).  Note: full-duplex validation {e closes} rounds with
    reverse arcs; generators in this module emit mutual pairs already,
    so closure is the identity.
    @raise Invalid_argument when the schedule violates protocol
    invariants or vertex counts differ. *)
val to_systolic : t -> Gossip_topology.Digraph.t -> Systolic.t

(** [with_drops t ~drop] suppresses arc [(u, v)] in [round] whenever
    [drop ~round ~u ~v] holds — message loss on the implicit arc stream.
    Dropping one direction of a full-duplex exchange legally degrades it
    to a one-directional transmission.  [round] is absolute, so i.i.d.
    fault processes do not repeat each period. *)
val with_drops : t -> drop:(round:int -> u:int -> v:int -> bool) -> t

(** {1 Pairing plumbing}

    Exported for transform modules ({!Fault_tolerant}) that build extra
    rounds out of exchange pairings. *)

(** [of_pairing ~name ~n ~pairings ~full_duplex pairing] turns an
    exchange pairing family into a schedule.  [pairing t v] is the
    partner of [v] in pairing [t] (or [-1]) and must be an involution:
    [pairing t (pairing t v) = v].  With [~full_duplex:true] the period
    is [pairings]; otherwise every pairing is split into a
    lower-endpoint-sends-first round pair and the period doubles. *)
val of_pairing :
  name:string ->
  n:int ->
  pairings:int ->
  full_duplex:bool ->
  (int -> int -> int) ->
  t

(** [cycle_colors len] is the number of colors in the proper edge
    coloring of the [len]-cycle used by {!cycle_alternating}: 2 when
    [len] is even, 3 when odd. *)
val cycle_colors : int -> int

(** [cycle_partner len color x] is the neighbor of [x] along the
    [color]-colored edge of the [len]-cycle, or [-1] when no incident
    edge has that color. *)
val cycle_partner : int -> int -> int -> int

(** {1 Structured generators}

    Closed-form proper edge colorings turned into periodic schedules;
    with [~full_duplex:false] every exchange pairing is split into a
    lower-sends-first round pair (period doubles).  Each is complete: a
    full period activates every edge of the underlying family at least
    once, so repeated periods gossip. *)

(** Dimension sweep on [Q(dim)]: pairing [t] matches [v] with
    [v lxor (1 lsl t)]; period [dim] (full duplex). *)
val hypercube_sweep : dim:int -> full_duplex:bool -> t

(** Alternating-edge coloring of the [n]-cycle: 2 colors when [n] is
    even, 3 when odd. *)
val cycle_alternating : n:int -> full_duplex:bool -> t

(** Row-ring then column-ring colorings of the [rows] x [cols] torus
    (2 or 3 each by side parity). *)
val torus_colored : rows:int -> cols:int -> full_duplex:bool -> t

(** Cycle colors on each dimension-cycle of [CCC(dim)] plus one rung
    color (the rungs form a perfect matching). *)
val ccc_colored : dim:int -> full_duplex:bool -> t

(** {1 Unstructured generators} *)

(** [proposal imp ~period ~seed ~full_duplex] — seeded mutual-proposal
    matchings over the raw slots of an implicit topology, for families
    with no closed-form edge coloring (de Bruijn, Kautz).  Every vertex
    nominates one pseudorandom candidate slot per pairing; an exchange
    happens exactly when nominations are mutual, so rounds are matchings
    by construction.  With degree-bounded families a vertex is isolated
    for a whole default period with probability well under [1e-7], so
    repeated periods gossip with overwhelming probability; completion is
    probabilistic, not guaranteed.
    @raise Invalid_argument on [period < 1]. *)
val proposal : Gossip_topology.Implicit.t -> period:int -> seed:int -> full_duplex:bool -> t

(** {1 Family resolution} *)

(** [of_family ~family ~n ~degree ~full_duplex ()] resolves a family
    name (see {!Gossip_topology.Implicit.known_families}) to the
    smallest instance with at least [n] vertices, paired with its
    natural schedule: structured colorings for hypercube, cycle, torus
    and CCC; {!proposal} (with [?period], [?seed], defaults 64 and 1)
    for de Bruijn and Kautz. *)
val of_family :
  family:string ->
  n:int ->
  degree:int ->
  ?period:int ->
  ?seed:int ->
  full_duplex:bool ->
  unit ->
  (Gossip_topology.Implicit.t * t, string) result
