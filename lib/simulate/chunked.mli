(** Chunked blockwise simulation: the repository's one round kernel.

    Knowledge lives in one contiguous word array — [words] machine words
    of item bits per vertex — processed blockwise in parallel.  Rounds
    come in as receiver→sender tables, [int array]s, and nothing else
    ({!apply_senders}): compiled from a {!Gossip_protocol.Schedule} one
    round at a time ({!Gossip_protocol.Schedule.tables}, as {!run}
    does), or filled from an explicit arc list ({!arc_applier}).  The
    kernel calls no closure per vertex, so its cost is the knowledge
    merge itself.  {!Engine}, {!Stats}, {!Faults} and {!Certifier} are
    front ends over this kernel.

    With [items = n] (the default) the state is exact gossip: every
    vertex's full item set.  To scale, a run can track the dissemination
    of the first [items <= n] items only: memory stays proportional to
    [n·items] bits, so [items = 64] at a million vertices needs ~8 MB
    where the full n² state would need ~125 GB; [items = 1] is a
    broadcast of item 0.  Rounds are applied in place: a matching's only
    same-round feedback is a full-duplex exchange, which the owning
    block writes atomically with the shared union of both sides, so the
    result is identical to start-of-round-snapshot semantics and
    deterministic for every worker count. *)

type state

(** [create ?items n] — vertex [v < items] starts knowing exactly item
    [v]; everyone else knows nothing.  [items] defaults to [n] (exact
    gossip) and is clamped to [0 <= items <= n].
    @raise Invalid_argument on [n < 0]. *)
val create : ?items:int -> int -> state

val n_vertices : state -> int
val items : state -> int

(** [items_known st] is the number of set (vertex, item) bits,
    maintained incrementally — O(1). *)
val items_known : state -> int

(** [knows st v i] — does vertex [v] currently know item [i]?  Items
    beyond the tracked range are reported unknown.
    @raise Invalid_argument unless [0 <= v < n]. *)
val knows : state -> int -> int -> bool

(** [known_by st v] is the number of tracked items vertex [v] knows.
    @raise Invalid_argument unless [0 <= v < n]. *)
val known_by : state -> int -> int

(** [coverage st] is [items_known / (n · items)] (1.0 when the state is
    empty). *)
val coverage : state -> float

(** [complete st] — every vertex knows every tracked item. *)
val complete : state -> bool

(** [apply_senders ?domains st senders] executes one round given as its
    receiver→sender table — [senders.(v)] is the vertex transmitting to
    [v], or [-1] — on [st], blockwise over the worker domains (default
    {!Gossip_util.Parallel.recommended_domains}).  The round must be a
    matching; the table is only read.
    @raise Invalid_argument when [senders] is shorter than [n]. *)
val apply_senders : ?domains:int -> state -> int array -> unit

(** [arc_applier st] is a function that executes one round given as an
    arc list (a matching) on [st], on one domain.  It fills and wipes one
    receiver→sender table allocated here, so a run of explicit rounds
    allocates no table per round. *)
val arc_applier : state -> Gossip_protocol.Protocol.round -> unit

(** [popcount x] is the number of set bits among the 63 bits of [x]
    (negative [x] included) — the kernel's per-word count of newly
    learned items, exposed for its tests. *)
val popcount : int -> int

(** A streamed progress sample: the deterministic coverage curve
    ([round], [coverage] — identical at every worker count) plus the
    run's live telemetry — elapsed wall time, throughput, the ETA
    extrapolated from the most recent inter-checkpoint coverage slope
    ([Some 0.] once complete; [None] while coverage is stalled) and a
    heap/RSS reading ({!Gossip_util.Resource}). *)
type checkpoint = {
  round : int;
  coverage : float;
  elapsed_s : float;  (** monotonic seconds since [run] started *)
  rounds_per_s : float;
  eta_s : float option;  (** projected seconds to coverage 1.0 *)
  heap_mb : float;
  rss_mb : float option;
}

type outcome = {
  time : int option;  (** first round after which the run was complete *)
  rounds_run : int;
  final_coverage : float;
  checkpoints : checkpoint list;
}

(** [run ?domains ?cap ?checkpoint_every ?on_checkpoint st sched]
    drives [st] under [sched] — one {!Gossip_protocol.Schedule.tables}
    compiler per run, at the same [domains] — until complete or [cap]
    rounds (default
    [2n + 8·period·⌈log₂ n⌉ + 64] — covers linear-diameter cycles as
    well as logarithmic families).  When [checkpoint_every = k > 0], a
    {!checkpoint} is recorded every [k] rounds plus at the final round,
    passed to [on_checkpoint] (the CLI's [--progress] ticker), and —
    when a trace sink is installed — streamed as an
    ["engine.checkpoint"] JSONL event carrying the full progress/
    resource attribute set.  The whole run executes under the
    ["simulate.chunked-run"] instrumentation span. *)
val run :
  ?domains:int ->
  ?cap:int ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(checkpoint -> unit) ->
  state ->
  Gossip_protocol.Schedule.t ->
  outcome

(** [report_to_json …] renders the documented [gossip-simulate/1]
    report object (schema, family, sizes, rounds, coverage, checkpoint
    list, wall time, nodes·rounds/sec, domains) — shared by
    [gossip_lab simulate --family] and the server's
    [simulate_implicit] op. *)
val report_to_json :
  family:string ->
  requested_n:int ->
  sched:Gossip_protocol.Schedule.t ->
  st:state ->
  outcome:outcome ->
  wall_seconds:float ->
  domains:int ->
  Gossip_util.Json.t
