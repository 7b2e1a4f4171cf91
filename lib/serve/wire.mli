(** Wire protocol of [gossip_served]: newline-delimited JSON frames.

    One request or response per line, each a single compact JSON object
    ({!Gossip_util.Json}).  Requests name an operation already exposed by
    the library — the same computations as the [gossip_lab --json]
    subcommands — plus control operations:

    {v
    {"id": 7, "op": "tables", "params": {"s_max": 8}, "timeout_ms": 2000}
    {"id": 7, "version": "0.3.0", "ok": true, "result": {...}}
    {"id": 8, "version": "0.3.0", "ok": false,
     "error": {"code": "queue_full", "message": "..."}}
    v}

    [id] is an arbitrary JSON value echoed verbatim in the response
    (absent means [null]); responses on one connection may arrive out of
    request order, so clients with several requests in flight must
    correlate by [id].  The full schema, including every operation's
    parameters, is documented in [doc/serving.md]. *)

module Json = Gossip_util.Json

(** {1 Operations} *)

(** Network naming a request operates on — the same [FAMILY]/[DIM]/[-d]
    triple as the [gossip_lab] subcommands. *)
type net = { family : string; dim : int; degree : int }

(** Which protocol a [certify] request certifies. *)
type protocol_spec =
  | Inline of string
      (** protocol text in the {!Gossip_protocol.Protocol_io} format *)
  | Built of { net : net; full_duplex : bool }
      (** the default systolic protocol for a named network *)

type op =
  | Ping  (** liveness probe; result [{"pong": true}] *)
  | Version  (** result [{"version": ...}] *)
  | Shutdown  (** acknowledge, then drain the server gracefully *)
  | Stats  (** cache + metrics snapshot of the serving process *)
  | Metrics
      (** live rolling-window metrics: per-op throughput, error counts
          and latency p50/p95/p99 over the last 10s/1m/5m, plus queue
          and in-flight gauges (schema [gossip-metrics/1]).  Answered by
          the reader thread, never queued — still observable when the
          queue is saturated. *)
  | Health
      (** readiness/liveness probe (schema [gossip-health/1]): status
          [ok] or [degraded] (queue saturated, or a worker wedged past
          the wedge deadline).  Answered by the reader thread. *)
  | Spans
      (** span aggregates of the serving process (schema
          [gossip-spans/1]); populated when span aggregation is on
          ([--trace] / a streaming trace).  Answered by the reader
          thread. *)
  | Sleep of { ms : int }
      (** hold a worker for [ms] milliseconds; a testing aid for the
          backpressure and deadline paths *)
  | Tables of { s_max : int; ss : int list }
  | Bound of { net : net; s : int option; full_duplex : bool }
  | Simulate of { net : net; full_duplex : bool }
  | Simulate_implicit of {
      family : string;
      n : int;
      items : int;
      checkpoint_every : int;
      period : int;
      seed : int;
      degree : int;
      full_duplex : bool;
    }
      (** chunked-engine run over an implicit family
          ({!Gossip_topology.Implicit.known_families}); [n] is the target
          vertex count (gated at [2^17]), [items] the tracked-item count.
          Result schema [gossip-simulate/1] (see [doc/simulation.md]). *)
  | Certify of { spec : protocol_spec; refine : bool }
  | Certify_faults of {
      family : string;
      n : int;
      k : int;
      budget : int;
      seed : int;
      degree : int;
      full_duplex : bool;
      harden : string;
      cap : int;
    }
      (** adversarial ≤[k]-failure certification
          ({!Gossip_simulate.Certifier}) of an implicit family's natural
          schedule, optionally hardened first ([harden] is ["none"],
          ["replicate"] or ["augment"]); [cap = 0] derives the round
          budget from the scheme's fault-free time.  Gated tightly
          ([n <= 256], [k <= 3], [budget <= 4096]) — cost is
          O(patterns · n · cap) on one worker.  Result schema
          [gossip-fault-cert/1], cached in the context per
          [(fingerprint, k, seed, budget, cap)]. *)
  | Gossip of { view : Json.t }
      (** cluster-membership exchange ({!Gossip_cluster.Membership}):
          [view] is the sender's membership view, carried verbatim — the
          wire layer only requires a non-empty object.  Result: the
          receiver's view, after merging.  Answered only by cluster
          members (shards started with [--join], and the router). *)
  | Mem_digest
      (** wire name ["digest"]: the anti-entropy probe — result
          [{digest, nodes, node}] summarizing the receiver's membership
          table (heartbeat-independent, so converged tables agree). *)
  | Drain of { node : string option }
      (** ask a shard to advertise itself as draining (membership status
          [draining], incarnation bumped): the router stops routing new
          keys there while in-flight and straggler requests still
          complete.  [node] must be absent or the receiver's own id on a
          shard; on the router it names the shard to drain. *)
  | Trace_pull of { max : int }
      (** drain the receiver's recent-event ring
          ({!Gossip_util.Instrument.set_ring_capacity}): result schema
          [gossip-traces/1] with the newest [max] JSONL trace events.
          Answered inline like the other observability ops; the router
          fans it out fleet-wide ([gossip-cluster-traces/1]). *)

(** [op_name op] — the wire name ("ping", "tables", …); used as the
    ["op"] field, in telemetry attributes and in the loadgen mix. *)
val op_name : op -> string

(** {1 Requests} *)

type request = {
  id : Json.t;  (** echoed verbatim; [Null] when absent *)
  op : op;
  timeout_ms : int option;
      (** per-request deadline, measured from admission; see
          [doc/serving.md] for the exact semantics *)
  trace : Gossip_util.Trace.t option;
      (** distributed-trace context, carried as optional top-level
          [trace_id] / [parent_span_id] / [sampled] envelope fields.
          Forward-compatible in both directions: a request without them
          parses as [None], and a peer that predates them ignores them
          (unknown envelope fields are never rejected). *)
}

(** [parse_request j] validates a decoded frame into a typed request.
    Unknown operations, missing or ill-typed parameters and out-of-range
    values are rejected with a human-readable reason (the server turns
    it into a [bad_request] reply).  Unknown {e envelope fields} are
    ignored, and ill-typed trace-context fields degrade to "no context"
    — both are forward-compatibility seams, not defects. *)
val parse_request : Json.t -> (request, string) result

(** [request_to_json r] — the canonical wire form of [r];
    [parse_request (request_to_json r) = Ok r] (golden-tested). *)
val request_to_json : request -> Json.t

(** {1 Responses} *)

type error_code =
  | Bad_request  (** malformed JSON, unknown op, invalid parameters *)
  | Queue_full  (** bounded queue at capacity — retry later *)
  | Deadline_exceeded  (** request expired before a worker picked it up *)
  | Oversized_frame  (** frame longer than the server's limit *)
  | Shutting_down  (** server is draining; no new work accepted *)
  | Internal  (** evaluation raised unexpectedly *)

val error_code_to_string : error_code -> string
val error_code_of_string : string -> error_code option

type response = {
  resp_id : Json.t;
  resp_version : string;
  outcome : (Json.t, error_code * string) result;
      (** [Ok result] or [Error (code, message)] *)
}

(** [ok_response ~id result] / [error_response ~id ~code ~message] build
    the response envelope; both stamp {!Core.Version.string}. *)
val ok_response : id:Json.t -> Json.t -> Json.t

val error_response : id:Json.t -> code:error_code -> message:string -> Json.t

(** [parse_response j] — the client-side inverse of the builders above. *)
val parse_response : Json.t -> (response, string) result

(** {1 Framing} *)

(** Default frame limit, 1 MiB.  Frames are single lines; the limit
    bounds per-connection memory and is enforced while reading, so an
    oversized frame never gets buffered whole. *)
val default_max_frame_bytes : int

type frame_error =
  | Eof  (** peer closed the connection cleanly *)
  | Oversized  (** line exceeded [max_bytes]; the stream is unframed
                   from here on, so the connection must be closed *)

(** [read_frame ic ~max_bytes] — one line, without its terminator
    (a trailing [\r] is also stripped).  Empty lines are returned as
    empty strings; callers skip them (tolerated as keep-alives).  A
    final line the peer ends without ['\n'] is returned as it is, [\r]
    included.

    The line is taken off [ic] a channel-buffer-full (64 KiB) at a
    time, not a byte at a time.  [max_bytes] bounds the bytes before
    the ['\n'], a trailing [\r] included, and is checked before each
    piece is taken: a line of [max_bytes + 1] bytes or more gets
    [Oversized] without ever being held whole.  The verdict comes when
    the line's ['\n'] arrives, the channel buffer fills, or the stream
    ends — whichever is first. *)
val read_frame : in_channel -> max_bytes:int -> (string, frame_error) result

(** [write_frame oc j] writes [j] compactly followed by a newline and
    flushes.  Not thread-safe per channel — the server serializes writers
    with a per-connection mutex. *)
val write_frame : out_channel -> Json.t -> unit
