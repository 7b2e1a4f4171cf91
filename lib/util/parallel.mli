(** Multicore helpers (OCaml 5 domains).

    The heavy loops of this library are embarrassingly parallel: the norm
    of the delay matrix is a max over independent per-vertex blocks
    (norm property 8), table generation is a map over independent
    families, BFS sweeps are per-source.  This module provides a static
    chunking parallel map over arrays — deterministic output, pure worker
    functions required — sized to the machine.

    The functions degrade gracefully: with [domains = 1] (or on tiny
    inputs) they run sequentially with no domain spawn.

    {b Utilization telemetry}: when span timing is on
    ({!Instrument.enabled} or {!Instrument.tracing}), every multi-worker
    call records each worker's busy time as the
    [parallel.worker_busy_ms.<w>] gauges plus a [parallel.utilization]
    gauge (mean busy / max busy over the call's workers; 1.0 means a
    perfectly balanced split).  Like span timing, the clocks are not
    read when both switches are off, so untraced hot loops pay
    nothing. *)

(** [set_default_domains d] installs a process-wide default worker count
    used by every call site that does not pass [?domains] explicitly —
    the single knob behind the CLI's [--domains] flag.  [None] restores
    the machine-sized default.
    @raise Invalid_argument if [d < 1]. *)
val set_default_domains : int option -> unit

(** [default_domains ()] is the current override, if any. *)
val default_domains : unit -> int option

(** [recommended_domains ()] is the installed default
    ({!set_default_domains}), or a conservative machine-sized count:
    [max 1 (min 8 (cpu_count - 1))] (the runtime's own domain counts as
    one). *)
val recommended_domains : unit -> int

(** [map ?domains f arr] is [Array.map f arr] computed on [domains]
    workers (default {!recommended_domains}).  [f] must be pure — it runs
    concurrently on OCaml domains. *)
val map : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array

(** [init ?domains n f] is [Array.init n f] in parallel. *)
val init : ?domains:int -> int -> (int -> 'a) -> 'a array

(** [reduce ?domains n f combine init] folds [combine] over
    [f 0 … f (n-1)] starting from [init], fused: each worker folds its
    strided slice into a local accumulator and the per-worker partials
    are combined at the join — no intermediate array of size [n] is ever
    allocated (unlike reducing over the result of {!map}).  Workers fold
    different interleavings of the index range, so [combine] must be
    associative {e and} commutative (and [init] its identity) for the
    result to be independent of the worker count — true for [max], [min],
    and exact sums; floating-point [+.] is only approximately so.
    Returns [init] when [n <= 0]. *)
val reduce : ?domains:int -> int -> (int -> 'a) -> ('a -> 'a -> 'a) -> 'a -> 'a

(** [reduce_blocks ?domains n f combine init] is {!reduce} over
    contiguous blocks: [0, n)] is cut into up to four blocks per worker,
    and [f lo hi] handles the block [lo, hi)].  Every index lies in
    exactly one block, so when [f] writes only its own indices the
    writes are disjoint; [combine] must be as {!reduce} requires. *)
val reduce_blocks :
  ?domains:int -> int -> (int -> int -> 'a) -> ('a -> 'a -> 'a) -> 'a -> 'a

(** [max_float ?domains f arr] is [max over x of f x], [neg_infinity] on
    the empty array.  Implemented as a fused {!reduce}. *)
val max_float : ?domains:int -> ('a -> float) -> 'a array -> float
