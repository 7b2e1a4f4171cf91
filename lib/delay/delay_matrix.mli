(** The delay matrix [M(λ)] (Definition 3.4) and its per-vertex blocks.

    [M(λ)] is indexed by arc activations; entry
    [(x,y,i), (y,z,j) ↦ λ^(j-i)] when the delay digraph has that arc, 0
    otherwise.  Its key property: [(M(λ)^k)_{a,b} = Σ_paths λ^length]
    over the [k]-arc dipaths from [a] to [b], so powers of [M(λ)] count
    delay-weighted dissemination paths.

    After simultaneous row/column permutation [M(λ)] splits into [n]
    blocks that share no rows or columns — one block [Mx(λ)] per network
    vertex [x], with rows the in-activations of [x] and columns its
    out-activations (Section 4).  By norm property 8,
    [‖M(λ)‖ = max_x ‖Mx(λ)‖]; both sides are computed here and
    cross-checked in the tests. *)

(** [sparse dg lambda] is the global [M(λ)] as a sparse matrix in
    activation order.
    @raise Invalid_argument unless [0 < λ < 1]. *)
val sparse : Delay_digraph.t -> float -> Gossip_linalg.Sparse.t

(** [vertex_block dg lambda x] is [Mx(λ)]: rows indexed by
    [activations_in dg x], columns by [activations_out dg x], entries
    [λ^(j-i)] when [1 ≤ j - i < window]. *)
val vertex_block : Delay_digraph.t -> float -> int -> Gossip_linalg.Dense.t

(** [norm ?options dg lambda] is [‖M(λ)‖] by Lanczos on the Gram
    operator of the global sparse matrix. *)
val norm :
  ?options:Gossip_linalg.Spectral.options -> Delay_digraph.t -> float -> float

(** [norm_blockwise ?options ?domains dg lambda] is [max_x ‖Mx(λ)‖] —
    equal to {!norm} by norm property 8, but cheaper on large networks
    since the blocks are small.  It builds every vertex block, keeps one
    of each set of {!Gossip_linalg.Dense.identical} blocks (systolic
    expansions repeat the same local block at many vertices) and solves
    each distinct block once by {!Gossip_linalg.Spectral.norm2_dense},
    in parallel over the distinct blocks ([domains] defaults to
    {!Gossip_util.Parallel.recommended_domains}); an empty block counts
    as norm 0.  The result is bit for bit the max over all vertices. *)
val norm_blockwise :
  ?options:Gossip_linalg.Spectral.options ->
  ?domains:int ->
  Delay_digraph.t ->
  float ->
  float

(** [closed_form_bound ~mode ~window lambda] is the paper's closed-form
    upper bound on [‖M(λ)‖]:
    [λ·sqrt(p⌈s/2⌉(λ))·sqrt(p⌊s/2⌋(λ))] in directed/half-duplex mode
    (Lemma 4.3) and [λ + λ² + ... + λ^(s-1)] in full-duplex mode
    (Lemma 6.1). *)
val closed_form_bound :
  mode:Gossip_protocol.Protocol.mode -> window:int -> float -> float
