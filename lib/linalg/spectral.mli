(** Spectral radius and Euclidean matrix norm via power iteration.

    The paper's whole machinery funnels into two numeric quantities:
    [‖M‖₂ = sqrt(ρ(MᵀM))] for the delay matrix and its local blocks, and
    [ρ(Ox(λ)Nx(λ))] for the reduced matrices (Lemmas 2.1, 2.2, 4.3).  We
    evaluate both by power iteration: on the symmetric positive
    semidefinite Gram operator for the norm, and directly — with a
    strictly positive start vector, valid for non-negative matrices by
    Perron–Frobenius — for the spectral radius. *)

(** Iteration parameters. The iteration stops when the relative change of
    the eigenvalue estimate between sweeps is at most [tol], or after
    [max_iter] sweeps; [seed] fixes the positive start vector.  The
    stopping rule is a heuristic, not a bound: for a norm the estimate is
    a Rayleigh quotient of the Gram operator, which approaches [‖M‖²]
    from below, so the returned norm can fall short of [‖M‖], most when
    the top singular values are clustered.  When [max_iter] runs out the
    current estimate is returned without any warning. *)
type options = { tol : float; max_iter : int; seed : int }

(** [default_options] is [{ tol = 1e-12; max_iter = 10_000; seed = 42 }]. *)
val default_options : options

(** The three norms below run one power-iteration loop on the Gram
    operator [mᵀm], one Gram product per sweep, over preallocated
    buffers; they differ only in how the product is formed.  *)

(** [norm2_dense ?options m] is the Euclidean (spectral) norm of [m]; its
    Gram products ({!Dense.gram_mv_into}) allocate nothing. *)
val norm2_dense : ?options:options -> Dense.t -> float

(** [norm2_sparse ?options m] is the Euclidean norm of a sparse matrix,
    computed without densifying. *)
val norm2_sparse : ?options:options -> Sparse.t -> float

(** [norm2_of_ops ?options ~rows ~cols ~mv ~tmv ()] is the Euclidean norm
    of the linear operator given by matrix-vector products with the matrix
    and its transpose. *)
val norm2_of_ops :
  ?options:options ->
  rows:int ->
  cols:int ->
  mv:(Vec.t -> Vec.t) ->
  tmv:(Vec.t -> Vec.t) ->
  unit ->
  float

(** [spectral_radius_nonneg ?options m] estimates [ρ(m)] for a square
    matrix with non-negative entries (power iteration from a positive
    vector).
    @raise Invalid_argument if [m] is not square or has a negative
    entry. *)
val spectral_radius_nonneg : ?options:options -> Dense.t -> float

(** [collatz_wielandt_bounds m x] is [(min_i (Mx)_i/x_i, max_i (Mx)_i/x_i)]
    for a strictly positive [x]: by Collatz–Wielandt both bracket [ρ(m)]
    for non-negative [m].  This is the finite-precision face of the
    paper's Lemma 2.1: a positive semi-eigenvector with semi-eigenvalue
    [e] certifies [ρ(m) ≤ e].
    @raise Invalid_argument if some [x_i ≤ 0]. *)
val collatz_wielandt_bounds : Dense.t -> Vec.t -> float * float

(** [is_semi_eigenvector ?eps m x e] checks Definition 2.2:
    [M·x ≤ e·x] componentwise (within [eps]). *)
val is_semi_eigenvector : ?eps:float -> Dense.t -> Vec.t -> float -> bool
