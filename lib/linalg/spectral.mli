(** Euclidean matrix norm by Lanczos, spectral radius by power iteration.

    The paper's whole machinery funnels into two numeric quantities:
    [‖M‖₂ = sqrt(ρ(MᵀM))] for the delay matrix and its local blocks, and
    [ρ(Ox(λ)Nx(λ))] for the reduced matrices (Lemmas 2.1, 2.2, 4.3).  The
    norm is the top eigenvalue of the symmetric positive semidefinite
    Gram operator, found by Lanczos; the spectral radius of a
    non-symmetric non-negative matrix is found by power iteration from a
    strictly positive start vector, valid by Perron–Frobenius. *)

(** Iteration parameters, [seed] fixing the strictly positive start
    vector of both iterations.

    For a norm, Lanczos builds an orthonormal basis of the Krylov space
    of the start vector under [mᵀm], one Gram product per step, with full
    reorthogonalization; the estimate is the top eigenvalue of the
    projected tridiagonal matrix, found by Sturm bisection.  It stops
    when the space is exhausted (it reaches [cols] vectors or breaks
    down) — the result is then exact to rounding — or when the Ritz
    residual estimate falls to [tol] times the estimate, or after
    [max_iter] steps.  The estimate is a Ritz value, which approaches
    [‖m‖²] from below, so a solve stopped by [tol] or [max_iter] can
    fall short of [‖m‖]; running out of [max_iter] is not reported.

    For [spectral_radius_nonneg], the power iteration stops when the
    relative change of the estimate between sweeps is at most [tol], or
    after [max_iter] sweeps — a heuristic, not a bound. *)
type options = { tol : float; max_iter : int; seed : int }

(** [default_options] is [{ tol = 1e-12; max_iter = 10_000; seed = 42 }]. *)
val default_options : options

(** The three norms below run one Lanczos loop on the Gram operator
    [mᵀm], over buffers that grow with the Krylov space to at most
    [min cols max_iter] vectors; they differ only in how the Gram product
    is formed, and a solve is sequential and deterministic. *)

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

(** [tridiagonal_top_eigenvalue ~diag ~off] is the largest eigenvalue of
    the symmetric tridiagonal matrix with diagonal [diag] and
    off-diagonal [off] ([length off = length diag - 1]), by bisection on
    Sturm counts until the bracket stops shrinking — the step Lanczos
    takes on its projected matrix.  Exposed for testing.
    @raise Invalid_argument if [diag] is empty or [off] has the wrong
    length. *)
val tridiagonal_top_eigenvalue : diag:float array -> off:float array -> float
