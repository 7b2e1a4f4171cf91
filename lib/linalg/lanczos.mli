(** Lanczos iteration for extremal eigenvalues of symmetric operators.

    Power iteration (in {!Spectral}) converges linearly with ratio
    [λ₂/λ₁].  [Delay_matrix.norm_blockwise] solves each distinct vertex
    block once, so repeated blocks cost nothing; what slows the power
    iteration is clustering within one block, whose Gram operator can
    have clustered top eigenvalues, where Lanczos' Krylov-subspace view
    converges much faster and additionally exposes the spectral gap.  Used as a
    cross-check of {!Spectral} in the test suite and available to
    callers who need eigenvalue pairs. *)

(** Result of a Lanczos run. *)
type result = {
  largest : float;  (** top eigenvalue estimate *)
  second : float option;  (** second eigenvalue when the Krylov space saw one *)
  iterations : int;  (** Krylov dimension actually built *)
}

(** [symmetric ?steps ?seed ~dim apply] runs at most [steps] (default
    [min dim 64]) Lanczos steps on the symmetric operator
    [apply : v ↦ A·v] of dimension [dim], with full reorthogonalization
    (numerically safe at these sizes).  The eigenvalues of the resulting
    tridiagonal matrix are extracted by bisection.
    @raise Invalid_argument if [dim < 0]. *)
val symmetric :
  ?steps:int -> ?seed:int -> dim:int -> (Vec.t -> Vec.t) -> result

(** [norm2_dense ?steps m] is [‖m‖₂] via Lanczos on [mᵀm] — same value as
    {!Spectral.norm2_dense}, different algorithm. *)
val norm2_dense : ?steps:int -> Dense.t -> float

(** [norm2_sparse ?steps m] — sparse variant. *)
val norm2_sparse : ?steps:int -> Sparse.t -> float

(** [tridiagonal_eigenvalues ~diag ~off] returns all eigenvalues of the
    symmetric tridiagonal matrix with diagonal [diag] and off-diagonal
    [off] ([length off = length diag - 1]), ascending, by bisection with
    Sturm sequences.  Exposed for testing. *)
val tridiagonal_eigenvalues : diag:float array -> off:float array -> float array
