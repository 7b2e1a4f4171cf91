(** Sparse matrices in compressed-sparse-row form.

    The global delay matrix [M(λ)] of Definition 3.4 has one row and one
    column per arc activation of the protocol — up to [t·n/2] of them — but
    each row holds at most [s - 1] nonzeros (the delays within one systolic
    period), so CSR with matrix-vector products is the natural
    representation for the Krylov iterations that evaluate [‖M(λ)‖]. *)

type t

(** [of_triplets ~rows ~cols entries] builds the matrix from
    [(row, col, value)] triplets.  Duplicate positions are summed; zero
    values are dropped.
    @raise Invalid_argument on out-of-range indices or negative dims. *)
val of_triplets : rows:int -> cols:int -> (int * int * float) list -> t

(** [of_dense m] converts, dropping exact zeros. *)
val of_dense : Dense.t -> t

(** [to_dense m] materializes the full matrix. *)
val to_dense : t -> Dense.t

(** [rows m], [cols m] are the dimensions, [nnz m] the stored entries. *)
val rows : t -> int

val cols : t -> int
val nnz : t -> int

(** [get m i j] is entry [(i, j)] (logarithmic in the row's nnz). *)
val get : t -> int -> int -> float

(** [mv m x] is [m·x]. *)
val mv : t -> Vec.t -> Vec.t

(** [tmv m x] is [mᵀ·x]. *)
val tmv : t -> Vec.t -> Vec.t

(** [transpose m] is a fresh CSR transpose. *)
val transpose : t -> t

(** [scale m c] multiplies all values by [c]. *)
val scale : t -> float -> t

(** [map_values f m] applies [f] to every stored value (zeros produced by
    [f] are kept stored; use {!of_triplets} to re-compact). *)
val map_values : (float -> float) -> t -> t

(** [iter f m] applies [f row col value] to every stored entry. *)
val iter : (int -> int -> float -> unit) -> t -> unit

(** [row_nnz m i] is the number of stored entries in row [i]. *)
val row_nnz : t -> int -> int

(** [max_row_nnz m] is the largest row population — bounded by [s - 1] for
    delay matrices of s-systolic protocols. *)
val max_row_nnz : t -> int

(** [nonneg m] is [true] iff all stored values are [>= 0]. *)
val nonneg : t -> bool
