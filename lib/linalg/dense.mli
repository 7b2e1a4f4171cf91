(** Dense row-major matrices.

    The local matrices [Mx(λ)], their rank-reduced forms [Nx(λ)], [Ox(λ)]
    and the Gram products [MᵀM] the paper analyses are all small — the side
    is bounded by the protocol length at a single vertex — so dense storage
    is the right representation; the (large) global delay matrix [M(λ)]
    lives in {!Sparse}. *)

type t

(** [create rows cols x] is a [rows × cols] matrix filled with [x]. *)
val create : int -> int -> float -> t

(** [init rows cols f] has entry [(i, j)] equal to [f i j]. *)
val init : int -> int -> (int -> int -> float) -> t

(** [of_arrays rows] builds a matrix from row arrays, which must all have
    the same length.
    @raise Invalid_argument on ragged input or empty matrix dimensions
    below zero. *)
val of_arrays : float array array -> t

(** [rows m] and [cols m] are the dimensions. *)
val rows : t -> int

val cols : t -> int

(** [get m i j] / [set m i j x] access entry [(i, j)], zero-indexed. *)
val get : t -> int -> int -> float

val set : t -> int -> int -> float -> unit

(** [identity n] is the [n × n] identity. *)
val identity : int -> t

(** [copy m] is a deep copy. *)
val copy : t -> t

(** [transpose m] is a fresh transpose. *)
val transpose : t -> t

(** [mul a b] is the matrix product.
    @raise Invalid_argument on inner-dimension mismatch. *)
val mul : t -> t -> t

(** [mv m x] is the matrix-vector product. *)
val mv : t -> Vec.t -> Vec.t

(** [tmv m x] is [mᵀ·x] without materializing the transpose. *)
val tmv : t -> Vec.t -> Vec.t

(** [gram_mv_into m x ~scratch y] writes [mᵀ·(m·x)] into [y], using
    [scratch] (length [rows m]) for [m·x]; nothing is allocated.  The
    entries are bit for bit those of [tmv m (mv m x)].
    @raise Invalid_argument unless [x] and [y] have length [cols m] and
    [scratch] length [rows m]. *)
val gram_mv_into : t -> Vec.t -> scratch:Vec.t -> Vec.t -> unit

(** [add a b] and [sub a b] are entrywise. *)
val add : t -> t -> t

val sub : t -> t -> t

(** [scale m c] multiplies every entry by [c]. *)
val scale : t -> float -> t

(** [map f m] applies [f] entrywise. *)
val map : (float -> float) -> t -> t

(** [gram m] is [mᵀ·m], the symmetric positive semidefinite matrix whose
    spectral radius is [‖m‖²] (Section 2 of the paper). *)
val gram : t -> t

(** [leq a b] is the entrywise order [a ≤ b] used in norm property 4. *)
val leq : t -> t -> bool

(** [nonneg m] is [true] iff every entry is [>= 0]. *)
val nonneg : t -> bool

(** [is_symmetric ?eps m] tests [m = mᵀ] approximately. *)
val is_symmetric : ?eps:float -> t -> bool

(** [frobenius m] is the Frobenius norm, an upper bound on [‖m‖₂]. *)
val frobenius : t -> float

(** [norm1 m] is the maximum absolute column sum. *)
val norm1 : t -> float

(** [norm_inf m] is the maximum absolute row sum. *)
val norm_inf : t -> float

(** [permute_rows m p] returns the matrix whose row [i] is row [p.(i)] of
    [m]; [permute_cols] likewise for columns.  Norm property 7 states these
    leave the Euclidean norm unchanged. *)
val permute_rows : t -> int array -> t

val permute_cols : t -> int array -> t

(** [block_diag ms] embeds the given matrices as diagonal blocks of an
    otherwise null matrix (norm property 8: the norm of the result is the
    max of the block norms). *)
val block_diag : t list -> t

(** [submatrix m ~row ~col ~rows ~cols] extracts a copy of the block. *)
val submatrix : t -> row:int -> col:int -> rows:int -> cols:int -> t

(** [outer x y] is the rank-one product [x·yᵀ], the building block of the
    paper's [B_{i,j} = λ^{d_{i,j}} Λ0_{l_i} (Λ0_{r_j})ᵀ]. *)
val outer : Vec.t -> Vec.t -> t

(** [identical a b] is exact equality: same dimensions and the same bits
    in every entry, so that any computation on [a] gives bit for bit the
    result it gives on [b]. *)
val identical : t -> t -> bool

(** [hash m] hashes the dimensions and every entry's bits; [identical]
    matrices hash equal. *)
val hash : t -> int

(** [equal ?eps a b] is entrywise approximate equality. *)
val equal : ?eps:float -> t -> t -> bool

(** [row m i] is a copy of row [i]. *)
val row : t -> int -> Vec.t

(** [col m j] is a copy of column [j]. *)
val col : t -> int -> Vec.t

(** [pp] prints rows on separate lines with aligned 4-decimal entries. *)
val pp : Format.formatter -> t -> unit
