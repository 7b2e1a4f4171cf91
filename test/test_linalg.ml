(* Tests for Gossip_linalg: vectors, dense/sparse matrices, the delay
   polynomials p_i(λ), and spectral computations.  The property tests
   replay the matrix-norm facts of Section 2 of the paper. *)

open Gossip_linalg
module Numeric = Gossip_util.Numeric

let check = Alcotest.(check bool)
let checkf msg a b = Alcotest.(check (float 1e-9)) msg a b

(* --- Vec --- *)

let test_vec_ops () =
  let a = [| 3.0; 4.0 |] in
  checkf "norm2" 5.0 (Vec.norm2 a);
  checkf "norm1" 7.0 (Vec.norm1 a);
  checkf "norm_inf" 4.0 (Vec.norm_inf a);
  checkf "dot" 25.0 (Vec.dot a a);
  let b = Vec.sub a a in
  checkf "a - a = 0" 0.0 (Vec.norm2 b);
  let b' = Vec.add a (Vec.scale a (-1.0)) in
  checkf "a + (-1)a = 0" 0.0 (Vec.norm2 b');
  let d = Array.copy a in
  let n = Vec.normalize d in
  checkf "normalize returns old norm" 5.0 n;
  checkf "normalized has unit norm" 1.0 (Vec.norm2 d)

let test_vec_lambda_profile () =
  let v = Vec.lambda_profile 4 0.5 in
  check "profile values" true (Vec.equal v [| 1.0; 0.5; 0.25; 0.125 |])

let test_vec_concat () =
  let v = Vec.concat [ [| 1.0 |]; [| 2.0; 3.0 |]; [||] ] in
  check "concat" true (v = [| 1.0; 2.0; 3.0 |])

let test_vec_axpy () =
  let y = [| 1.0; 1.0 |] in
  Vec.axpy ~alpha:2.0 [| 1.0; 2.0 |] y;
  check "axpy" true (Vec.equal y [| 3.0; 5.0 |])

let test_vec_dim_mismatch () =
  Alcotest.check_raises "dot mismatch"
    (Invalid_argument "Vec.dot: dimension mismatch") (fun () ->
      ignore (Vec.dot [| 1.0 |] [| 1.0; 2.0 |]))

(* --- Dense --- *)

let m_of rows = Dense.of_arrays (Array.of_list (List.map Array.of_list rows))

let test_dense_mul () =
  let a = m_of [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  let b = m_of [ [ 5.0; 6.0 ]; [ 7.0; 8.0 ] ] in
  let c = Dense.mul a b in
  check "product" true
    (Dense.equal c (m_of [ [ 19.0; 22.0 ]; [ 43.0; 50.0 ] ]))

let test_dense_transpose_gram () =
  let a = m_of [ [ 1.0; 2.0; 3.0 ]; [ 4.0; 5.0; 6.0 ] ] in
  let t = Dense.transpose a in
  Alcotest.(check int) "transpose rows" 3 (Dense.rows t);
  check "gram is symmetric" true (Dense.is_symmetric (Dense.gram a));
  check "transpose entries" true (Dense.get t 2 1 = 6.0)

let test_dense_mv_tmv () =
  let a = m_of [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ]; [ 5.0; 6.0 ] ] in
  let x = [| 1.0; 1.0 |] in
  check "mv" true (Vec.equal (Dense.mv a x) [| 3.0; 7.0; 11.0 |]);
  let y = [| 1.0; 1.0; 1.0 |] in
  check "tmv = transpose mv" true
    (Vec.equal (Dense.tmv a y) (Dense.mv (Dense.transpose a) y))

let test_dense_permutations_norms () =
  let a = m_of [ [ 1.0; 2.0 ]; [ 3.0; 4.0 ] ] in
  checkf "norm1 (max col sum)" 6.0 (Dense.norm1 a);
  checkf "norm_inf (max row sum)" 7.0 (Dense.norm_inf a);
  checkf "frobenius" (sqrt 30.0) (Dense.frobenius a);
  let p = Dense.permute_rows a [| 1; 0 |] in
  check "row permutation" true
    (Dense.equal p (m_of [ [ 3.0; 4.0 ]; [ 1.0; 2.0 ] ]))

let test_dense_block_submatrix_outer () =
  let b1 = m_of [ [ 1.0 ] ] and b2 = m_of [ [ 2.0; 0.0 ]; [ 0.0; 3.0 ] ] in
  let bd = Dense.block_diag [ b1; b2 ] in
  Alcotest.(check int) "block rows" 3 (Dense.rows bd);
  check "block placement" true (Dense.get bd 1 1 = 2.0 && Dense.get bd 0 1 = 0.0);
  let sub = Dense.submatrix bd ~row:1 ~col:1 ~rows:2 ~cols:2 in
  check "submatrix extract" true (Dense.equal sub b2);
  let o = Dense.outer [| 1.0; 2.0 |] [| 3.0; 4.0 |] in
  check "outer" true (Dense.equal o (m_of [ [ 3.0; 4.0 ]; [ 6.0; 8.0 ] ]))

let test_dense_errors () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Dense.of_arrays: ragged rows") (fun () ->
      ignore (Dense.of_arrays [| [| 1.0 |]; [| 1.0; 2.0 |] |]));
  let a = Dense.identity 2 in
  Alcotest.check_raises "bad permutation"
    (Invalid_argument "Dense.permute_rows: not a permutation") (fun () ->
      ignore (Dense.permute_rows a [| 0; 0 |]))

(* --- Sparse --- *)

let test_sparse_roundtrip () =
  let d = m_of [ [ 0.0; 1.5; 0.0 ]; [ 2.0; 0.0; 0.0 ]; [ 0.0; 0.0; 3.0 ] ] in
  let s = Sparse.of_dense d in
  Alcotest.(check int) "nnz" 3 (Sparse.nnz s);
  check "roundtrip" true (Dense.equal (Sparse.to_dense s) d);
  checkf "get stored" 1.5 (Sparse.get s 0 1);
  checkf "get zero" 0.0 (Sparse.get s 0 0)

let test_sparse_duplicates () =
  let s = Sparse.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.0); (0, 0, 2.0); (1, 1, 0.0) ] in
  Alcotest.(check int) "dups merged, zeros dropped" 1 (Sparse.nnz s);
  checkf "summed" 3.0 (Sparse.get s 0 0)

let test_sparse_mv () =
  let d = m_of [ [ 1.0; 2.0 ]; [ 0.0; 3.0 ] ] in
  let s = Sparse.of_dense d in
  let x = [| 1.0; 2.0 |] in
  check "mv matches dense" true (Vec.equal (Sparse.mv s x) (Dense.mv d x));
  check "tmv matches dense" true (Vec.equal (Sparse.tmv s x) (Dense.tmv d x));
  check "transpose matches dense" true
    (Dense.equal (Sparse.to_dense (Sparse.transpose s)) (Dense.transpose d))

let test_sparse_row_stats () =
  let s = Sparse.of_triplets ~rows:3 ~cols:3 [ (0, 0, 1.0); (0, 2, 1.0); (2, 1, 5.0) ] in
  Alcotest.(check int) "row 0 nnz" 2 (Sparse.row_nnz s 0);
  Alcotest.(check int) "row 1 nnz" 0 (Sparse.row_nnz s 1);
  Alcotest.(check int) "max row nnz" 2 (Sparse.max_row_nnz s);
  check "nonneg" true (Sparse.nonneg s);
  check "scale" true (Sparse.get (Sparse.scale s 2.0) 2 1 = 10.0)

let test_sparse_errors () =
  Alcotest.check_raises "out of range entry"
    (Invalid_argument "Sparse.of_triplets: entry (2,0) out of 2x2") (fun () ->
      ignore (Sparse.of_triplets ~rows:2 ~cols:2 [ (2, 0, 1.0) ]))

(* --- Poly --- *)

let test_poly_algebra () =
  let p = Poly.of_coeffs [| 1.0; 2.0 |] (* 1 + 2X *) in
  let q = Poly.of_coeffs [| 0.0; 1.0; 1.0 |] (* X + X² *) in
  let r = Poly.mul p q in
  (* (1+2X)(X+X²) = X + 3X² + 2X³ *)
  check "mul" true (Poly.equal r (Poly.of_coeffs [| 0.0; 1.0; 3.0; 2.0 |]));
  checkf "eval" (Poly.eval r 2.0) (2.0 +. 12.0 +. 16.0);
  check "add" true
    (Poly.equal (Poly.add p q) (Poly.of_coeffs [| 1.0; 3.0; 1.0 |]));
  Alcotest.(check int) "degree" 3 (Poly.degree r);
  Alcotest.(check int) "degree zero poly" (-1) (Poly.degree Poly.zero);
  check "trailing zeros trimmed" true
    (Poly.equal (Poly.of_coeffs [| 1.0; 0.0; 0.0 |]) Poly.one)

let test_poly_delay () =
  (* p_3 = 1 + X² + X⁴ *)
  check "delay 3" true
    (Poly.equal (Poly.delay 3) (Poly.of_coeffs [| 1.0; 0.0; 1.0; 0.0; 1.0 |]));
  checkf "delay_eval matches poly eval" (Poly.eval (Poly.delay 4) 0.7)
    (Poly.delay_eval 4 0.7);
  checkf "delay_eval 0 terms" 0.0 (Poly.delay_eval 0 0.5);
  checkf "geometric" (0.5 +. 0.25 +. 0.125) (Poly.geometric 0.5 3);
  checkf "delay_eval_inf" (1.0 /. 0.75) (Poly.delay_eval_inf 0.5)

(* Identity used in Lemma 4.2's computation: p_i + λ^{2i}·p_j = p_{i+j}. *)
let prop_poly_composition =
  QCheck.Test.make ~name:"p_i + λ^2i·p_j = p_{i+j}" ~count:300
    QCheck.(triple (int_range 1 12) (int_range 1 12) (float_range 0.05 0.95))
    (fun (i, j, l) ->
      let lhs =
        Poly.delay_eval i l +. ((l ** float_of_int (2 * i)) *. Poly.delay_eval j l)
      in
      Numeric.approx_equal ~eps:1e-9 lhs (Poly.delay_eval (i + j) l))

(* Unbalancing inequality of Lemma 4.3: p_{i+1}·p_{j-1} < p_i·p_j, i >= j. *)
let prop_poly_unbalance =
  QCheck.Test.make ~name:"p_{i+1}·p_{j-1} <= p_i·p_j for i >= j" ~count:300
    QCheck.(triple (int_range 1 10) (int_range 1 10) (float_range 0.05 0.95))
    (fun (a, b, l) ->
      let i = max a b and j = min a b in
      Poly.delay_eval (i + 1) l *. Poly.delay_eval (j - 1) l
      <= (Poly.delay_eval i l *. Poly.delay_eval j l) +. 1e-12)

(* p_i(λ) increases to 1/(1-λ²). *)
let prop_poly_limit =
  QCheck.Test.make ~name:"p_i(λ) ↑ 1/(1-λ²)" ~count:200
    QCheck.(pair (int_range 1 30) (float_range 0.05 0.9))
    (fun (i, l) ->
      let v = Poly.delay_eval i l and w = Poly.delay_eval (i + 1) l in
      v <= w && w <= Poly.delay_eval_inf l +. 1e-12)

(* --- Spectral --- *)

let test_norm2_known () =
  (* diag(3, 1) has norm 3 *)
  let d = m_of [ [ 3.0; 0.0 ]; [ 0.0; 1.0 ] ] in
  checkf "diag norm" 3.0 (Spectral.norm2_dense d);
  (* rank-one xyᵀ has norm |x||y| *)
  let o = Dense.outer [| 1.0; 2.0 |] [| 2.0; 1.0 |] in
  check "rank one norm" true
    (Numeric.approx_equal ~eps:1e-9 (Spectral.norm2_dense o) 5.0)

let test_norm2_sparse_matches_dense () =
  let d =
    m_of [ [ 0.0; 0.5; 0.0 ]; [ 0.2; 0.0; 0.9 ]; [ 0.0; 0.4; 0.1 ] ]
  in
  let s = Sparse.of_dense d in
  check "sparse norm = dense norm" true
    (Numeric.approx_equal ~eps:1e-8 (Spectral.norm2_sparse s)
       (Spectral.norm2_dense d))

let test_spectral_radius () =
  (* [[0,1],[1,0]] has spectral radius 1 *)
  let a = m_of [ [ 0.0; 1.0 ]; [ 1.0; 0.0 ] ] in
  check "rho of permutation" true
    (Numeric.approx_equal ~eps:1e-6 (Spectral.spectral_radius_nonneg a) 1.0);
  (* [[1,1],[0,1]] (Jordan-ish): rho = 1 though norm > 1 *)
  let j = m_of [ [ 1.0; 1.0 ]; [ 0.0; 1.0 ] ] in
  let rho = Spectral.spectral_radius_nonneg j in
  let nrm = Spectral.norm2_dense j in
  check "rho <= norm" true (rho <= nrm +. 1e-6);
  check "norm of jordan > 1" true (nrm > 1.3)

let test_collatz_wielandt () =
  let a = m_of [ [ 0.0; 2.0 ]; [ 2.0; 0.0 ] ] in
  let lo, hi = Spectral.collatz_wielandt_bounds a [| 1.0; 1.0 |] in
  checkf "CW tight for symmetric" 2.0 lo;
  checkf "CW upper" 2.0 hi;
  check "semi-eigenvector accepted" true
    (Spectral.is_semi_eigenvector a [| 1.0; 1.0 |] 2.0);
  check "semi-eigenvector rejected below" false
    (Spectral.is_semi_eigenvector a [| 1.0; 1.0 |] 1.5)

(* Norm properties 1-8 of Section 2 on random non-negative matrices. *)
let gen_small_matrix =
  QCheck.Gen.(
    let* n = int_range 1 6 in
    let* m = int_range 1 6 in
    let* data = array_size (return (n * m)) (float_bound_inclusive 1.0) in
    return (Dense.init n m (fun i j -> data.((i * m) + j))))

let arb_small_matrix = QCheck.make gen_small_matrix

let prop_norm_nonneg_zero =
  QCheck.Test.make ~name:"norm >= 0, = 0 iff M = 0 (props 1-2)" ~count:100
    arb_small_matrix (fun m ->
      let n = Spectral.norm2_dense m in
      n >= 0.0
      && (n > 1e-9 || Dense.equal m (Dense.create (Dense.rows m) (Dense.cols m) 0.0)))

let prop_norm_scale =
  QCheck.Test.make ~name:"‖aM‖ = |a|·‖M‖ (prop 3)" ~count:100
    QCheck.(pair arb_small_matrix (float_range (-3.0) 3.0))
    (fun (m, a) ->
      Numeric.approx_equal ~eps:1e-6
        (Spectral.norm2_dense (Dense.scale m a))
        (Float.abs a *. Spectral.norm2_dense m))

let prop_norm_monotone =
  QCheck.Test.make ~name:"M <= N entrywise => ‖M‖ <= ‖N‖ (prop 4)" ~count:100
    QCheck.(pair arb_small_matrix arb_small_matrix)
    (fun (m, bump) ->
      let bump =
        if Dense.rows bump = Dense.rows m && Dense.cols bump = Dense.cols m
        then bump
        else Dense.create (Dense.rows m) (Dense.cols m) 0.1
      in
      let n = Dense.add m (Dense.map Float.abs bump) in
      Spectral.norm2_dense m <= Spectral.norm2_dense n +. 1e-7)

let prop_norm_triangle_submult =
  QCheck.Test.make ~name:"‖M+N‖<=‖M‖+‖N‖ and ‖MN‖<=‖M‖‖N‖ (props 5-6)"
    ~count:100 arb_small_matrix (fun m ->
      let nt = Dense.transpose m in
      let sum_ok =
        Spectral.norm2_dense (Dense.add m m)
        <= (2.0 *. Spectral.norm2_dense m) +. 1e-7
      in
      let prod = Dense.mul m nt in
      let prod_ok =
        Spectral.norm2_dense prod
        <= (Spectral.norm2_dense m *. Spectral.norm2_dense nt) +. 1e-7
      in
      sum_ok && prod_ok)

let prop_norm_permutation_invariant =
  QCheck.Test.make ~name:"row/col permutations preserve the norm (prop 7)"
    ~count:100
    QCheck.(pair arb_small_matrix (int_range 0 1000))
    (fun (m, seed) ->
      let rng = Gossip_util.Prng.create seed in
      let p = Array.init (Dense.rows m) Fun.id in
      Gossip_util.Prng.shuffle rng p;
      Numeric.approx_equal ~eps:1e-6
        (Spectral.norm2_dense (Dense.permute_rows m p))
        (Spectral.norm2_dense m))

let prop_norm_block_diag =
  QCheck.Test.make ~name:"‖diag(M1, M2)‖ = max ‖Mi‖ (prop 8)" ~count:100
    QCheck.(pair arb_small_matrix arb_small_matrix)
    (fun (a, b) ->
      Numeric.approx_equal ~eps:1e-6
        (Spectral.norm2_dense (Dense.block_diag [ a; b ]))
        (Float.max (Spectral.norm2_dense a) (Spectral.norm2_dense b)))

let prop_norm_sq_is_rho_gram =
  QCheck.Test.make ~name:"‖M‖² = ρ(MᵀM)" ~count:100 arb_small_matrix
    (fun m ->
      let n = Spectral.norm2_dense m in
      let rho = Spectral.spectral_radius_nonneg (Dense.gram m) in
      Numeric.approx_equal ~eps:1e-5 (n *. n) rho)

(* --- Lanczos --- *)

let test_lanczos_tridiagonal () =
  (* [2, -1] tridiagonal: eigenvalues 2 - 2cos(kπ/(n+1)) *)
  let n = 12 in
  let diag = Array.make n 2.0 and off = Array.make (n - 1) (-1.0) in
  let eigs = Lanczos.tridiagonal_eigenvalues ~diag ~off in
  let ok = ref true in
  Array.iteri
    (fun k e ->
      let expect =
        2.0 -. (2.0 *. cos (float_of_int (k + 1) *. Float.pi /. float_of_int (n + 1)))
      in
      if Float.abs (e -. expect) > 1e-9 then ok := false)
    eigs;
  check "laplacian eigenvalues" true !ok

let test_lanczos_norm_agrees () =
  let m = m_of [ [ 3.0; 1.0; 0.0 ]; [ 0.0; 2.0; 0.5 ]; [ 0.2; 0.0; 1.0 ] ] in
  check "lanczos = power iteration" true
    (Numeric.approx_equal ~eps:1e-8 (Lanczos.norm2_dense m)
       (Spectral.norm2_dense m));
  let sp = Sparse.of_dense m in
  check "sparse variant agrees" true
    (Numeric.approx_equal ~eps:1e-8 (Lanczos.norm2_sparse sp)
       (Spectral.norm2_sparse sp))

let test_lanczos_second_eigenvalue () =
  (* diag(5, 3, 1): largest 5, second 3 *)
  let d = m_of [ [ 5.0; 0.0; 0.0 ]; [ 0.0; 3.0; 0.0 ]; [ 0.0; 0.0; 1.0 ] ] in
  let r = Lanczos.symmetric ~dim:3 (Dense.mv d) in
  check "largest 5" true (Numeric.approx_equal ~eps:1e-8 r.Lanczos.largest 5.0);
  check "second 3" true
    (match r.Lanczos.second with
    | Some s -> Numeric.approx_equal ~eps:1e-6 s 3.0
    | None -> false)

let test_lanczos_degenerate () =
  let r = Lanczos.symmetric ~dim:0 (fun v -> v) in
  check "dim 0" true (r.Lanczos.largest = 0.0);
  let r1 = Lanczos.symmetric ~dim:1 (fun v -> Vec.scale v 4.0) in
  check "dim 1" true (Numeric.approx_equal ~eps:1e-9 r1.Lanczos.largest 4.0)

let prop_lanczos_matches_power =
  QCheck.Test.make ~name:"Lanczos norm = power-iteration norm" ~count:60
    arb_small_matrix (fun m ->
      Numeric.approx_equal ~eps:1e-5 (Lanczos.norm2_dense m)
        (Spectral.norm2_dense m))

(* Lemma 2.1: a positive semi-eigenvector certifies ρ(M) <= e. *)
let prop_semi_eigen_bounds_rho =
  QCheck.Test.make ~name:"Lemma 2.1: positive semi-eigenvector bounds ρ"
    ~count:100
    QCheck.(pair arb_small_matrix (int_range 0 1000))
    (fun (m, seed) ->
      QCheck.assume (Dense.rows m = Dense.cols m);
      let n = Dense.rows m in
      let rng = Gossip_util.Prng.create seed in
      let x = Array.init n (fun _ -> 0.5 +. Gossip_util.Prng.float rng 1.0) in
      (* smallest e making x a semi-eigenvector *)
      let y = Dense.mv m x in
      let e =
        Array.fold_left Float.max 0.0 (Array.mapi (fun i yi -> yi /. x.(i)) y)
      in
      Spectral.spectral_radius_nonneg m <= e +. 1e-6)

(* --- Kernel bit-identity ---

   Test-only reference: the earlier power iteration, kept verbatim — two
   Gram applies per sweep, a fresh vector per product — over matrix-vector
   loops written from the definition.  The production loop applies the
   Gram operator once per sweep, in place; every norm must still equal
   this reference bit for bit. *)

let ref_start_vector (options : Spectral.options) n =
  let rng = Gossip_util.Prng.create options.seed in
  let v = Array.init n (fun _ -> 0.5 +. Gossip_util.Prng.float rng 1.0) in
  ignore (Vec.normalize v);
  v

let ref_dominant_eig_psd (options : Spectral.options) apply n =
  if n = 0 then 0.0
  else begin
    let x = ref (ref_start_vector options n) in
    let eig = ref 0.0 in
    (try
       for _ = 1 to options.max_iter do
         let y = apply !x in
         let ny = Vec.norm2 y in
         if ny = 0.0 then begin
           eig := 0.0;
           raise Exit
         end;
         Vec.scale_into y (1.0 /. ny);
         let rayleigh = Vec.dot y (apply y) in
         if
           Float.abs (rayleigh -. !eig)
           <= options.tol *. Float.max 1.0 (Float.abs rayleigh)
         then begin
           eig := rayleigh;
           raise Exit
         end;
         eig := rayleigh;
         x := y
       done
     with Exit -> ());
    Float.max 0.0 !eig
  end

let ref_mv m x =
  Array.init (Dense.rows m) (fun i ->
      let acc = ref 0.0 in
      for j = 0 to Dense.cols m - 1 do
        acc := !acc +. (Dense.get m i j *. x.(j))
      done;
      !acc)

let ref_tmv m x =
  let y = Array.make (Dense.cols m) 0.0 in
  for i = 0 to Dense.rows m - 1 do
    let xi = x.(i) in
    if xi <> 0.0 then
      for j = 0 to Dense.cols m - 1 do
        y.(j) <- y.(j) +. (Dense.get m i j *. xi)
      done
  done;
  y

let ref_norm2 options m =
  if Dense.rows m = 0 || Dense.cols m = 0 then 0.0
  else
    sqrt
      (ref_dominant_eig_psd options
         (fun x -> ref_tmv m (ref_mv m x))
         (Dense.cols m))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* All three norm entry points against the reference, under [options]. *)
let kernel_matches_reference options m =
  let expected = ref_norm2 options m in
  let rows = Dense.rows m and cols = Dense.cols m in
  same_bits expected (Spectral.norm2_dense ~options m)
  && same_bits expected (Spectral.norm2_sparse ~options (Sparse.of_dense m))
  && same_bits expected
       (Spectral.norm2_of_ops ~options ~rows ~cols ~mv:(Dense.mv m)
          ~tmv:(Dense.tmv m) ())

let gen_kernel_matrix =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let* m = int_range 1 12 in
    let* sparsity = float_bound_inclusive 1.0 in
    let* data =
      array_size
        (return (n * m))
        (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
    in
    return
      (Dense.init n m (fun i j ->
           let keep, v = data.((i * m) + j) in
           if keep < sparsity then v else 0.0)))

let prop_kernel_bit_identical =
  QCheck.Test.make ~name:"norm kernels = two-apply reference, bit for bit"
    ~count:200
    (QCheck.make gen_kernel_matrix)
    (kernel_matches_reference Spectral.default_options)

let test_kernel_bit_identical_edges () =
  let opts = Spectral.default_options in
  let row k = Dense.init 1 k (fun _ j -> 0.1 *. float_of_int (j + 1)) in
  let col k = Dense.init k 1 (fun i _ -> 0.3 +. float_of_int i) in
  List.iter
    (fun k ->
      check (Printf.sprintf "1x%d" k) true (kernel_matches_reference opts (row k));
      check (Printf.sprintf "%dx1" k) true (kernel_matches_reference opts (col k));
      check (Printf.sprintf "zero %dx%d" k (k + 1)) true
        (kernel_matches_reference opts (Dense.create k (k + 1) 0.0)))
    [ 1; 2; 5; 9 ];
  check "0x3" true (kernel_matches_reference opts (Dense.create 0 3 0.0));
  (* Clustered top singular values converge slowly: a few sweeps exhaust
     [max_iter], and the capped estimate must still match. *)
  let clustered =
    m_of [ [ 1.0; 0.0; 0.0 ]; [ 0.0; 0.999; 0.0 ]; [ 0.0; 0.0; 0.5 ] ]
  in
  List.iter
    (fun max_iter ->
      let options = { opts with Spectral.max_iter } in
      check (Printf.sprintf "max_iter=%d" max_iter) true
        (kernel_matches_reference options clustered);
      check (Printf.sprintf "max_iter=%d, tol=0" max_iter) true
        (kernel_matches_reference { options with Spectral.tol = 0.0 }
           (Dense.init 4 6 (fun i j -> float_of_int (((i * 7) + j) mod 5)))))
    [ 0; 1; 2; 3; 7 ];
  check "capped estimate below the norm" true
    (Spectral.norm2_dense ~options:{ opts with Spectral.max_iter = 3 } clustered
    < 1.0)

let test_gram_mv_into () =
  let m = m_of [ [ 1.0; 2.0; 0.0 ]; [ 0.0; 1.0; 3.0 ] ] in
  let x = [| 1.0; -1.0; 2.0 |] in
  let y = Array.make 3 nan in
  Dense.gram_mv_into m x ~scratch:(Array.make 2 0.0) y;
  check "equals tmv (mv x)" true
    (Array.for_all2 same_bits y (Dense.tmv m (Dense.mv m x)));
  let raises f =
    match f () with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  check "short x" true
    (raises (fun () ->
         Dense.gram_mv_into m [| 1.0 |] ~scratch:(Array.make 2 0.0)
           (Array.make 3 0.0)));
  check "short scratch" true
    (raises (fun () ->
         Dense.gram_mv_into m x ~scratch:(Array.make 1 0.0) (Array.make 3 0.0)));
  check "long y" true
    (raises (fun () ->
         Dense.gram_mv_into m x ~scratch:(Array.make 2 0.0) (Array.make 4 0.0)))

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("vec ops", `Quick, test_vec_ops);
    ("vec lambda profile", `Quick, test_vec_lambda_profile);
    ("vec concat", `Quick, test_vec_concat);
    ("vec axpy", `Quick, test_vec_axpy);
    ("vec dim mismatch", `Quick, test_vec_dim_mismatch);
    ("dense mul", `Quick, test_dense_mul);
    ("dense transpose/gram", `Quick, test_dense_transpose_gram);
    ("dense mv/tmv", `Quick, test_dense_mv_tmv);
    ("dense permutations and norms", `Quick, test_dense_permutations_norms);
    ("dense block/submatrix/outer", `Quick, test_dense_block_submatrix_outer);
    ("dense errors", `Quick, test_dense_errors);
    ("sparse roundtrip", `Quick, test_sparse_roundtrip);
    ("sparse duplicate triplets", `Quick, test_sparse_duplicates);
    ("sparse mv/tmv/transpose", `Quick, test_sparse_mv);
    ("sparse row stats", `Quick, test_sparse_row_stats);
    ("sparse errors", `Quick, test_sparse_errors);
    ("poly algebra", `Quick, test_poly_algebra);
    ("poly delay family", `Quick, test_poly_delay);
    ("spectral known norms", `Quick, test_norm2_known);
    ("spectral sparse=dense", `Quick, test_norm2_sparse_matches_dense);
    ("spectral radius", `Quick, test_spectral_radius);
    ("collatz-wielandt", `Quick, test_collatz_wielandt);
    q prop_poly_composition;
    q prop_poly_unbalance;
    q prop_poly_limit;
    q prop_norm_nonneg_zero;
    q prop_norm_scale;
    q prop_norm_monotone;
    q prop_norm_triangle_submult;
    q prop_norm_permutation_invariant;
    q prop_norm_block_diag;
    q prop_norm_sq_is_rho_gram;
    q prop_semi_eigen_bounds_rho;
    ("lanczos tridiagonal", `Quick, test_lanczos_tridiagonal);
    ("lanczos norm agrees", `Quick, test_lanczos_norm_agrees);
    ("lanczos second eigenvalue", `Quick, test_lanczos_second_eigenvalue);
    ("lanczos degenerate dims", `Quick, test_lanczos_degenerate);
    q prop_lanczos_matches_power;
    q prop_kernel_bit_identical;
    ("kernel bit-identical edge cases", `Quick, test_kernel_bit_identical_edges);
    ("dense gram_mv_into", `Quick, test_gram_mv_into);
  ]
