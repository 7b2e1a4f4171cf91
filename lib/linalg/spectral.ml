type options = { tol : float; max_iter : int; seed : int }

let default_options = { tol = 1e-12; max_iter = 10_000; seed = 42 }

(* Deterministic strictly positive start vector: a positive start is
   mandatory for Perron-Frobenius convergence on non-negative matrices,
   and it has a component along the Perron vector of a Gram operator
   MᵀM ≥ 0. *)
let start_vector options n =
  let rng = Gossip_util.Prng.create options.seed in
  let v = Array.init n (fun _ -> 0.5 +. Gossip_util.Prng.float rng 1.0) in
  ignore (Vec.normalize v);
  v

(* The symmetric tridiagonal T with diagonal [diag.(0..k-1)] and
   off-diagonal [off.(0..k-2)].  [sturm_count] is the number of its
   eigenvalues strictly below [x]: the negative pivots of the LDLᵀ
   factorization of T - xI.  A zero pivot is replaced by a tiny negative
   one, scaled to the largest off-diagonal entry as LAPACK's [dstebz]
   does. *)
let sturm_count ~diag ~off k ~pivmin x =
  let count = ref 0 and d = ref 1.0 in
  for i = 0 to k - 1 do
    let b2 = if i = 0 then 0.0 else off.(i - 1) *. off.(i - 1) in
    let di = diag.(i) -. x -. (b2 /. !d) in
    let di = if Float.abs di < pivmin then -.pivmin else di in
    if di < 0.0 then incr count;
    d := di
  done;
  !count

(* The largest eigenvalue of T by bisection on the Sturm count, from the
   bracket [max_i T_ii, Gershgorin's upper bound] until the interval
   stops shrinking; returns its upper end. *)
let tridiagonal_top ~diag ~off k =
  let lo = ref neg_infinity and hi = ref neg_infinity and bmax2 = ref 0.0 in
  for i = 0 to k - 1 do
    let below = if i > 0 then Float.abs off.(i - 1) else 0.0
    and above = if i < k - 1 then Float.abs off.(i) else 0.0 in
    lo := Float.max !lo diag.(i);
    hi := Float.max !hi (diag.(i) +. below +. above);
    bmax2 := Float.max !bmax2 (above *. above)
  done;
  let pivmin = Float.min_float *. Float.max 1.0 !bmax2 in
  let rec bisect lo hi =
    let mid = lo +. (0.5 *. (hi -. lo)) in
    if mid <= lo || mid >= hi then hi
    else if sturm_count ~diag ~off k ~pivmin mid = k then bisect lo mid
    else bisect mid hi
  in
  bisect !lo !hi

let tridiagonal_top_eigenvalue ~diag ~off =
  let k = Array.length diag in
  if Array.length off <> max 0 (k - 1) then
    invalid_arg "Spectral.tridiagonal_top_eigenvalue: off-diagonal length";
  if k = 0 then invalid_arg "Spectral.tridiagonal_top_eigenvalue: empty";
  tridiagonal_top ~diag ~off k

(* |s_k|, the last component of T's unit eigenvector for its eigenvalue
   [theta]: the recurrence (T - θI)s = 0 solved upward from s_k = 1,
   rescaled whenever it grows large, then normalized. *)
let last_component ~diag ~off k theta =
  let last = ref 1.0 and sumsq = ref 1.0 in
  let below = ref 1.0 and below2 = ref 0.0 in
  for i = k - 1 downto 1 do
    let above = if i < k - 1 then off.(i) *. !below2 else 0.0 in
    let s = (((theta -. diag.(i)) *. !below) -. above) /. off.(i - 1) in
    below2 := !below;
    below := s;
    sumsq := !sumsq +. (s *. s);
    if Float.abs s > 1e100 then begin
      below := !below *. 1e-100;
      below2 := !below2 *. 1e-100;
      last := !last *. 1e-100;
      sumsq := !sumsq *. 1e-200
    end
  done;
  Float.abs !last /. sqrt !sumsq

(* Lanczos on a symmetric positive semidefinite operator given as
   [gram_into x y], which writes [G·x] into [y]; returns the largest
   eigenvalue of the tridiagonal T_k = VᵀGV, where V = [v_1 .. v_k] is an
   orthonormal basis of the Krylov space of [start_vector].  Step k
   applies G once to v_k, takes α_k = v_kᵀGv_k, and orthogonalizes the
   product against the whole basis (full reorthogonalization), so V stays
   orthonormal to rounding and θ = λ_max(T_k) is a Rayleigh–Ritz value:
   θ ≤ λ_max(G), equal to it to rounding once the Krylov space is
   exhausted.  The residual's norm β_k becomes v_(k+1)'s scale.

   Stops when k = n, on breakdown (β_k at rounding level relative to θ:
   the Krylov space is invariant, and holds the top eigenvector because
   the start has a component along it), when the Ritz residual estimate
   β_k·|s_k| ≤ tol·θ, or when k = [max_iter], silently.  The basis
   vectors are allocated as the space grows, at most [min n max_iter]. *)
let dominant_eig_psd options gram_into n =
  let kmax = min n options.max_iter in
  if kmax < 1 then 0.0
  else begin
    let basis = Array.make kmax [||] in
    let alpha = Array.make kmax 0.0 and beta = Array.make kmax 0.0 in
    let w = Array.make n 0.0 in
    basis.(0) <- start_vector options n;
    let rec step k =
      let v = basis.(k - 1) in
      gram_into v w;
      let a = Vec.dot w v in
      alpha.(k - 1) <- a;
      Vec.axpy ~alpha:(-.a) v w;
      if k > 1 then Vec.axpy ~alpha:(-.beta.(k - 2)) basis.(k - 2) w;
      for j = 0 to k - 1 do
        let u = basis.(j) in
        Vec.axpy ~alpha:(-.Vec.dot w u) u w
      done;
      let b = Vec.norm2 w in
      beta.(k - 1) <- b;
      let theta = tridiagonal_top ~diag:alpha ~off:beta k in
      if
        k = kmax
        || b <= float_of_int n *. epsilon_float *. theta
        || b *. last_component ~diag:alpha ~off:beta k theta
           <= options.tol *. theta
      then theta
      else begin
        let next = Array.make n 0.0 in
        let inv = 1.0 /. b in
        for i = 0 to n - 1 do
          next.(i) <- inv *. w.(i)
        done;
        basis.(k) <- next;
        step (k + 1)
      end
    in
    Float.max 0.0 (step 1)
  end

let norm2_of_gram options ~rows ~cols gram_into =
  if rows = 0 || cols = 0 then 0.0
  else sqrt (dominant_eig_psd options gram_into cols)

let norm2_of_ops ?(options = default_options) ~rows ~cols ~mv ~tmv () =
  norm2_of_gram options ~rows ~cols (fun x y ->
      Array.blit (tmv (mv x)) 0 y 0 cols)

let norm2_dense ?(options = default_options) m =
  let rows = Dense.rows m in
  let scratch = Array.make rows 0.0 in
  norm2_of_gram options ~rows ~cols:(Dense.cols m) (fun x y ->
      Dense.gram_mv_into m x ~scratch y)

let norm2_sparse ?(options = default_options) m =
  norm2_of_ops ~options ~rows:(Sparse.rows m) ~cols:(Sparse.cols m)
    ~mv:(Sparse.mv m) ~tmv:(Sparse.tmv m) ()

let spectral_radius_nonneg ?(options = default_options) m =
  if Dense.rows m <> Dense.cols m then
    invalid_arg "Spectral.spectral_radius_nonneg: matrix not square";
  if not (Dense.nonneg m) then
    invalid_arg "Spectral.spectral_radius_nonneg: negative entry";
  let n = Dense.rows m in
  if n = 0 then 0.0
  else begin
    (* ρ(M) = sqrt(ρ(M²ᵀM²))^(1/2)-style tricks are unreliable for
       non-normal M; instead we use the fact that for non-negative M,
       ρ(M) = lim ‖M^k x‖ / ‖M^(k-1) x‖ for positive x, and that the
       iteration below stabilizes on that ratio. *)
    let x = ref (start_vector options n) in
    let estimate = ref 0.0 in
    (try
       for _ = 1 to options.max_iter do
         let y = Dense.mv m !x in
         let ny = Vec.norm2 y in
         if ny = 0.0 then begin
           estimate := 0.0;
           raise Exit
         end;
         Vec.scale_into y (1.0 /. ny);
         if
           Float.abs (ny -. !estimate)
           <= options.tol *. Float.max 1.0 (Float.abs ny)
         then begin
           estimate := ny;
           raise Exit
         end;
         estimate := ny;
         x := y
       done
     with Exit -> ());
    !estimate
  end

let collatz_wielandt_bounds m x =
  if Dense.rows m <> Dense.cols m then
    invalid_arg "Spectral.collatz_wielandt_bounds: matrix not square";
  if Array.exists (fun v -> v <= 0.0) x then
    invalid_arg "Spectral.collatz_wielandt_bounds: vector not positive";
  let y = Dense.mv m x in
  let lo = ref infinity and hi = ref neg_infinity in
  Array.iteri
    (fun i yi ->
      let r = yi /. x.(i) in
      if r < !lo then lo := r;
      if r > !hi then hi := r)
    y;
  (!lo, !hi)

let is_semi_eigenvector ?(eps = 1e-9) m x e =
  Array.length x = Dense.cols m
  && Dense.rows m = Dense.cols m
  &&
  let y = Dense.mv m x in
  Array.for_all2
    (fun yi xi -> yi <= (e *. xi) +. (eps *. Float.max 1.0 (Float.abs (e *. xi))))
    y x
