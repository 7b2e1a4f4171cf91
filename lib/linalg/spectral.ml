type options = { tol : float; max_iter : int; seed : int }

let default_options = { tol = 1e-12; max_iter = 10_000; seed = 42 }

(* Deterministic strictly positive start vector: a positive start is
   mandatory for Perron-Frobenius convergence on non-negative matrices and
   harmless for Gram operators. *)
let start_vector options n =
  let rng = Gossip_util.Prng.create options.seed in
  let v = Array.init n (fun _ -> 0.5 +. Gossip_util.Prng.float rng 1.0) in
  ignore (Vec.normalize v);
  v

(* Power iteration for a symmetric positive semidefinite operator given
   as [gram_into x y], which writes [G·x] into [y]; returns the dominant
   eigenvalue estimate.  Sweep k normalizes y = G·x to unit length and
   takes the Rayleigh quotient y·(G·y); G·y is then the next sweep's
   G·x, so each sweep applies G once.  Two buffers trade roles: [gx]
   holds G·x on entry to a sweep and becomes y, [gy] receives G·y.

   The stopping rule — relative change of the quotient below [tol] — is
   a heuristic, not a certificate.  The quotient approaches the dominant
   eigenvalue from below, so the value returned is an under-estimate, by
   more when the top eigenvalues are clustered; and when [max_iter]
   sweeps run out, the current under-estimate is returned with no
   warning. *)
let dominant_eig_psd options gram_into n =
  if n = 0 || options.max_iter < 1 then 0.0
  else begin
    let gx = ref (Array.make n 0.0) and gy = ref (start_vector options n) in
    gram_into !gy !gx;
    let eig = ref 0.0 in
    (try
       for _ = 1 to options.max_iter do
         let y = !gx in
         let ny = Vec.norm2 y in
         if ny = 0.0 then begin
           eig := 0.0;
           raise Exit
         end;
         Vec.scale_into y (1.0 /. ny);
         gram_into y !gy;
         let rayleigh = Vec.dot y !gy in
         if
           Float.abs (rayleigh -. !eig)
           <= options.tol *. Float.max 1.0 (Float.abs rayleigh)
         then begin
           eig := rayleigh;
           raise Exit
         end;
         eig := rayleigh;
         gx := !gy;
         gy := y
       done
     with Exit -> ());
    Float.max 0.0 !eig
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
