(* Test-only reference for the Euclidean norm: the top eigenvalue of the
   explicit Gram matrix MᵀM by cyclic Jacobi rotations, an algorithm
   independent of the Krylov kernel in [Spectral]; its error is a few
   ulps of ‖MᵀM‖. *)

module Dense = Gossip_linalg.Dense

let jacobi_top_eigenvalue g =
  let n = Dense.rows g in
  let a = Array.init n (fun i -> Array.init n (fun j -> Dense.get g i j)) in
  let off () =
    let s = ref 0.0 in
    for p = 0 to n - 1 do
      for q = p + 1 to n - 1 do
        s := !s +. (a.(p).(q) *. a.(p).(q))
      done
    done;
    !s
  in
  let rotate p q =
    let apq = a.(p).(q) in
    if apq <> 0.0 then begin
      let theta = (a.(q).(q) -. a.(p).(p)) /. (2.0 *. apq) in
      let t =
        if Float.abs theta > 1e150 then 0.5 /. theta
        else
          Float.copy_sign 1.0 theta
          /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.0))
      in
      let c = 1.0 /. sqrt ((t *. t) +. 1.0) in
      let s = t *. c in
      for k = 0 to n - 1 do
        if k <> p && k <> q then begin
          let akp = a.(k).(p) and akq = a.(k).(q) in
          a.(k).(p) <- (c *. akp) -. (s *. akq);
          a.(p).(k) <- a.(k).(p);
          a.(k).(q) <- (s *. akp) +. (c *. akq);
          a.(q).(k) <- a.(k).(q)
        end
      done;
      a.(p).(p) <- a.(p).(p) -. (t *. apq);
      a.(q).(q) <- a.(q).(q) +. (t *. apq);
      a.(p).(q) <- 0.0;
      a.(q).(p) <- 0.0
    end
  in
  let sweeps = ref 0 in
  while off () > 0.0 && !sweeps < 100 do
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        rotate p q
      done
    done;
    incr sweeps
  done;
  let top = ref 0.0 in
  for i = 0 to n - 1 do
    top := Float.max !top a.(i).(i)
  done;
  !top

let norm2_dense m =
  if Dense.rows m = 0 || Dense.cols m = 0 then 0.0
  else sqrt (jacobi_top_eigenvalue (Dense.gram m))


(* A second, slower reference: power iteration on MᵀM, two products per
   sweep, from the all-ones vector (not orthogonal to the top singular
   vector when M is non-negative), stopping when the Rayleigh quotient
   changes by at most [tol] relative or after [max_iter] sweeps.  Its
   error shrinks with the gap between the top two singular values, so it
   serves for loose comparisons only. *)
let power_norm2_dense ?(tol = 1e-13) ?(max_iter = 100_000) m =
  let rows = Dense.rows m and cols = Dense.cols m in
  if rows = 0 || cols = 0 then 0.0
  else begin
    let gram x = Dense.tmv m (Dense.mv m x) in
    let normalize v =
      let s = sqrt (Array.fold_left (fun acc a -> acc +. (a *. a)) 0.0 v) in
      if s = 0.0 then None else Some (Array.map (fun a -> a /. s) v)
    in
    let dot a b =
      let s = ref 0.0 in
      Array.iteri (fun i ai -> s := !s +. (ai *. b.(i))) a;
      !s
    in
    let rec loop x eig k =
      let y = gram x in
      let rayleigh = dot x y in
      if
        k >= max_iter
        || Float.abs (rayleigh -. eig) <= tol *. Float.max 1.0 rayleigh
      then rayleigh
      else
        match normalize y with
        | None -> 0.0
        | Some x' -> loop x' rayleigh (k + 1)
    in
    match normalize (Array.make cols 1.0) with
    | None -> 0.0
    | Some x -> sqrt (Float.max 0.0 (loop x 0.0 1))
  end
