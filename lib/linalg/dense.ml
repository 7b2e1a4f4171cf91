type t = { rows : int; cols : int; data : float array }

let create rows cols x =
  if rows < 0 || cols < 0 then invalid_arg "Dense.create: negative dimension";
  { rows; cols; data = Array.make (max 1 (rows * cols)) x }

let init rows cols f =
  let m = create rows cols 0.0 in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let of_arrays arr =
  let rows = Array.length arr in
  if rows = 0 then create 0 0 0.0
  else begin
    let cols = Array.length arr.(0) in
    Array.iter
      (fun r ->
        if Array.length r <> cols then invalid_arg "Dense.of_arrays: ragged rows")
      arr;
    init rows cols (fun i j -> arr.(i).(j))
  end

let rows m = m.rows
let cols m = m.cols

let get m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Dense.get: index out of bounds";
  m.data.((i * m.cols) + j)

let set m i j x =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg "Dense.set: index out of bounds";
  m.data.((i * m.cols) + j) <- x

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let copy m = { m with data = Array.copy m.data }

let transpose m = init m.cols m.rows (fun i j -> m.data.((j * m.cols) + i))

let mul a b =
  if a.cols <> b.rows then invalid_arg "Dense.mul: dimension mismatch";
  let c = create a.rows b.cols 0.0 in
  for i = 0 to a.rows - 1 do
    for k = 0 to a.cols - 1 do
      let aik = a.data.((i * a.cols) + k) in
      if aik <> 0.0 then
        for j = 0 to b.cols - 1 do
          c.data.((i * b.cols) + j) <-
            c.data.((i * b.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
        done
    done
  done;
  c

(* The two product loops.  They trust their caller for the dimensions —
   [x] and [y] sized to [m], and [m.data] holds at least [rows * cols]
   entries — so every public entry point below checks them once per
   call and the loops read without bounds checks. *)
let mv_loop m x y =
  let cols = m.cols and data = m.data in
  for i = 0 to m.rows - 1 do
    let base = i * cols in
    let acc = ref 0.0 in
    for j = 0 to cols - 1 do
      acc := !acc +. (Array.unsafe_get data (base + j) *. Array.unsafe_get x j)
    done;
    Array.unsafe_set y i !acc
  done

let tmv_loop m x y =
  let cols = m.cols and data = m.data in
  Array.fill y 0 cols 0.0;
  for i = 0 to m.rows - 1 do
    let xi = Array.unsafe_get x i in
    if xi <> 0.0 then begin
      let base = i * cols in
      for j = 0 to cols - 1 do
        Array.unsafe_set y j
          (Array.unsafe_get y j +. (Array.unsafe_get data (base + j) *. xi))
      done
    end
  done

let mv m x =
  if Array.length x <> m.cols then invalid_arg "Dense.mv: dimension mismatch";
  let y = Array.make m.rows 0.0 in
  mv_loop m x y;
  y

let tmv m x =
  if Array.length x <> m.rows then invalid_arg "Dense.tmv: dimension mismatch";
  let y = Array.make m.cols 0.0 in
  tmv_loop m x y;
  y

let gram_mv_into m x ~scratch y =
  if
    Array.length x <> m.cols
    || Array.length scratch <> m.rows
    || Array.length y <> m.cols
  then invalid_arg "Dense.gram_mv_into: dimension mismatch";
  mv_loop m x scratch;
  tmv_loop m scratch y

let same_dims name a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg (name ^ ": dimension mismatch")

let add a b =
  same_dims "Dense.add" a b;
  { a with data = Array.mapi (fun i x -> x +. b.data.(i)) a.data }

let sub a b =
  same_dims "Dense.sub" a b;
  { a with data = Array.mapi (fun i x -> x -. b.data.(i)) a.data }

let scale m c = { m with data = Array.map (fun x -> c *. x) m.data }

let map f m = { m with data = Array.map f m.data }

let gram m = mul (transpose m) m

let leq a b =
  same_dims "Dense.leq" a b;
  Array.for_all2 (fun x y -> x <= y) a.data b.data

let nonneg m = Array.for_all (fun x -> x >= 0.0) m.data

let is_symmetric ?(eps = 1e-9) m =
  m.rows = m.cols
  && (let ok = ref true in
      for i = 0 to m.rows - 1 do
        for j = i + 1 to m.cols - 1 do
          if
            not
              (Gossip_util.Numeric.approx_equal ~eps
                 m.data.((i * m.cols) + j)
                 m.data.((j * m.cols) + i))
          then ok := false
        done
      done;
      !ok)

let frobenius m =
  sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0.0 m.data)

let norm1 m =
  let best = ref 0.0 in
  for j = 0 to m.cols - 1 do
    let s = ref 0.0 in
    for i = 0 to m.rows - 1 do
      s := !s +. Float.abs m.data.((i * m.cols) + j)
    done;
    if !s > !best then best := !s
  done;
  !best

let norm_inf m =
  let best = ref 0.0 in
  for i = 0 to m.rows - 1 do
    let s = ref 0.0 in
    for j = 0 to m.cols - 1 do
      s := !s +. Float.abs m.data.((i * m.cols) + j)
    done;
    if !s > !best then best := !s
  done;
  !best

let valid_permutation p n =
  Array.length p = n
  &&
  let seen = Array.make n false in
  Array.for_all
    (fun i ->
      if i < 0 || i >= n || seen.(i) then false
      else begin
        seen.(i) <- true;
        true
      end)
    p

let permute_rows m p =
  if not (valid_permutation p m.rows) then
    invalid_arg "Dense.permute_rows: not a permutation";
  init m.rows m.cols (fun i j -> m.data.((p.(i) * m.cols) + j))

let permute_cols m p =
  if not (valid_permutation p m.cols) then
    invalid_arg "Dense.permute_cols: not a permutation";
  init m.rows m.cols (fun i j -> m.data.((i * m.cols) + p.(j)))

let block_diag ms =
  let total_rows = List.fold_left (fun acc m -> acc + m.rows) 0 ms in
  let total_cols = List.fold_left (fun acc m -> acc + m.cols) 0 ms in
  let result = create total_rows total_cols 0.0 in
  let _ =
    List.fold_left
      (fun (r0, c0) m ->
        for i = 0 to m.rows - 1 do
          for j = 0 to m.cols - 1 do
            set result (r0 + i) (c0 + j) m.data.((i * m.cols) + j)
          done
        done;
        (r0 + m.rows, c0 + m.cols))
      (0, 0) ms
  in
  result

let submatrix m ~row ~col ~rows ~cols =
  if row < 0 || col < 0 || row + rows > m.rows || col + cols > m.cols then
    invalid_arg "Dense.submatrix: block out of bounds";
  init rows cols (fun i j -> m.data.(((row + i) * m.cols) + (col + j)))

let outer x y =
  init (Array.length x) (Array.length y) (fun i j -> x.(i) *. y.(j))

let bits x = Int64.bits_of_float x

let hash m =
  let h = ref ((m.rows * 65599) + m.cols) in
  for k = 0 to (m.rows * m.cols) - 1 do
    h := (!h * 31) + Int64.to_int (bits m.data.(k))
  done;
  !h land max_int

let identical a b =
  a.rows = b.rows && a.cols = b.cols
  &&
  let n = a.rows * a.cols in
  let rec go k =
    k = n || (Int64.equal (bits a.data.(k)) (bits b.data.(k)) && go (k + 1))
  in
  go 0

let equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && Array.for_all2 (fun x y -> Gossip_util.Numeric.approx_equal ~eps x y)
       a.data b.data

let row m i = Array.init m.cols (fun j -> get m i j)

let col m j = Array.init m.rows (fun i -> get m i j)

let pp ppf m =
  for i = 0 to m.rows - 1 do
    Format.fprintf ppf "[";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%8.4f" (get m i j)
    done;
    Format.fprintf ppf "]";
    if i < m.rows - 1 then Format.fprintf ppf "@\n"
  done
