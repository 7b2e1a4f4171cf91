(* Tests for Gossip_delay: the delay digraph (Def. 3.3), the delay matrix
   (Def. 3.4), the local matrices and the semi-eigenvector of Lemma 4.2,
   the closed-form norm bounds (Lemmas 4.3 and 6.1), and the executable
   Theorem 4.1 certificates.  These property tests replay the paper's
   proofs numerically on randomly generated systolic protocols. *)

open Gossip_topology
open Gossip_protocol
open Gossip_delay
module Dense = Gossip_linalg.Dense
module Spectral = Gossip_linalg.Spectral
module Numeric = Gossip_util.Numeric

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- delay digraph structure --- *)

let tiny_systolic () =
  (* path 0-1-2, period 3: (0->1), (1->2), (2->1) *)
  let g = Families.path 3 in
  Systolic.make g Protocol.Half_duplex [ [ (0, 1) ]; [ (1, 2) ]; [ (2, 1) ] ]

let test_delay_digraph_counts () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:6 in
  check_int "activations = 6 rounds x 1 arc" 6 (Delay_digraph.n_activations dg);
  check_int "window" 3 (Delay_digraph.window dg);
  check_int "protocol length" 6 (Delay_digraph.protocol_length dg);
  (* arcs: (0,1,r) -> (1,2,r') with 1 <= r'-r < 3, etc. *)
  check "has (0,1,0)->(1,2,1)" true
    (let a = Option.get (Delay_digraph.find dg ~src:0 ~dst:1 ~round:0) in
     let b = Option.get (Delay_digraph.find dg ~src:1 ~dst:2 ~round:1) in
     let found = ref false in
     Delay_digraph.iter_arcs
       (fun ~tail ~head ~delay ->
         if tail = a && head = b && delay = 1 then found := true)
       dg;
     !found)

let test_delay_digraph_window_respected () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:9 in
  let ok = ref true in
  Delay_digraph.iter_arcs
    (fun ~tail ~head ~delay ->
      let a = Delay_digraph.activation dg tail in
      let b = Delay_digraph.activation dg head in
      if delay < 1 || delay >= Delay_digraph.window dg then ok := false;
      if b.Delay_digraph.round - a.Delay_digraph.round <> delay then ok := false;
      (* consecutive arcs share the middle vertex *)
      if a.Delay_digraph.dst <> b.Delay_digraph.src then ok := false)
    dg;
  check "arcs well-formed" true !ok

let test_delay_digraph_in_out () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:6 in
  check_int "ins of vertex 1 (from 0->1 and 2->1)" 4
    (Array.length (Delay_digraph.activations_in dg 1));
  check_int "outs of vertex 1 (1->2)" 2
    (Array.length (Delay_digraph.activations_out dg 1))

let test_delay_distances_telescope () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:9 in
  let k = Option.get (Delay_digraph.find dg ~src:0 ~dst:1 ~round:0) in
  let dist = Delay_digraph.distances_from dg k in
  let ok = ref true in
  Array.iteri
    (fun j d ->
      if d <> max_int then begin
        let b = Delay_digraph.activation dg j in
        let a = Delay_digraph.activation dg k in
        if j <> k && d <> b.Delay_digraph.round - a.Delay_digraph.round then
          ok := false
      end)
    dist;
  check "dipath weights telescope to round difference" true !ok

let test_window_validation () =
  let g = Families.path 3 in
  let p = Protocol.make g Protocol.Half_duplex [ [ (0, 1) ] ] in
  Alcotest.check_raises "window < 2"
    (Invalid_argument "Delay_digraph.build: window must be >= 2") (fun () ->
      ignore (Delay_digraph.build p ~window:1))

(* --- delay matrix --- *)

let test_delay_matrix_entries () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:6 in
  let m = Delay_matrix.sparse dg 0.5 in
  let a = Option.get (Delay_digraph.find dg ~src:0 ~dst:1 ~round:0) in
  let b = Option.get (Delay_digraph.find dg ~src:1 ~dst:2 ~round:1) in
  check "entry = lambda^delay" true
    (Gossip_linalg.Sparse.get m a b = 0.5);
  check "max row nnz <= window - 1 per out-arc family" true
    (Gossip_linalg.Sparse.max_row_nnz m <= 4)

let test_delay_matrix_lambda_validation () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:3 in
  Alcotest.check_raises "lambda = 1 rejected"
    (Invalid_argument "Delay_matrix: lambda must be in (0, 1)") (fun () ->
      ignore (Delay_matrix.sparse dg 1.0))

let test_norm_equals_blockwise () =
  let sys =
    Builders.random_systolic (Families.de_bruijn 2 4) Protocol.Half_duplex
      ~period:5 ~seed:2 ~density:0.9
  in
  let dg = Delay_digraph.of_systolic sys ~length:20 in
  List.iter
    (fun lambda ->
      let a = Delay_matrix.norm dg lambda in
      let b = Delay_matrix.norm_blockwise dg lambda in
      check
        (Printf.sprintf "global = blockwise at lambda=%.2f" lambda)
        true
        (Numeric.approx_equal ~eps:1e-6 a b))
    [ 0.3; 0.6; 0.8 ]

(* The parallel blockwise norm takes a max of independently computed
   norms of the distinct blocks, so neither the worker count nor the
   deduplication may change even the last bit of the result. *)
let test_norm_blockwise_parallel_bitwise () =
  let random =
    Builders.random_systolic (Families.de_bruijn 2 4) Protocol.Half_duplex
      ~period:5 ~seed:2 ~density:0.9
  in
  let dg_of ?length sys =
    let length =
      match length with
      | Some l -> l
      | None -> Option.get (Gossip_simulate.Engine.gossip_time sys)
    in
    Delay_digraph.of_systolic sys ~length
  in
  (* The random protocol has few repeated blocks; the hypercube sweep and
     the cycle rotation repeat one local block at many vertices, so
     [norm_blockwise] solves only a fraction of them. *)
  let cases =
    [
      ("random DB(2,4)", dg_of ~length:20 random);
      ( "Q5 half-duplex sweep",
        dg_of (Builders.hypercube_sweep ~dim:5 ~full_duplex:false) );
      ("C16 rotate", dg_of (Builders.cycle_rotate 16));
    ]
  in
  List.iter
    (fun (name, dg) ->
      let n = Digraph.n_vertices (Delay_digraph.graph dg) in
      List.iter
        (fun lambda ->
          (* the max over every vertex, without deduplication *)
          let every_vertex = ref 0.0 in
          for x = 0 to n - 1 do
            every_vertex :=
              Float.max !every_vertex
                (Spectral.norm2_dense (Delay_matrix.vertex_block dg lambda x))
          done;
          List.iter
            (fun domains ->
              let par = Delay_matrix.norm_blockwise ~domains dg lambda in
              check
                (Printf.sprintf "%s: bit-identical at lambda=%.2f domains=%d"
                   name lambda domains)
                true
                (Int64.equal
                   (Int64.bits_of_float !every_vertex)
                   (Int64.bits_of_float par)))
            [ 1; 2; 4 ])
        [ 0.3; 0.6; 0.8 ])
    cases

(* Lemma 4.3 / 6.1: ‖M(λ)‖ <= closed form, for random protocols in every
   mode. *)
let prop_norm_bound_half_duplex =
  QCheck.Test.make ~name:"Lemma 4.3: ‖M(λ)‖ <= λ√p⌈s/2⌉√p⌊s/2⌋ (half-duplex)"
    ~count:60
    QCheck.(
      triple (int_range 0 100_000) (int_range 3 8) (float_range 0.1 0.9))
    (fun (seed, s, lambda) ->
      let g = Families.de_bruijn 2 3 in
      let sys =
        Builders.random_systolic g Protocol.Half_duplex ~period:s ~seed
          ~density:1.0
      in
      let dg = Delay_digraph.of_systolic sys ~length:(3 * s) in
      let nu = Delay_matrix.norm_blockwise dg lambda in
      let cf =
        Delay_matrix.closed_form_bound ~mode:Protocol.Half_duplex ~window:s
          lambda
      in
      nu <= cf +. 1e-7)

let prop_norm_bound_directed =
  QCheck.Test.make ~name:"Lemma 4.3 holds on directed networks" ~count:60
    QCheck.(
      triple (int_range 0 100_000) (int_range 3 7) (float_range 0.1 0.9))
    (fun (seed, s, lambda) ->
      let g = Families.kautz_directed 2 3 in
      let sys =
        Builders.random_systolic g Protocol.Directed ~period:s ~seed
          ~density:1.0
      in
      let dg = Delay_digraph.of_systolic sys ~length:(3 * s) in
      Delay_matrix.norm_blockwise dg lambda
      <= Delay_matrix.closed_form_bound ~mode:Protocol.Directed ~window:s
           lambda
         +. 1e-7)

let prop_norm_bound_full_duplex =
  QCheck.Test.make ~name:"Lemma 6.1: ‖M(λ)‖ <= λ+...+λ^(s-1) (full-duplex)"
    ~count:60
    QCheck.(
      triple (int_range 0 100_000) (int_range 3 7) (float_range 0.1 0.9))
    (fun (seed, s, lambda) ->
      let g = Families.hypercube 3 in
      let sys =
        Builders.random_systolic g Protocol.Full_duplex ~period:s ~seed
          ~density:1.0
      in
      let dg = Delay_digraph.of_systolic sys ~length:(3 * s) in
      Delay_matrix.norm_blockwise dg lambda
      <= Delay_matrix.closed_form_bound ~mode:Protocol.Full_duplex ~window:s
           lambda
         +. 1e-7)

(* Definition 3.4's "key property": (M(λ)^t)_{a,b} = Σ over t-arc dipaths
   of λ^(total weight).  Checked by explicit DFS path enumeration. *)
let test_key_property_path_counting () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:9 in
  let lambda = 0.5 in
  let m = Delay_matrix.sparse dg lambda in
  let dm = Gossip_linalg.Sparse.to_dense m in
  let count = Delay_digraph.n_activations dg in
  (* adjacency with delays *)
  let succs = Array.make count [] in
  Delay_digraph.iter_arcs
    (fun ~tail ~head ~delay -> succs.(tail) <- (head, delay) :: succs.(tail))
    dg;
  let rec paths_sum a b k =
    (* sum of lambda^weight over k-arc dipaths a -> b *)
    if k = 0 then if a = b then 1.0 else 0.0
    else
      List.fold_left
        (fun acc (next, delay) ->
          acc +. ((lambda ** float_of_int delay) *. paths_sum next b (k - 1)))
        0.0 succs.(a)
  in
  let ok = ref true in
  List.iter
    (fun k ->
      let mk = ref (Dense.identity count) in
      for _ = 1 to k do
        mk := Dense.mul !mk dm
      done;
      for a = 0 to count - 1 do
        for b = 0 to count - 1 do
          if
            not
              (Numeric.approx_equal ~eps:1e-10 (Dense.get !mk a b)
                 (paths_sum a b k))
          then ok := false
        done
      done)
    [ 1; 2; 3 ];
  check "(M^k)_{a,b} = sum of lambda^weight over k-arc dipaths" true !ok

(* --- local matrices --- *)

let test_pattern_construction () =
  let p = Local_matrix.make_pattern ~l:[| 2; 1 |] ~r:[| 1; 2 |] in
  check_int "blocks" 2 (Local_matrix.blocks p);
  check_int "period" 6 (Local_matrix.period p);
  check "accessors copy" true
    (Local_matrix.l p = [| 2; 1 |] && Local_matrix.r p = [| 1; 2 |]);
  Alcotest.check_raises "zero block"
    (Invalid_argument "Local_matrix.make_pattern: blocks must be positive")
    (fun () -> ignore (Local_matrix.make_pattern ~l:[| 0 |] ~r:[| 1 |]))

let test_d_values () =
  let p = Local_matrix.make_pattern ~l:[| 1; 1 |] ~r:[| 1; 1 |] in
  (* s = 4, d_{i,i} = 1, d_{i,i+1} = 1 + r_i + l_{i+1} = 3 *)
  check_int "d_ii" 1 (Local_matrix.d p ~i:0 ~j:0);
  check_int "d_01" 3 (Local_matrix.d p ~i:0 ~j:1);
  check_int "d_02" 5 (Local_matrix.d p ~i:0 ~j:2)

let test_mx_structure () =
  (* Fig. 1 setup: k = 2 pattern, h = 3 repetitions *)
  let p = Local_matrix.make_pattern ~l:[| 1; 2 |] ~r:[| 2; 1 |] in
  let lambda = 0.5 in
  let m = Local_matrix.mx p ~h:4 ~lambda in
  check_int "rows = h blocks of l" (1 + 2 + 1 + 2) (Dense.rows m);
  check_int "cols = h blocks of r" (2 + 1 + 2 + 1) (Dense.cols m);
  (* first row, first col: d_{0,0} = 1 -> lambda^1 *)
  check "B00 top-left = lambda" true (Dense.get m 0 0 = lambda);
  check "B00 top-right = lambda^2 (within-block round order)" true
    (Dense.get m 0 1 = lambda ** 2.0);
  (* block (1,0) is zero: right block 0 precedes left block 1 *)
  check "lower blocks zero" true (Dense.get m 1 0 = 0.0);
  check "nonneg" true (Dense.nonneg m)

let test_mx_delays_below_period () =
  (* every nonzero entry of Mx is lambda^delta with 1 <= delta <= s-1 *)
  let p = Local_matrix.make_pattern ~l:[| 2; 1 |] ~r:[| 1; 3 |] in
  let lambda = 0.5 in
  let s = Local_matrix.period p in
  let m = Local_matrix.mx p ~h:5 ~lambda in
  let ok = ref true in
  for i = 0 to Dense.rows m - 1 do
    for j = 0 to Dense.cols m - 1 do
      let v = Dense.get m i j in
      if v > 0.0 then begin
        let delta = log v /. log lambda in
        let rounded = Float.round delta in
        if Float.abs (delta -. rounded) > 1e-9 then ok := false;
        let di = int_of_float rounded in
        if di < 1 || di > s - 1 then ok := false
      end
    done
  done;
  check "all delays in [1, s-1]" true !ok

let test_lemma_2_2_route () =
  (* ‖Mx‖ computed directly equals sqrt(rho(Ox·Nx)) (Lemma 2.2) *)
  List.iter
    (fun (l, r, lambda) ->
      let p = Local_matrix.make_pattern ~l ~r in
      let h = 3 * Local_matrix.blocks p in
      let mx = Local_matrix.mx p ~h ~lambda in
      let on = Dense.mul (Local_matrix.ox p ~h ~lambda) (Local_matrix.nx p ~h ~lambda) in
      let direct = Spectral.norm2_dense mx in
      let reduced = sqrt (Spectral.spectral_radius_nonneg on) in
      check
        (Printf.sprintf "‖Mx‖ = sqrt(rho(OxNx)) for s=%d" (Local_matrix.period p))
        true
        (Numeric.approx_equal ~eps:1e-6 direct reduced))
    [
      ([| 1 |], [| 1 |], 0.6);
      ([| 2; 1 |], [| 1; 2 |], 0.5);
      ([| 1; 2; 1 |], [| 2; 1; 1 |], 0.55);
      ([| 3 |], [| 2 |], 0.7);
    ]

let test_lemma_4_2_semi_eigenvector () =
  List.iter
    (fun (l, r, lambda) ->
      let p = Local_matrix.make_pattern ~l ~r in
      let h = 4 * Local_matrix.blocks p in
      let e = Local_matrix.semi_eigenvector p ~h ~lambda in
      check "e strictly positive" true (Array.for_all (fun x -> x > 0.0) e);
      let nxm = Local_matrix.nx p ~h ~lambda in
      let oxm = Local_matrix.ox p ~h ~lambda in
      check "Nx e <= (λ p_R) e" true
        (Spectral.is_semi_eigenvector nxm e
           (Local_matrix.nx_semi_eigenvalue p lambda));
      check "Ox e <= (λ p_L) e" true
        (Spectral.is_semi_eigenvector oxm e
           (Local_matrix.ox_semi_eigenvalue p lambda)))
    [
      ([| 1; 1 |], [| 1; 1 |], 0.6);
      ([| 2; 1 |], [| 1; 2 |], 0.5);
      ([| 1; 3 |], [| 2; 2 |], 0.4);
    ]

(* Lemma 4.3 at the local level for random patterns. *)
let gen_pattern =
  QCheck.Gen.(
    int_range 1 3 >>= fun k ->
    array_size (return k) (int_range 1 3) >>= fun l ->
    array_size (return k) (int_range 1 3) >>= fun r ->
    return (l, r))

let prop_local_norm_bound =
  QCheck.Test.make ~name:"Lemma 4.3 locally: ‖Mx‖ <= λ√p⌈s/2⌉√p⌊s/2⌋"
    ~count:100
    QCheck.(pair (make gen_pattern) (float_range 0.1 0.9))
    (fun ((l, r), lambda) ->
      let p = Local_matrix.make_pattern ~l ~r in
      let s = Local_matrix.period p in
      let h = 3 * Local_matrix.blocks p in
      let mx = Local_matrix.mx p ~h ~lambda in
      let nrm = Spectral.norm2_dense mx in
      let hi = (s + 1) / 2 and lo = s / 2 in
      let cf =
        lambda
        *. sqrt (Gossip_linalg.Poly.delay_eval hi lambda)
        *. sqrt (Gossip_linalg.Poly.delay_eval lo lambda)
      in
      nrm <= cf +. 1e-7)

(* The norm of Mx grows with h but stays below the closed form — check
   stability as h increases. *)
let test_mx_norm_monotone_in_h () =
  let p = Local_matrix.make_pattern ~l:[| 1; 2 |] ~r:[| 2; 1 |] in
  let lambda = 0.6 in
  let norms =
    List.map
      (fun h -> Spectral.norm2_dense (Local_matrix.mx p ~h ~lambda))
      [ 2; 4; 8; 16 ]
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && increasing rest
    | _ -> true
  in
  check "norm monotone in h" true (increasing norms);
  let s = Local_matrix.period p in
  let cf =
    Delay_matrix.closed_form_bound ~mode:Protocol.Half_duplex ~window:s lambda
  in
  check "all below closed form" true
    (List.for_all (fun x -> x <= cf +. 1e-7) norms)

let test_of_activation_pattern () =
  (* L R L R rounds *)
  let p = Option.get (Local_matrix.of_activation_pattern [| `L; `R; `L; `R |]) in
  check "two unit blocks" true
    (Local_matrix.l p = [| 1; 1 |] && Local_matrix.r p = [| 1; 1 |]);
  (* rotation: starts mid-block *)
  let p2 = Option.get (Local_matrix.of_activation_pattern [| `R; `L; `L; `R |]) in
  check "rotated to L-start" true
    (Local_matrix.l p2 = [| 2 |] && Local_matrix.r p2 = [| 2 |]);
  (* idle completion *)
  let p3 = Option.get (Local_matrix.of_activation_pattern [| `L; `Idle; `R; `Idle |]) in
  check "idle extends previous block" true
    (Local_matrix.period p3 = 4);
  (* degenerate cases *)
  check "all L -> None" true (Local_matrix.of_activation_pattern [| `L; `L |] = None);
  check "both -> None" true (Local_matrix.of_activation_pattern [| `Both |] = None);
  check "empty -> None" true (Local_matrix.of_activation_pattern [||] = None)

let test_full_duplex_local () =
  let m = Local_matrix.full_duplex_local ~window:4 ~rounds:6 ~lambda:0.5 in
  check_int "square" 6 (Dense.rows m);
  check "banded structure" true
    (Dense.get m 0 1 = 0.5
    && Dense.get m 0 3 = 0.125
    && Dense.get m 0 4 = 0.0
    && Dense.get m 1 0 = 0.0);
  (* Lemma 6.1: ‖Mx‖ <= λ + λ² + λ³ *)
  let nrm = Spectral.norm2_dense m in
  check "full-duplex norm bound" true (nrm <= 0.5 +. 0.25 +. 0.125 +. 1e-9)

let prop_full_duplex_norm_bound =
  QCheck.Test.make ~name:"Lemma 6.1 for all windows and sizes" ~count:100
    QCheck.(
      triple (int_range 2 8) (int_range 2 30) (float_range 0.1 0.9))
    (fun (window, rounds, lambda) ->
      let m = Local_matrix.full_duplex_local ~window ~rounds ~lambda in
      Spectral.norm2_dense m
      <= Gossip_linalg.Poly.geometric lambda (window - 1) +. 1e-7)

(* --- certificates --- *)

let test_certificate_below_gossip_time () =
  List.iter
    (fun sys ->
      let gt =
        Option.get (Gossip_simulate.Engine.gossip_time sys)
      in
      let dg = Delay_digraph.of_systolic sys ~length:gt in
      let cert = Certificate.certify dg ~mode:(Systolic.mode sys) in
      check
        (Printf.sprintf "certificate %d <= measured %d" cert.Certificate.bound gt)
        true
        (cert.Certificate.bound <= gt);
      check "certificate nontrivial" true (cert.Certificate.bound >= 2))
    [
      Builders.hypercube_sweep ~dim:4 ~full_duplex:false;
      Builders.hypercube_sweep ~dim:4 ~full_duplex:true;
      Builders.cycle_rotate 12;
      Builders.edge_coloring_half_duplex (Families.de_bruijn 2 4);
      Builders.edge_coloring_full_duplex (Families.kautz 2 3);
    ]

(* The Theorem 4.1 certificates of the benchmark's ten fixed protocols
   (perfbench's certify-batch), pinned: gossip time, bound, winning λ,
   closed form and activation count.  The norm itself is not pinned; it
   must lie within 1e-12 of the Jacobi reference, and within rounding of
   the closed form (Lemmas 4.3 / 6.1), which is tight for C16 and P16. *)
let golden_certificates () =
  let hd = Builders.edge_coloring_half_duplex
  and fd = Builders.edge_coloring_full_duplex in
  [
    ("Q5 half-duplex sweep", Builders.hypercube_sweep ~dim:5 ~full_duplex:false,
     (10, 4, 0.3, 0.32966838300000006, 160));
    ("Q5 full-duplex sweep", Builders.hypercube_sweep ~dim:5 ~full_duplex:true,
     (5, 3, 0.1, 0.11110000000000002, 160));
    ("C16 rotate", Builders.cycle_rotate 16, (16, 4, 0.55, 0.7163750000000001, 128));
    ("P16 wave", Builders.path_wave 16, (31, 4, 0.5, 0.6250000000000001, 233));
    ("DB(2,4) periodic hd", hd (Families.de_bruijn 2 4),
     (26, 4, 0.4, 0.47614054400000017, 151));
    ("K(2,3) periodic hd", hd (Families.kautz 2 3),
     (17, 3, 0.1, 0.10101010099999998, 74));
    ("WBF(2,3) periodic hd", hd (Families.wrapped_butterfly 2 3),
     (21, 4, 0.3, 0.32966838300000006, 202));
    ("BF(2,3) periodic fd", fd (Families.butterfly 2 3),
     (9, 3, 0.1, 0.11100000000000002, 224));
    ("Grid4x4 periodic hd", hd (Families.grid 4 4),
     (21, 3, 0.1, 0.10101009999999999, 128));
    ("Tree(2,3) periodic fd", fd (Families.complete_dary_tree 2 3),
     (14, 3, 0.15000000000000002, 0.17587500000000003, 104));
  ]

let test_golden_certificates () =
  List.iter
    (fun (name, sys, (t, bound, lambda, closed_form, activations)) ->
      let at what = Printf.sprintf "%s: %s" name what in
      check_int (at "gossip time") t
        (Option.get (Gossip_simulate.Engine.gossip_time sys));
      let dg = Delay_digraph.of_systolic sys ~length:t in
      let c = Certificate.certify dg ~mode:(Systolic.mode sys) in
      check_int (at "bound") bound c.Certificate.bound;
      check (at "lambda") true (c.Certificate.lambda = lambda);
      check (at "closed form") true (c.Certificate.closed_form = closed_form);
      check_int (at "activations") activations c.Certificate.activations;
      let nu = c.Certificate.norm in
      check (at "norm <= closed form") true
        (nu <= closed_form *. (1.0 +. 1e-12));
      let reference = ref 0.0 in
      for x = 0 to Digraph.n_vertices (Systolic.graph sys) - 1 do
        reference :=
          Float.max !reference
            (Reference_norm.norm2_dense (Delay_matrix.vertex_block dg lambda x))
      done;
      check (at "norm = Jacobi reference") true
        (Float.abs (nu -. !reference) <= 1e-12 *. !reference))
    (golden_certificates ())

let test_certificate_separator () =
  let d = 2 and dim = 5 in
  let g = Families.de_bruijn_directed d dim in
  let sys =
    Builders.random_systolic g Protocol.Directed ~period:6 ~seed:5 ~density:1.0
  in
  let horizon = 60 in
  let dg = Delay_digraph.of_systolic sys ~length:horizon in
  let sep = Separator.de_bruijn ~d ~dim in
  let plain = Certificate.certify dg ~mode:Protocol.Directed in
  let refined = Certificate.certify_separator dg ~mode:Protocol.Directed ~sep in
  check "separator bound >= distance" true
    (refined.Certificate.bound
    >= Metrics.set_distance g sep.Separator.v1 sep.Separator.v2);
  check "separator bound >= plain - slack" true
    (refined.Certificate.bound + 3 >= plain.Certificate.bound)

let test_certificate_refine_improves () =
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  let t = Option.get (Gossip_simulate.Engine.gossip_time sys) in
  let dg = Delay_digraph.of_systolic sys ~length:t in
  let plain = Certificate.certify dg ~mode:Protocol.Half_duplex in
  let refined = Certificate.certify ~refine:true dg ~mode:Protocol.Half_duplex in
  check "refined bound >= plain bound" true
    (refined.Certificate.bound >= plain.Certificate.bound);
  check "refined still sound" true (refined.Certificate.bound <= t)

(* The refine pass scans 20 points around the coarse winner, not 21: the
   winner itself is not evaluated again.  The certificate equals a plain
   scan over the 19 coarse points followed by all 21 fine ones. *)
let test_certificate_refine_skips_center () =
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  let t = Option.get (Gossip_simulate.Engine.gossip_time sys) in
  let dg = Delay_digraph.of_systolic sys ~length:t in
  let calls = ref 0 in
  let norm dg lambda =
    incr calls;
    Delay_matrix.norm_blockwise dg lambda
  in
  let refined =
    Certificate.certify ~refine:true ~norm dg ~mode:Protocol.Half_duplex
  in
  check_int "19 coarse + 20 fine norm calls" 39 !calls;
  let coarse = List.init 19 (fun i -> 0.05 +. (0.05 *. float_of_int i)) in
  let center =
    (Certificate.certify dg ~mode:Protocol.Half_duplex).Certificate.lambda
  in
  let fine =
    List.init 21 (fun i -> center +. (0.005 *. float_of_int (i - 10)))
  in
  let expected =
    Certificate.certify ~lambdas:(coarse @ fine) dg ~mode:Protocol.Half_duplex
  in
  check "same certificate as scanning the center again" true
    (Certificate.to_json refined = Certificate.to_json expected
    && Int64.equal
         (Int64.bits_of_float refined.Certificate.norm)
         (Int64.bits_of_float expected.Certificate.norm))

let test_certify_systolic_stabilizes () =
  let sys = Builders.cycle_rotate 8 in
  let cert = Certificate.certify_systolic sys in
  let measured = Option.get (Gossip_simulate.Engine.gossip_time sys) in
  check "horizon-free certificate sound" true
    (cert.Certificate.bound <= measured);
  check "horizon-free certificate nontrivial" true (cert.Certificate.bound >= 2);
  (* consistency with a long manual expansion *)
  let dg = Delay_digraph.of_systolic sys ~length:(8 * Systolic.period sys) in
  let manual = Certificate.certify dg ~mode:Protocol.Half_duplex in
  check "within 1 of a long manual horizon" true
    (abs (cert.Certificate.bound - manual.Certificate.bound) <= 1)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_delay_digraph_to_dot () =
  let dg = Delay_digraph.of_systolic (tiny_systolic ()) ~length:4 in
  let dot = Delay_digraph.to_dot dg in
  check "digraph keyword" true (contains ~sub:"digraph" dot);
  check "activation label" true (contains ~sub:"0->1 @1" dot);
  check "delay weight label" true (contains ~sub:"label=\"1\"" dot)

let test_impossible_t_edges () =
  (* start > t: empty sum, always impossible when rhs > 0 *)
  check "empty sum impossible" true
    (Certificate.impossible_t ~nu:0.5 ~lambda:0.5 ~pairs:10.0 ~m:5.0 ~start:4 2);
  (* huge t: rhs shrinks geometrically, becomes possible *)
  check "large t possible" false
    (Certificate.impossible_t ~nu:0.9 ~lambda:0.5 ~pairs:10.0 ~m:5.0 ~start:1 60)

(* Separator information never weakens the plain certificate by more than
   the restriction slack, and respects the measured set distance. *)
let prop_separator_certificate_distance =
  QCheck.Test.make
    ~name:"separator certificate >= separator distance" ~count:12
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let d = 2 and dim = 4 in
      let g = Families.de_bruijn_directed d dim in
      let sep = Separator.de_bruijn ~d ~dim in
      let sys =
        Builders.random_systolic g Protocol.Directed ~period:5 ~seed
          ~density:1.0
      in
      let dg = Delay_digraph.of_systolic sys ~length:40 in
      let cert = Certificate.certify_separator dg ~mode:Protocol.Directed ~sep in
      let dist =
        Metrics.set_distance g sep.Gossip_topology.Separator.v1
          sep.Gossip_topology.Separator.v2
      in
      cert.Certificate.bound >= dist)

let prop_certificate_sound =
  QCheck.Test.make
    ~name:"Thm 4.1 certificate never exceeds measured gossip time" ~count:25
    QCheck.(pair (int_range 0 100_000) (int_range 3 7))
    (fun (seed, period) ->
      let g = Families.de_bruijn 2 3 in
      let sys =
        Builders.random_systolic g Protocol.Half_duplex ~period ~seed
          ~density:1.0
      in
      match Gossip_simulate.Engine.gossip_time ~cap:400 sys with
      | None -> true (* incomplete protocols have nothing to certify *)
      | Some t ->
          let dg = Delay_digraph.of_systolic sys ~length:t in
          let cert = Certificate.certify dg ~mode:Protocol.Half_duplex in
          cert.Certificate.bound <= t)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("delay digraph counts", `Quick, test_delay_digraph_counts);
    ("delay digraph window", `Quick, test_delay_digraph_window_respected);
    ("delay digraph in/out", `Quick, test_delay_digraph_in_out);
    ("delay distances telescope", `Quick, test_delay_distances_telescope);
    ("window validation", `Quick, test_window_validation);
    ("delay matrix entries", `Quick, test_delay_matrix_entries);
    ("delay matrix lambda validation", `Quick, test_delay_matrix_lambda_validation);
    ("norm = blockwise norm (prop 8)", `Quick, test_norm_equals_blockwise);
    ("blockwise norm parallel bit-identical", `Quick,
      test_norm_blockwise_parallel_bitwise);
    ("key property: path counting", `Quick, test_key_property_path_counting);
    ("pattern construction", `Quick, test_pattern_construction);
    ("d_{i,j} values", `Quick, test_d_values);
    ("Mx structure (Fig 1-2)", `Quick, test_mx_structure);
    ("Mx delays within period", `Quick, test_mx_delays_below_period);
    ("Lemma 2.2 reduction route", `Quick, test_lemma_2_2_route);
    ("Lemma 4.2 semi-eigenvector", `Quick, test_lemma_4_2_semi_eigenvector);
    ("Mx norm monotone in h", `Quick, test_mx_norm_monotone_in_h);
    ("of_activation_pattern", `Quick, test_of_activation_pattern);
    ("full-duplex local matrix (Fig 7)", `Quick, test_full_duplex_local);
    ("certificates below gossip time", `Quick, test_certificate_below_gossip_time);
    ("certify-batch golden values", `Quick, test_golden_certificates);
    ("separator certificate", `Quick, test_certificate_separator);
    ("impossible_t edges", `Quick, test_impossible_t_edges);
    ("certificate refine improves", `Quick, test_certificate_refine_improves);
    ("certificate refine skips the center", `Quick,
      test_certificate_refine_skips_center);
    ("certify_systolic stabilizes", `Quick, test_certify_systolic_stabilizes);
    ("delay digraph to_dot", `Quick, test_delay_digraph_to_dot);
    q prop_norm_bound_half_duplex;
    q prop_norm_bound_directed;
    q prop_norm_bound_full_duplex;
    q prop_local_norm_bound;
    q prop_full_duplex_norm_bound;
    q prop_separator_certificate_distance;
    q prop_certificate_sound;
  ]
