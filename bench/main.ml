(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, validates them empirically on generated networks, and
   micro-benchmarks (Bechamel, one Test.make per table) the computation
   behind each one.

   Layout:
     Part 1  Fig. 4          general systolic bounds (+ paper reference row)
     Part 2  Figs. 1-3       local matrix structure Mx/Nx/Ox, checked
     Part 3  Fig. 5          separator-refined systolic bounds
     Part 4  Fig. 6          non-systolic bounds (+ spot values)
     Part 5  Fig. 7          full-duplex local matrix, checked
     Part 6  Fig. 8          full-duplex bounds (+ broadcast constants)
     Part 7  separators      measured distance/size vs Lemma 3.1 claims
     Part 8  Thm 4.1         certificates vs measured gossip times
     Part 9  norm sweep      ‖M(λ)‖ vs closed forms (Lemmas 4.3 / 6.1)
     Part 10 upper vs lower  growing-n sandwich per family
     Part 11 price           exact systolization cost ([8]'s question)
     Part 12 weighted diam   the conclusion's extension
     Part 13 extra families  CCC / shuffle-exchange under the general bound
     Part 14 Fig. 5 ext      d = 4, 5 at larger periods
     Part 15 faults          graceful degradation under arc drops
     Part 16 norm crosscheck whole-matrix and blockwise norms agree
     Part 17 broadcast       greedy schedules vs the [22,2] constants
     Part 18 scale           simulator throughput on growing networks
     Part 19 ablation        worst-case local pattern = balanced split
     Part 20 messages        obliviousness overhead in transmissions
     Part 21 Bechamel        one micro-benchmark per table
     Part 22 cache stats     shared-context hit/miss accounting
     Part 23 serve           wire codec and bounded-queue hot paths
     Part 28 fault-cert      adversarial certification throughput *)

open Core
module Table = Util.Table
module Tables = Bounds.Tables
module General = Bounds.General
module Catalog = Bounds.Catalog
module Families = Topology.Families
module Digraph = Topology.Digraph
module Metrics = Topology.Metrics
module Separator = Topology.Separator
module Builders = Protocol.Builders
module Systolic = Protocol.Systolic
module Engine = Simulate.Engine
module Delay_digraph = Delay.Delay_digraph
module Delay_matrix = Delay.Delay_matrix
module Local_matrix = Delay.Local_matrix
module Certificate = Delay.Certificate
module Dense = Linalg.Dense
module Spectral = Linalg.Spectral

let section title =
  Printf.printf "\n############ %s ############\n\n" title

let ss = [ 3; 4; 5; 6; 7; 8 ]

(* One memoizing context shared by every certificate-heavy part below:
   Part 8's gossip times and delay digraphs are re-served to Part 10's
   sandwich rows, and Part 22 reports the accumulated cache traffic. *)
let ctx = Context.create ()

(* ---------------------------------------------------------------- *)
(* Part 1: Fig. 4                                                    *)
(* ---------------------------------------------------------------- *)

let paper_fig4 =
  [ (3, 2.8808); (4, 1.8133); (5, 1.6502); (6, 1.5363); (7, 1.5021); (8, 1.4721) ]

let run_fig4 () =
  let rows = Tables.fig4 ~s_max:8 in
  (rows, Tables.fig4_inf)

let print_fig4 () =
  let rows, inf = run_fig4 () in
  let t =
    Table.make
      ~title:"Fig. 4 — t >= e(s)·log n - O(log log n), directed & half-duplex"
      [ "s"; "lambda"; "e(s) (ours)"; "e(s) (paper)"; "delta" ]
  in
  List.iter
    (fun (r : Tables.fig4_row) ->
      let paper = List.assoc r.Tables.s paper_fig4 in
      Table.add_row t
        [
          string_of_int r.Tables.s;
          Table.cell_f r.Tables.lambda;
          Table.cell_f r.Tables.e;
          Table.cell_f paper;
          Printf.sprintf "%.4f" (Float.abs (r.Tables.e -. paper));
        ])
    rows;
  Table.add_row t
    [ "inf"; Table.cell_f inf.Tables.lambda; Table.cell_f inf.Tables.e;
      Table.cell_f 1.4404; Printf.sprintf "%.4f" (Float.abs (inf.Tables.e -. 1.4404)) ];
  Table.print t

(* ---------------------------------------------------------------- *)
(* Part 2: Figs. 1-3 — local matrix structure                        *)
(* ---------------------------------------------------------------- *)

let fig1_pattern = Local_matrix.make_pattern ~l:[| 1; 2 |] ~r:[| 2; 1 |]

let run_fig1_3 () =
  let lambda = 0.6 and h = 4 in
  let mx = Local_matrix.mx fig1_pattern ~h ~lambda in
  let nx = Local_matrix.nx fig1_pattern ~h ~lambda in
  let ox = Local_matrix.ox fig1_pattern ~h ~lambda in
  (mx, nx, ox)

let print_fig1_3 () =
  let lambda = 0.6 and h = 4 in
  let mx, nx, ox = run_fig1_3 () in
  Printf.printf
    "Local protocol with k = 2 blocks, l = [1;2], r = [2;1] (s = 6), h = %d, lambda = %.1f\n\n"
    h lambda;
  Format.printf "Mx  (Fig. 1 — rank-one blocks B_ij = λ^d_ij Λ0_li Λ0_rjᵀ):@\n%a@\n@\n"
    Dense.pp mx;
  Format.printf "Nx  (Fig. 3 — N_ij = λ^d_ij · p_rj(λ)):@\n%a@\n@\n" Dense.pp nx;
  Format.printf "Ox  (Fig. 3 — O_ij = λ^d_ji · p_lj(λ)):@\n%a@\n@\n" Dense.pp ox;
  let direct = Spectral.norm2_dense mx in
  let reduced = sqrt (Spectral.spectral_radius_nonneg (Dense.mul ox nx)) in
  let cf =
    Delay_matrix.closed_form_bound ~mode:Protocol.Protocol.Half_duplex
      ~window:(Local_matrix.period fig1_pattern) lambda
  in
  Printf.printf
    "checks: ‖Mx‖ = %.6f, sqrt(rho(Ox·Nx)) = %.6f (Lemma 2.2, equal), closed form %.6f (Lemma 4.3, upper)\n"
    direct reduced cf;
  let e = Local_matrix.semi_eigenvector fig1_pattern ~h ~lambda in
  Printf.printf "Lemma 4.2 semi-eigenvector accepted: Nx: %b, Ox: %b\n"
    (Spectral.is_semi_eigenvector nx e
       (Local_matrix.nx_semi_eigenvalue fig1_pattern lambda))
    (Spectral.is_semi_eigenvector ox e
       (Local_matrix.ox_semi_eigenvalue fig1_pattern lambda))

(* ---------------------------------------------------------------- *)
(* Part 3/4/6: Figs. 5, 6, 8                                         *)
(* ---------------------------------------------------------------- *)

let print_family_table ~title ~general_row rows =
  let t =
    Table.make ~title
      ("family" :: List.map (fun s -> "s=" ^ string_of_int s) ss)
  in
  Table.add_row t
    ("(general)" :: List.map (fun (_, e) -> Table.cell_f e) general_row);
  Table.add_sep t;
  List.iter
    (fun (r : Tables.family_row) ->
      Table.add_row t
        (r.Tables.key
        :: List.map
             (fun (_, (c : Tables.cell)) ->
               Table.cell_f c.Tables.value
               ^ if c.Tables.improves then "" else "*")
             r.Tables.cells))
    rows;
  Table.print t;
  print_endline "(* = does not improve on the general bound)"

let run_fig5 () = Tables.fig5 ~ss

let print_fig5 () =
  let rows = run_fig5 () in
  print_family_table
    ~title:"Fig. 5 — separator-refined systolic bounds, half-duplex/directed"
    ~general_row:(List.map (fun s -> (s, General.e s)) ss)
    rows;
  let value_of key s =
    let r = List.find (fun (r : Tables.family_row) -> r.Tables.key = key) rows in
    (List.assoc s r.Tables.cells).Tables.value
  in
  Printf.printf
    "paper spot checks: WBF(2,D) s=4 = 2.0218 (ours %.4f), DB(2,D) s=4 = 1.8133 (ours %.4f)\n"
    (value_of "WBF(2,D)" 4) (value_of "DB(2,D)" 4)

let run_fig6 () = Tables.fig6 ()

let print_fig6 () =
  let t =
    Table.make
      ~title:
        "Fig. 6 — non-systolic (s -> inf) bounds, half-duplex; baseline 1.4404 of [4,17,15,26]"
      [ "family"; "separator"; "baseline"; "diam coeff"; "best (x log n)" ]
  in
  List.iter
    (fun (r : Tables.fig6_row) ->
      Table.add_row t
        [
          r.Tables.key;
          Table.cell_f r.Tables.separator_value;
          Table.cell_f r.Tables.baseline;
          Table.cell_f r.Tables.diameter_coeff;
          Table.cell_f r.Tables.best;
        ])
    (run_fig6 ());
  Table.print t;
  Printf.printf
    "paper spot checks: WBF(2,D) = 1.9750, DB(2,D) = 1.5876 — reproduced above.\n"

let run_fig8 () = (Tables.fig8 ~ss, Tables.fig8_general ~ss, Tables.fig8_inf ())

let print_fig8 () =
  let rows, general, inf = run_fig8 () in
  print_family_table
    ~title:
      "Fig. 8 — full-duplex systolic bounds; general row = broadcasting constants c(d) of [22,2]"
    ~general_row:general rows;
  let t =
    Table.make ~title:"Fig. 8 (s -> inf rows) — non-systolic full-duplex"
      [ "family"; "separator"; "baseline"; "diam coeff"; "best (x log n)" ]
  in
  List.iter
    (fun (r : Tables.fig6_row) ->
      Table.add_row t
        [
          r.Tables.key;
          Table.cell_f r.Tables.separator_value;
          Table.cell_f r.Tables.baseline;
          Table.cell_f r.Tables.diameter_coeff;
          Table.cell_f r.Tables.best;
        ])
    inf;
  Table.print t

(* ---------------------------------------------------------------- *)
(* Part 5: Fig. 7 — full-duplex local matrix                         *)
(* ---------------------------------------------------------------- *)

let run_fig7 () = Local_matrix.full_duplex_local ~window:4 ~rounds:8 ~lambda:0.5

let print_fig7 () =
  let m = run_fig7 () in
  Format.printf
    "Full-duplex local matrix, s = 4, 8 rounds, lambda = 0.5 (Fig. 7):@\n%a@\n@\n"
    Dense.pp m;
  Printf.printf "‖Mx‖ = %.6f <= λ + λ² + λ³ = %.6f (Lemma 6.1)\n"
    (Spectral.norm2_dense m)
    (Linalg.Poly.geometric 0.5 3)

(* ---------------------------------------------------------------- *)
(* Part 7: separator measurements vs Lemma 3.1                        *)
(* ---------------------------------------------------------------- *)

let separator_cases =
  [
    ("BF(2,D)", 4); ("dWBF(2,D)", 5); ("WBF(2,D)", 6);
    ("dDB(2,D)", 8); ("DB(2,D)", 8); ("dK(2,D)", 7); ("K(2,D)", 7);
    ("BF(3,D)", 3); ("dDB(3,D)", 5); ("dK(3,D)", 4);
  ]

let run_separators () =
  List.map
    (fun (key, dim) ->
      let f = Option.get (Catalog.find key) in
      let g = f.Catalog.build dim in
      let sep = f.Catalog.separator dim in
      let m = Separator.measure g sep in
      (key, dim, f, m))
    separator_cases

let print_separators () =
  let t =
    Table.make
      ~title:
        "Separator check — measured distance vs l·log n (verified l), set sizes"
      [ "family"; "D"; "n"; "dist"; "l·log n"; "min |Vi|"; "alpha·l" ]
  in
  List.iter
    (fun (key, dim, (f : Catalog.t), (m : Separator.measurement)) ->
      let logn = Util.Numeric.log2 (float_of_int m.Separator.n) in
      Table.add_row t
        [
          key;
          string_of_int dim;
          string_of_int m.Separator.n;
          string_of_int m.Separator.distance;
          Printf.sprintf "%.1f" (f.Catalog.verified_ell *. logn);
          string_of_int m.Separator.min_size;
          Printf.sprintf "%.2f" (f.Catalog.alpha *. f.Catalog.verified_ell);
        ])
    (run_separators ());
  Table.print t;
  print_endline
    "(distance approaches l·log n as D grows; the -o(log n) slack is the\n\
    \ finite-D gap. For undirected DB/K the verified l is half the published\n\
    \ one — see DESIGN.md.)"

(* ---------------------------------------------------------------- *)
(* Part 8: Theorem 4.1 certificates vs measured gossip times          *)
(* ---------------------------------------------------------------- *)

let certificate_cases () =
  [
    ("Q5 half-duplex sweep", Builders.hypercube_sweep ~dim:5 ~full_duplex:false);
    ("Q5 full-duplex sweep", Builders.hypercube_sweep ~dim:5 ~full_duplex:true);
    ("C16 rotate", Builders.cycle_rotate 16);
    ("P16 wave", Builders.path_wave 16);
    ("DB(2,5) periodic hd", Builders.edge_coloring_half_duplex (Families.de_bruijn 2 5));
    ("K(2,4) periodic hd", Builders.edge_coloring_half_duplex (Families.kautz 2 4));
    ("WBF(2,4) periodic hd", Builders.edge_coloring_half_duplex (Families.wrapped_butterfly 2 4));
    ("BF(2,4) periodic fd", Builders.edge_coloring_full_duplex (Families.butterfly 2 4));
    ("Grid6x6 periodic hd", Builders.edge_coloring_half_duplex (Families.grid 6 6));
    ("Tree(2,4) periodic fd", Builders.edge_coloring_full_duplex (Families.complete_dary_tree 2 4));
    ( "R(24,3) periodic hd",
      Builders.edge_coloring_half_duplex
        (Topology.Random_graphs.regular ~n:24 ~degree:3 ~seed:7) );
    ( "R(32,4) periodic hd",
      Builders.edge_coloring_half_duplex
        (Topology.Random_graphs.regular ~n:32 ~degree:4 ~seed:7) );
  ]

let run_certificates () =
  List.filter_map
    (fun (name, sys) ->
      match Context.gossip_time ctx sys with
      | None -> None
      | Some t ->
          let dg = Context.delay_digraph ctx sys ~length:t in
          let cert = Context.certify ctx dg ~mode:(Systolic.mode sys) in
          Some (name, sys, t, cert))
    (certificate_cases ())

let print_certificates () =
  let t =
    Table.make
      ~title:
        "Thm 4.1 executable certificates — certified LB <= measured gossip time"
      [ "protocol"; "n"; "s"; "diam"; "cert LB"; "measured"; "norm"; "closed form" ]
  in
  List.iter
    (fun (name, sys, measured, (cert : Certificate.t)) ->
      let g = Systolic.graph sys in
      Table.add_row t
        [
          name;
          string_of_int (Digraph.n_vertices g);
          string_of_int (Systolic.period sys);
          string_of_int (Context.diameter ctx g);
          string_of_int cert.Certificate.bound;
          string_of_int measured;
          Table.cell_f cert.Certificate.norm;
          Table.cell_f cert.Certificate.closed_form;
        ])
    (run_certificates ());
  Table.print t;
  print_endline
    "(soundness: cert LB <= measured on every row; norm <= closed form is\n\
    \ Lemma 4.3 / 6.1 at the certificate's lambda.)"

(* ---------------------------------------------------------------- *)
(* Part 9: norm sweep — ‖M(λ)‖ vs the closed forms                   *)
(* ---------------------------------------------------------------- *)

let run_norm_sweep () =
  let g = Families.de_bruijn 2 4 in
  let s = 6 in
  let hd =
    Builders.random_systolic g Protocol.Protocol.Half_duplex ~period:s ~seed:11
      ~density:1.0
  in
  let fd =
    Builders.random_systolic g Protocol.Protocol.Full_duplex ~period:s ~seed:11
      ~density:1.0
  in
  let dg_hd = Context.delay_digraph ctx hd ~length:(4 * s) in
  let dg_fd = Context.delay_digraph ctx fd ~length:(4 * s) in
  List.map
    (fun lambda ->
      ( lambda,
        Context.norm ctx dg_hd lambda,
        Delay_matrix.closed_form_bound ~mode:Protocol.Protocol.Half_duplex
          ~window:s lambda,
        Context.norm ctx dg_fd lambda,
        Delay_matrix.closed_form_bound ~mode:Protocol.Protocol.Full_duplex
          ~window:s lambda ))
    [ 0.2; 0.3; 0.4; 0.5; 0.6; 0.637; 0.7; 0.8 ]

let print_norm_sweep () =
  let t =
    Table.make
      ~title:
        "‖M(λ)‖ vs closed forms on random 6-systolic protocols, DB(2,4) (Lemmas 4.3/6.1)"
      [ "lambda"; "hd norm"; "hd bound"; "fd norm"; "fd bound" ]
  in
  List.iter
    (fun (l, nhd, bhd, nfd, bfd) ->
      Table.add_row t
        [
          Table.cell_f ~decimals:3 l;
          Table.cell_f nhd;
          Table.cell_f bhd;
          Table.cell_f nfd;
          Table.cell_f bfd;
        ])
    (run_norm_sweep ());
  Table.print t;
  print_endline
    "(lambda = 0.637 is lambda_star(6): the half-duplex bound crosses 1 there.)"

(* ---------------------------------------------------------------- *)
(* Part 10: upper vs lower sandwich on growing networks               *)
(* ---------------------------------------------------------------- *)

let run_sandwich () =
  let cases =
    [
      ("Q(d) hd", fun dim -> Builders.hypercube_sweep ~dim ~full_duplex:false);
      ( "DB(2,D) hd",
        fun dim -> Builders.edge_coloring_half_duplex (Families.de_bruijn 2 dim) );
      ( "WBF(2,D) hd",
        fun dim ->
          Builders.edge_coloring_half_duplex (Families.wrapped_butterfly 2 dim) );
      ( "K(2,D) hd",
        fun dim -> Builders.edge_coloring_half_duplex (Families.kautz 2 dim) );
    ]
  in
  List.concat_map
    (fun (name, make) ->
      List.filter_map
        (fun dim ->
          let sys = make dim in
          match Context.gossip_time ctx sys with
          | None -> None
          | Some t ->
              let g = Systolic.graph sys in
              let n = Digraph.n_vertices g in
              let dg = Context.delay_digraph ctx sys ~length:t in
              let cert = Context.certify ctx dg ~mode:(Systolic.mode sys) in
              let logn = Util.Numeric.log2 (float_of_int n) in
              Some (name, dim, n, cert.Certificate.bound, General.e_inf *. logn, t))
        [ 3; 4; 5; 6 ])
    cases

let print_sandwich () =
  let t =
    Table.make
      ~title:
        "Upper vs lower on growing networks (cert LB and measured UB sandwich the truth)"
      [ "family"; "D"; "n"; "cert LB"; "1.4404·log n"; "measured UB" ]
  in
  let last = ref "" in
  List.iter
    (fun (name, dim, n, cert, asym, measured) ->
      if !last <> "" && !last <> name then Table.add_sep t;
      last := name;
      Table.add_row t
        [
          name;
          string_of_int dim;
          string_of_int n;
          string_of_int cert;
          Printf.sprintf "%.1f" asym;
          string_of_int measured;
        ])
    (run_sandwich ());
  Table.print t;
  print_endline
    "(the asymptotic main term can exceed the finite-n certificate — the\n\
    \ -O(log log n) correction is real — but the certificate is sound: it\n\
    \ never exceeds the measured time; it grows with n as Omega(log n).)"

(* ---------------------------------------------------------------- *)
(* Part 11: price of systolization (exhaustive search, [8])           *)
(* ---------------------------------------------------------------- *)

let price_cases () =
  [
    ("P4 hd", Families.path 4, Protocol.Protocol.Half_duplex);
    ("P5 hd", Families.path 5, Protocol.Protocol.Half_duplex);
    ("C4 hd", Families.cycle 4, Protocol.Protocol.Half_duplex);
    ("C6 hd", Families.cycle 6, Protocol.Protocol.Half_duplex);
    ("C4 fd", Families.cycle 4, Protocol.Protocol.Full_duplex);
    ("K4 hd", Families.complete 4, Protocol.Protocol.Half_duplex);
  ]

let run_price () =
  List.map
    (fun (name, g, mode) ->
      let systolic, unrestricted =
        Search.Systolic_optimal.price_of_systolization ~s_max:5 g mode
      in
      (name, systolic, unrestricted))
    (price_cases ())

let print_price () =
  let t =
    Table.make
      ~title:
        "Price of systolization (exact exhaustive search) — [8]'s question made computable"
      [ "network"; "optimal"; "s=2"; "s=3"; "s=4"; "s=5" ]
  in
  let cell = function
    | Search.Systolic_optimal.Found r ->
        string_of_int r.Search.Systolic_optimal.rounds
    | Search.Systolic_optimal.Infeasible -> "impossible"
    | Search.Systolic_optimal.Too_large -> "(sweep too large)"
  in
  List.iter
    (fun (name, systolic, unrestricted) ->
      Table.add_row t
        (name
        :: (match unrestricted with Some v -> string_of_int v | None -> "?")
        :: List.map (fun s -> cell (List.assoc s systolic)) [ 2; 3; 4; 5 ]))
    (run_price ());
  Table.print t;
  print_endline
    "(matches the paper: on paths s = 2 — and even s = 3 on P4 — admits no\n\
    \ systolic gossip at all, while on cycles 2-systolic gossip exists but\n\
    \ needs >= n - 1 rounds, exactly the Section 4 remark.)"

(* ---------------------------------------------------------------- *)
(* Part 12: weighted-diameter extension (conclusion of the paper)     *)
(* ---------------------------------------------------------------- *)

let wd_cases () =
  [
    ("C16", Delay.Weighted_diameter.of_digraph (Families.cycle 16));
    ("Q5", Delay.Weighted_diameter.of_digraph (Families.hypercube 5));
    ("dDB(2,7)", Delay.Weighted_diameter.of_digraph (Families.de_bruijn_directed 2 7));
    ("dK(2,6)", Delay.Weighted_diameter.of_digraph (Families.kautz_directed 2 6));
    ("dDB(2,5) w=4", Delay.Weighted_diameter.of_digraph ~weight:4 (Families.de_bruijn_directed 2 5));
    ("CCC(3)", Delay.Weighted_diameter.of_digraph (Topology.Extra_families.cube_connected_cycles 3));
  ]

let run_weighted_diameter () =
  List.map
    (fun (name, w) ->
      ( name,
        Delay.Weighted_diameter.n_vertices w,
        Delay.Weighted_diameter.lower_bound w,
        Delay.Weighted_diameter.diameter w ))
    (wd_cases ())

let print_weighted_diameter () =
  let t =
    Table.make
      ~title:
        "Weighted-diameter extension: norm-based LB vs exact diameter (paper's conclusion)"
      [ "digraph"; "n"; "norm LB"; "exact diameter" ]
  in
  List.iter
    (fun (name, n, lb, d) ->
      Table.add_row t
        [ name; string_of_int n; string_of_int lb; string_of_int d ])
    (run_weighted_diameter ());
  Table.print t

(* ---------------------------------------------------------------- *)
(* Part 13: extra hypercube-derived families (general bounds only)    *)
(* ---------------------------------------------------------------- *)

let run_extra_families () =
  List.filter_map
    (fun g ->
      let sys = Builders.edge_coloring_half_duplex g in
      match Engine.gossip_time sys with
      | None -> None
      | Some t ->
          let n = Digraph.n_vertices g in
          let logn = Util.Numeric.log2 (float_of_int n) in
          Some
            ( Digraph.name g, n, Metrics.diameter g,
              General.e_inf *. logn,
              Bounds.Broadcast.asymptotic_coefficient g *. logn, t ))
    [
      Topology.Extra_families.cube_connected_cycles 3;
      Topology.Extra_families.cube_connected_cycles 4;
      Topology.Extra_families.shuffle_exchange 5;
      Topology.Extra_families.shuffle_exchange 6;
    ]

let print_extra_families () =
  let t =
    Table.make
      ~title:
        "Extra families (CCC, shuffle-exchange): general bounds and measured times"
      [ "network"; "n"; "diam"; "1.4404·log n"; "c(d)·log n"; "measured" ]
  in
  List.iter
    (fun (name, n, diam, gossip_lb, bcast_lb, t_meas) ->
      Table.add_row t
        [
          name;
          string_of_int n;
          string_of_int diam;
          Printf.sprintf "%.1f" gossip_lb;
          Printf.sprintf "%.1f" bcast_lb;
          string_of_int t_meas;
        ])
    (run_extra_families ());
  Table.print t;
  print_endline
    "(no published separator refinement exists for these families — they\n\
    \ exercise the Fig. 4 general path of the machinery.)"

(* ---------------------------------------------------------------- *)
(* Part 14: Fig. 5 extended to d = 4, 5 (paper's closing remark)      *)
(* ---------------------------------------------------------------- *)

let extended_ss = [ 8; 9; 10; 12; 14; 16 ]

let run_fig5_extended () = Tables.fig5_extended ~ds:[ 4; 5 ] ~ss:extended_ss

let print_fig5_extended () =
  let t =
    Table.make
      ~title:
        "Fig. 5 extended: d = 4, 5 at larger periods (the paper's 'slight improvement for s > 8')"
      ("family" :: List.map (fun s -> "s=" ^ string_of_int s) extended_ss)
  in
  Table.add_row t
    ("(general)" :: List.map (fun s -> Table.cell_f (General.e s)) extended_ss);
  Table.add_sep t;
  List.iter
    (fun (r : Tables.family_row) ->
      Table.add_row t
        (r.Tables.key
        :: List.map
             (fun (_, (c : Tables.cell)) ->
               Table.cell_f c.Tables.value
               ^ if c.Tables.improves then "" else "*")
             r.Tables.cells))
    (run_fig5_extended ());
  Table.print t;
  print_endline
    "(BF/WBF at d = 4 and BF at d = 5 do improve on the general bound at\n\
    \ these periods, exactly the remark after Corollary 5.2.)"

(* ---------------------------------------------------------------- *)
(* Part 15: fault tolerance of systolic protocols                     *)
(* ---------------------------------------------------------------- *)

let fault_probs = [ 0.0; 0.1; 0.2; 0.3 ]

let run_faults () =
  List.map
    (fun (name, sys) ->
      (name, Simulate.Faults.slowdown_curve sys ~probabilities:fault_probs ~seed:99))
    [
      ("Q5 sweep hd", Builders.hypercube_sweep ~dim:5 ~full_duplex:false);
      ("DB(2,5) periodic", Builders.edge_coloring_half_duplex (Families.de_bruijn 2 5));
      ("C16 rotate", Builders.cycle_rotate 16);
      ("W(4,16) knoedel", Builders.knoedel_sweep ~delta:4 ~n:16);
    ]

let print_faults () =
  let t =
    Table.make
      ~title:"Fault tolerance: mean gossip time under i.i.d. arc drops (5 trials)"
      ("protocol" :: List.map (fun p -> Printf.sprintf "p=%.1f" p) fault_probs)
  in
  List.iter
    (fun (name, curve) ->
      Table.add_row t
        (name
        :: List.map
             (fun (pt : Simulate.Faults.slowdown_point) ->
               match pt.Simulate.Faults.mean with
               | Some v ->
                   if pt.Simulate.Faults.completed < pt.Simulate.Faults.trials
                   then
                     Printf.sprintf "%.1f (%d/%d)" v
                       pt.Simulate.Faults.completed pt.Simulate.Faults.trials
                   else Printf.sprintf "%.1f" v
               | None -> "DNF")
             curve))
    (run_faults ());
  Table.print t;
  print_endline
    "(systolic obliviousness retries every link each period: degradation is\n\
    \ graceful, and all lower bounds remain valid under faults.)"

(* ---------------------------------------------------------------- *)
(* Part 16: whole-matrix norm vs blockwise norm cross-validation       *)
(* ---------------------------------------------------------------- *)

(* M(λ) is the direct sum of its vertex blocks, so its norm is the max of
   theirs: a solve on the whole sparse matrix and [norm_blockwise] compute
   one number two different ways. *)
let run_norm_crosscheck () =
  let sys =
    Builders.random_systolic (Families.de_bruijn 2 5) Protocol.Protocol.Half_duplex
      ~period:6 ~seed:4 ~density:1.0
  in
  let dg = Delay_digraph.of_systolic sys ~length:24 in
  List.map
    (fun lambda ->
      ( lambda,
        Spectral.norm2_sparse (Delay_matrix.sparse dg lambda),
        Delay_matrix.norm_blockwise dg lambda ))
    [ 0.3; 0.5; 0.7 ]

let print_norm_crosscheck () =
  let t =
    Table.make
      ~title:"‖M(λ)‖ computed two ways (whole sparse matrix vs vertex blocks)"
      [ "lambda"; "whole matrix"; "blockwise"; "abs diff" ]
  in
  List.iter
    (fun (l, a, b) ->
      Table.add_row t
        [
          Table.cell_f ~decimals:2 l;
          Printf.sprintf "%.15f" a;
          Printf.sprintf "%.15f" b;
          Printf.sprintf "%.2e" (Float.abs (a -. b));
        ])
    (run_norm_crosscheck ());
  Table.print t

(* ---------------------------------------------------------------- *)
(* Part 17: broadcasting — greedy schedules vs the [22,2] constants    *)
(* ---------------------------------------------------------------- *)

let run_broadcast () =
  List.map
    (fun (g, mode) ->
      let p = Protocol.Broadcast_protocol.greedy_schedule g ~src:0 ~mode in
      let n = Digraph.n_vertices g in
      let logn = Util.Numeric.log2 (float_of_int n) in
      ( Digraph.name g,
        n,
        Bounds.Broadcast.lower_bound g,
        Bounds.Broadcast.asymptotic_coefficient g *. logn,
        Protocol.Protocol.length p ))
    [
      (Families.hypercube 7, Protocol.Protocol.Half_duplex);
      (Families.de_bruijn 2 7, Protocol.Protocol.Half_duplex);
      (Families.kautz 2 6, Protocol.Protocol.Half_duplex);
      (Families.wrapped_butterfly 2 5, Protocol.Protocol.Half_duplex);
      (Families.complete 128, Protocol.Protocol.Full_duplex);
      (Topology.Extra_families.knoedel ~delta:7 ~n:128, Protocol.Protocol.Full_duplex);
    ]

let print_broadcast () =
  let t =
    Table.make
      ~title:
        "Broadcasting: greedy schedule vs sound LB and the c(d)·log n of [22,2]"
      [ "network"; "n"; "sound LB"; "c(d)·log n"; "greedy schedule" ]
  in
  List.iter
    (fun (name, n, lb, cdlogn, len) ->
      Table.add_row t
        [
          name;
          string_of_int n;
          string_of_int lb;
          Printf.sprintf "%.1f" cdlogn;
          string_of_int len;
        ])
    (run_broadcast ());
  Table.print t;
  print_endline
    "(broadcasting systolizes at no cost [8]: wrapping the schedule as a\n\
    \ period reproduces the same completion time — asserted in the tests.)"

(* ---------------------------------------------------------------- *)
(* Part 18: scale — the simulator on growing de Bruijn networks       *)
(* ---------------------------------------------------------------- *)

let run_scale () =
  List.map
    (fun dim ->
      let g = Families.de_bruijn 2 dim in
      let sys = Builders.edge_coloring_half_duplex g in
      let t0 = Sys.time () in
      let rounds = Engine.gossip_time sys in
      let elapsed = Sys.time () -. t0 in
      (dim, Digraph.n_vertices g, Systolic.period sys, rounds, elapsed))
    [ 8; 9; 10; 11; 12 ]

let print_scale () =
  let t =
    Table.make
      ~title:"Scale: periodic half-duplex gossip on DB(2,D), simulator throughput"
      [ "D"; "n"; "s"; "gossip rounds"; "sim seconds" ]
  in
  List.iter
    (fun (dim, n, s, rounds, elapsed) ->
      Table.add_row t
        [
          string_of_int dim;
          string_of_int n;
          string_of_int s;
          (match rounds with Some r -> string_of_int r | None -> "DNF");
          Printf.sprintf "%.3f" elapsed;
        ])
    (run_scale ());
  Table.print t;
  print_endline
    "(gossip rounds grow linearly in D = log n, the shape the upper bounds\n\
    \ of [24,25] predict for periodic protocols on de Bruijn networks.)"

(* ---------------------------------------------------------------- *)
(* Part 19: ablation — which local pattern maximizes ‖Mx(λ)‖?        *)
(* ---------------------------------------------------------------- *)

(* all (l, r) block patterns with total period s and k blocks *)
let compositions total parts =
  let rec go total parts =
    if parts = 1 then [ [ total ] ]
    else
      List.concat_map
        (fun first ->
          List.map (fun rest -> first :: rest) (go (total - first) (parts - 1)))
        (List.init (total - parts + 1) (fun i -> i + 1))
  in
  if parts < 1 || total < parts then [] else go total parts

let run_pattern_ablation () =
  let s = 6 and lambda = Bounds.General.lambda_star 6 in
  let patterns =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun lsum ->
            let rsum = s - lsum in
            if rsum < k then []
            else
              List.concat_map
                (fun l ->
                  List.map (fun r -> (Array.of_list l, Array.of_list r))
                    (compositions rsum k))
                (compositions lsum k))
          (List.init (s - (2 * k) + 1) (fun i -> i + k)))
      [ 1; 2; 3 ]
  in
  let rows =
    List.map
      (fun (l, r) ->
        let pat = Local_matrix.make_pattern ~l ~r in
        let h = 6 * Local_matrix.blocks pat in
        let nrm = Spectral.norm2_dense (Local_matrix.mx pat ~h ~lambda) in
        (l, r, nrm))
      patterns
  in
  (lambda, rows)

let print_pattern_ablation () =
  let lambda, rows = run_pattern_ablation () in
  let cf =
    Delay_matrix.closed_form_bound ~mode:Protocol.Protocol.Half_duplex
      ~window:6 lambda
  in
  let show a = String.concat ";" (List.map string_of_int (Array.to_list a)) in
  let sorted = List.sort (fun (_, _, x) (_, _, y) -> compare y x) rows in
  let t =
    Table.make
      ~title:
        (Printf.sprintf
           "Ablation: ‖Mx(λ*)‖ by local pattern, s = 6, λ* = %.4f (closed form %.4f)"
           lambda cf)
      [ "l blocks"; "r blocks"; "‖Mx‖"; "gap to closed form" ]
  in
  List.iteri
    (fun i (l, r, nrm) ->
      if i < 8 then
        Table.add_row t
          [
            show l; show r; Table.cell_f nrm; Printf.sprintf "%.4f" (cf -. nrm);
          ])
    sorted;
  Table.print t;
  print_endline
    "(the balanced single-block pattern l = [3], r = [3] attains the top —\n\
    \ exactly the worst case Lemma 4.3's unbalancing inequality predicts;\n\
    \ every pattern stays below the closed form.)"

(* ---------------------------------------------------------------- *)
(* Part 20: message complexity of systolic protocols                  *)
(* ---------------------------------------------------------------- *)

let run_messages () =
  List.map
    (fun (name, sys) ->
      (name, Simulate.Stats.message_complexity sys))
    [
      ("Q5 sweep hd", Builders.hypercube_sweep ~dim:5 ~full_duplex:false);
      ("DB(2,5) periodic", Builders.edge_coloring_half_duplex (Families.de_bruijn 2 5));
      ("C16 rotate", Builders.cycle_rotate 16);
      ("W(4,16) knoedel", Builders.knoedel_sweep ~delta:4 ~n:16);
      ("Tree(2,4) updown", Builders.tree_updown ~d:2 ~depth:4);
    ]

let print_messages () =
  let t =
    Table.make
      ~title:"Message complexity to completion (obliviousness overhead)"
      [ "protocol"; "rounds"; "transmissions"; "useful"; "waste %" ]
  in
  List.iter
    (fun (name, (c : Simulate.Stats.message_costs)) ->
      Table.add_row t
        [
          name;
          string_of_int c.Simulate.Stats.rounds;
          string_of_int c.Simulate.Stats.transmissions;
          string_of_int c.Simulate.Stats.useful;
          Printf.sprintf "%.0f%%"
            (100.0
            *. float_of_int (c.Simulate.Stats.transmissions - c.Simulate.Stats.useful)
            /. float_of_int (max 1 c.Simulate.Stats.transmissions));
        ])
    (run_messages ());
  Table.print t

(* ---------------------------------------------------------------- *)
(* Part 21: Bechamel micro-benchmarks, one per table                  *)
(* ---------------------------------------------------------------- *)

let bechamel_tests () =
  let open Bechamel in
  let stage f = Staged.stage f in
  [
    Test.make ~name:"fig4_table" (stage (fun () -> ignore (run_fig4 ())));
    Test.make ~name:"fig1_3_local_matrices"
      (stage (fun () -> ignore (run_fig1_3 ())));
    Test.make ~name:"fig5_table" (stage (fun () -> ignore (run_fig5 ())));
    Test.make ~name:"fig6_table" (stage (fun () -> ignore (run_fig6 ())));
    Test.make ~name:"fig7_local_matrix" (stage (fun () -> ignore (run_fig7 ())));
    Test.make ~name:"fig8_table" (stage (fun () -> ignore (run_fig8 ())));
    Test.make ~name:"separator_measure"
      (stage (fun () ->
           let g = Families.de_bruijn_directed 2 7 in
           ignore (Separator.measure g (Separator.de_bruijn ~d:2 ~dim:7))));
    Test.make ~name:"thm41_certificate"
      (stage (fun () ->
           let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
           let dg = Delay_digraph.of_systolic sys ~length:8 in
           ignore (Certificate.certify dg ~mode:Protocol.Protocol.Half_duplex)));
    Test.make ~name:"norm_sweep_point"
      (stage (fun () ->
           let g = Families.de_bruijn 2 4 in
           let sys =
             Builders.random_systolic g Protocol.Protocol.Half_duplex ~period:6
               ~seed:11 ~density:1.0
           in
           let dg = Delay_digraph.of_systolic sys ~length:24 in
           ignore (Delay_matrix.norm_blockwise dg 0.6)));
    Test.make ~name:"gossip_simulation"
      (stage (fun () ->
           ignore
             (Engine.gossip_time
                (Builders.edge_coloring_half_duplex (Families.de_bruijn 2 5)))));
    Test.make ~name:"price_of_systolization_p4"
      (stage (fun () ->
           ignore
             (Search.Systolic_optimal.price_of_systolization ~s_max:4
                (Families.path 4) Protocol.Protocol.Half_duplex)));
    Test.make ~name:"weighted_diameter_bound"
      (stage (fun () ->
           ignore
             (Delay.Weighted_diameter.lower_bound
                (Delay.Weighted_diameter.of_digraph
                   (Families.de_bruijn_directed 2 6)))));
    Test.make ~name:"fig5_extended_table"
      (stage (fun () -> ignore (Tables.fig5_extended ~ds:[ 4 ] ~ss:[ 10; 12 ])));
    Test.make ~name:"fault_injection_run"
      (stage (fun () ->
           ignore
             (Simulate.Faults.gossip_time_with_faults
                (Builders.cycle_rotate 16) ~drop_probability:0.2 ~seed:1)));
    Test.make ~name:"pattern_ablation"
      (stage (fun () -> ignore (run_pattern_ablation ())));
    Test.make ~name:"message_complexity"
      (stage (fun () ->
           ignore
             (Simulate.Stats.message_complexity (Builders.cycle_rotate 16))));
    Test.make ~name:"broadcast_schedule"
      (stage (fun () ->
           ignore
             (Protocol.Broadcast_protocol.greedy_schedule
                (Families.de_bruijn 2 6) ~src:0
                ~mode:Protocol.Protocol.Half_duplex)));
  ]

let run_bechamel () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None
      ~stabilize:false ()
  in
  let tests = Test.make_grouped ~name:"tables" (bechamel_tests ()) in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results = Analyze.all ols instance raw in
  let t =
    Table.make
      ~title:"Bechamel — time to regenerate each table (monotonic clock)"
      [ "benchmark"; "ns/run" ]
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name v ->
      match Analyze.OLS.estimates v with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, est) -> Table.add_row t [ name; Printf.sprintf "%.0f" est ])
    (List.sort compare !rows);
  Table.print t

(* ---------------------------------------------------------------- *)
(* Driver: named parts, per-part wall timing, machine-readable report *)
(* ---------------------------------------------------------------- *)

let print_cache_stats () =
  Format.printf "%a@." Context.pp_stats ctx;
  if Util.Instrument.enabled () then
    Format.printf "%a@?" Util.Instrument.pp_summary ()

(* Part 23: the serving layer's hot paths — wire codec round trips and
   bounded-queue admission — measured standalone, without sockets, so the
   numbers isolate protocol overhead from network and evaluation cost.
   Each row times its loop [repeats] times and reports the best repeat
   (a noisy neighbour only ever slows a repeat down) with the spread
   between the slowest and the best. *)
let print_serve_bench () =
  let module Wire = Gossip_serve.Wire in
  let module Bq = Gossip_serve.Bounded_queue in
  let repeats = 7 in
  let rate label iters f =
    let once () =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to iters do
        f ()
      done;
      float_of_int iters /. (Unix.gettimeofday () -. t0)
    in
    let rates = List.init repeats (fun _ -> once ()) in
    ( label,
      List.fold_left Float.max 0.0 rates,
      List.fold_left Float.min infinity rates )
  in
  let request =
    {
      Wire.id = Util.Json.Int 7;
      op =
        Wire.Bound
          {
            net = { Wire.family = "hypercube"; dim = 8; degree = 2 };
            s = Some 4;
            full_duplex = false;
          };
      timeout_ms = Some 2000;
      trace = None;
    }
  in
  let encoded = Util.Json.to_string (Wire.request_to_json request) in
  let response =
    Wire.ok_response ~id:(Util.Json.Int 7)
      (Util.Json.Obj [ ("sound", Util.Json.Int 12) ])
  in
  let encoded_resp = Util.Json.to_string response in
  (* the tables reply: 372 floats, the largest frame of the serving mix *)
  let tables_resp =
    Wire.ok_response ~id:(Util.Json.Int 7)
      (Gossip_bounds.Tables.to_json ~s_max:8 ~ss:[ 3; 4; 5; 6; 7; 8 ] ())
  in
  let encoded_tables = Util.Json.to_string tables_resp in
  (* [n] tables frames written into a pipe by a second thread and read
     back with [Wire.read_frame], as a client receives them *)
  let read_tables_frames n =
    let r, w = Unix.pipe ~cloexec:true () in
    let frame = Bytes.of_string (encoded_tables ^ "\n") in
    let writer =
      Thread.create
        (fun () ->
          for _ = 1 to n do
            let off = ref 0 in
            while !off < Bytes.length frame do
              off := !off + Unix.write w frame !off (Bytes.length frame - !off)
            done
          done;
          Unix.close w)
        ()
    in
    let ic = Unix.in_channel_of_descr r in
    for _ = 1 to n do
      match Wire.read_frame ic ~max_bytes:Wire.default_max_frame_bytes with
      | Ok f -> assert (String.length f = String.length encoded_tables)
      | Error _ -> assert false
    done;
    close_in ic;
    Thread.join writer
  in
  let q = Bq.create ~capacity:1024 in
  let rows =
    [
      rate "request encode (to_json + print)" 50_000 (fun () ->
          ignore (Util.Json.to_string (Wire.request_to_json request)));
      rate "request decode (parse + validate)" 50_000 (fun () ->
          match Util.Json.of_string encoded with
          | Ok j -> ignore (Wire.parse_request j)
          | Error _ -> assert false);
      rate "response decode" 50_000 (fun () ->
          match Util.Json.of_string encoded_resp with
          | Ok j -> ignore (Wire.parse_response j)
          | Error _ -> assert false);
      rate
        (Printf.sprintf "tables reply encode (%d B)" (String.length encoded_tables))
        300
        (fun () -> ignore (Util.Json.to_string tables_resp));
      rate "tables reply decode (parse + validate)" 500 (fun () ->
          match Util.Json.of_string encoded_tables with
          | Ok j -> ignore (Wire.parse_response j)
          | Error _ -> assert false);
      (let frames = 1000 in
       let label, best, worst =
         rate "tables reply read_frame (pipe)" 1 (fun () ->
             read_tables_frames frames)
       in
       (label, best *. float_of_int frames, worst *. float_of_int frames));
      rate "queue push+pop pair" 200_000 (fun () ->
          ignore (Bq.try_push q request);
          ignore (Bq.pop q));
    ]
  in
  let t =
    Table.make
      ~title:
        (Printf.sprintf "Serving layer hot paths (best of %d repeats)" repeats)
      [ "operation"; "ops/s"; "us/op"; "spread" ]
  in
  List.iter
    (fun (label, best, worst) ->
      Table.add_row t
        [
          label;
          Printf.sprintf "%.0f" best;
          Printf.sprintf "%.2f" (1e6 /. best);
          Printf.sprintf "+%.0f%%" (100.0 *. ((best /. worst) -. 1.0));
        ])
    rows;
  Table.print t

(* Part 24: what the observability added to the dispatch hot path in
   PR 4 actually costs.  Both loops run the full per-request CPU
   pipeline the server executes between reading a frame and writing
   its reply — decode + validate, bounded-queue push/pop, the
   serve.request span around Dispatch.eval, latency histogram, reply
   encode — on the cheapest possible op (ping), which maximises the
   relative cost of everything that is not evaluation.  The baseline
   is the PR 3 shape; the instrumented loop adds exactly what PR 4
   added per request: request-id minting, ambient trace attributes,
   and the rolling Metrics.observe.  The delta is the per-request
   overhead; the target is under 5% even in this worst case (any real
   op's evaluation dwarfs the pipeline). *)
let print_observability_overhead () =
  let module Serve = Gossip_serve in
  let disp = Serve.Dispatch.create () in
  let metrics = Serve.Metrics.create ~workers:1 ~queue_capacity:64 () in
  let q = Serve.Bounded_queue.create ~capacity:64 in
  let iters = 20_000 in
  let encoded =
    Util.Json.to_string
      (Serve.Wire.request_to_json
         { Serve.Wire.id = Util.Json.Int 7; op = Serve.Wire.Ping; timeout_ms = None; trace = None })
  in
  let rate f =
    let t0 = Unix.gettimeofday () in
    for i = 1 to iters do
      f i
    done;
    float_of_int iters /. (Unix.gettimeofday () -. t0)
  in
  let req_counter = Atomic.make 1 in
  (* [`Baseline] is the PR 3 per-request shape.  [`Rolling] adds what
     every request now pays unconditionally: request-id minting and the
     rolling Metrics.observe.  [`Tagged] additionally forces the
     trace-only work — attribute construction and ambient installation —
     which the server skips unless a trace stream is attached (and a
     real trace's file I/O would dwarf it anyway). *)
  let pipeline variant _i =
    let req =
      match Util.Json.of_string encoded with
      | Ok j -> (
          match Serve.Wire.parse_request j with
          | Ok r -> r
          | Error _ -> assert false)
      | Error _ -> assert false
    in
    ignore (Serve.Bounded_queue.try_push q req);
    ignore (Serve.Bounded_queue.pop q);
    (* PR 3's process_job also did this per request *)
    Util.Instrument.set_gauge "serve.queue_depth" 0.0;
    Util.Instrument.add "serve.requests" 1;
    let req_id =
      if variant = `Baseline then 0 else Atomic.fetch_and_add req_counter 1
    in
    let attrs =
      if variant = `Tagged then
        [
          ("req_id", Util.Json.Int req_id);
          ("op", Util.Json.Str "ping");
          ("conn", Util.Json.Int 1);
        ]
      else []
    in
    let reply =
      Util.Instrument.span "serve.request" ~attrs (fun () ->
          let t0 = Util.Instrument.now_ns () in
          let r =
            if variant = `Tagged then
              Util.Instrument.with_ambient_attrs attrs (fun () ->
                  Serve.Dispatch.eval disp req.Serve.Wire.op)
            else Serve.Dispatch.eval disp req.Serve.Wire.op
          in
          let dt =
            Int64.to_float (Int64.sub (Util.Instrument.now_ns ()) t0) /. 1e9
          in
          Util.Instrument.observe "serve.request_seconds" dt;
          if variant <> `Baseline then
            Serve.Metrics.observe metrics ~op:"ping" ~ok:true ~queue_wait_s:0.0
              ~service_s:dt;
          match r with
          | Ok result -> Serve.Wire.ok_response ~id:req.Serve.Wire.id result
          | Error (code, message) ->
              Serve.Wire.error_response ~id:req.Serve.Wire.id ~code ~message)
    in
    ignore (Util.Json.to_string reply)
  in
  (* warm all paths so the per-op window and span accumulators are
     allocated outside the measurement *)
  for i = 1 to 1_000 do
    pipeline `Baseline i;
    pipeline `Rolling i;
    pipeline `Tagged i
  done;
  let baseline = rate (pipeline `Baseline) in
  let rolling = rate (pipeline `Rolling) in
  let tagged = rate (pipeline `Tagged) in
  let pct v = 100.0 *. ((baseline /. v) -. 1.0) in
  let t =
    Table.make ~title:"Observability overhead on the dispatch hot path"
      [ "path"; "requests/s"; "overhead" ]
  in
  Table.add_row t
    [ "decode+queue+span+eval+encode (PR 3 shape)";
      Printf.sprintf "%.0f" baseline; "—" ];
  Table.add_row t
    [ "+ req_id + rolling observe (every request)";
      Printf.sprintf "%.0f" rolling; Printf.sprintf "%.2f%%" (pct rolling) ];
  Table.add_row t
    [ "+ trace attrs + ambient (only when tracing)";
      Printf.sprintf "%.0f" tagged; Printf.sprintf "%.2f%%" (pct tagged) ];
  Table.print t;
  let added_ns = (1e9 /. rolling) -. (1e9 /. baseline) in
  Printf.printf
    "untraced per-request overhead: %.0f ns (%.2f%% of the syscall-free \
     pipeline)\n"
    added_ns (pct rolling);
  (* The pipeline above deliberately excludes what every real request
     also pays — socket reads/writes and thread handoffs.  Measure one
     end-to-end ping round trip against a real in-process server and
     express the added cost against it: that is the overhead a client
     actually sees. *)
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gossip_bench_%d.sock" (Unix.getpid ()))
  in
  let config =
    {
      (Serve.Server.default_config ~listen:(Serve.Server.Unix_socket sock)) with
      Serve.Server.workers = 2;
    }
  in
  let server = Serve.Server.create config in
  Serve.Server.start server;
  let client = Serve.Client.connect_retry (Serve.Server.Unix_socket sock) in
  for _ = 1 to 200 do
    ignore (Serve.Client.call client Serve.Wire.Ping)
  done;
  let rt_iters = 2_000 in
  let t0 = Util.Instrument.now_ns () in
  for _ = 1 to rt_iters do
    ignore (Serve.Client.call client Serve.Wire.Ping)
  done;
  let rt_ns =
    Int64.to_float (Int64.sub (Util.Instrument.now_ns ()) t0)
    /. float_of_int rt_iters
  in
  Serve.Client.close client;
  Serve.Server.request_stop server;
  Serve.Server.shutdown server;
  Printf.printf
    "end-to-end ping round trip: %.0f ns; added cost is %.2f%% of it \
     (target < 5%%)\n"
    rt_ns
    (100.0 *. added_ns /. rt_ns)

(* Part 25: what the robustness machinery costs when it is NOT in use.
   PR 5 put two things on every request's path: the worker's exception
   barrier (a Fun.protect + try/with around the job) and the chaos
   check (one match on a [Chaos.t option]).  Both must vanish next to
   the ~87 ns observability overhead Part 24 prices: installing an
   OCaml exception handler costs nothing on the non-raising path, and
   matching [None] is a pointer test.  The third row turns chaos ON
   with negligible probabilities to price [Chaos.decide] itself — the
   per-request seeded draw a soak pays on every queued op. *)
let print_robustness_overhead () =
  let module Serve = Gossip_serve in
  let disp = Serve.Dispatch.create () in
  let metrics = Serve.Metrics.create ~workers:1 ~queue_capacity:64 () in
  let q = Serve.Bounded_queue.create ~capacity:64 in
  let iters = 20_000 in
  let encoded =
    Util.Json.to_string
      (Serve.Wire.request_to_json
         { Serve.Wire.id = Util.Json.Int 7; op = Serve.Wire.Ping; timeout_ms = None; trace = None })
  in
  (* the production per-request pipeline (Part 24's `Rolling` shape) *)
  let pipeline i =
    let req =
      match Util.Json.of_string encoded with
      | Ok j -> (
          match Serve.Wire.parse_request j with
          | Ok r -> r
          | Error _ -> assert false)
      | Error _ -> assert false
    in
    ignore (Serve.Bounded_queue.try_push q req);
    ignore (Serve.Bounded_queue.pop q);
    Util.Instrument.set_gauge "serve.queue_depth" 0.0;
    Util.Instrument.add "serve.requests" 1;
    let reply =
      Util.Instrument.span "serve.request" (fun () ->
          let t0 = Util.Instrument.now_ns () in
          let r = Serve.Dispatch.eval disp req.Serve.Wire.op in
          let dt =
            Int64.to_float (Int64.sub (Util.Instrument.now_ns ()) t0) /. 1e9
          in
          Util.Instrument.observe "serve.request_seconds" dt;
          Serve.Metrics.observe metrics ~op:"ping" ~ok:true ~queue_wait_s:0.0
            ~service_s:dt;
          ignore i;
          match r with
          | Ok result -> Serve.Wire.ok_response ~id:req.Serve.Wire.id result
          | Error (code, message) ->
              Serve.Wire.error_response ~id:req.Serve.Wire.id ~code ~message)
    in
    ignore (Util.Json.to_string reply)
  in
  let released = ref 0 in
  (* exactly what the worker loop wraps around every job since PR 5:
     the conn-release finaliser, the chaos decision, the panic and
     stall hooks, the reply-fault match — all on the no-fault path *)
  let guarded chaos i =
    Fun.protect
      ~finally:(fun () -> incr released)
      (fun () ->
        let decision =
          match Sys.opaque_identity (chaos : Serve.Chaos.t option) with
          | None -> Serve.Chaos.no_fault
          | Some plan -> Serve.Chaos.decide plan ~req_id:i
        in
        if decision.Serve.Chaos.panic then raise Serve.Chaos.Panic;
        if decision.Serve.Chaos.dispatch_latency_ms > 0 then
          Thread.delay
            (float_of_int decision.Serve.Chaos.dispatch_latency_ms /. 1000.0);
        (try pipeline i with Serve.Chaos.Panic -> ());
        match decision.Serve.Chaos.reply with None | Some _ -> ())
  in
  let tiny_chaos =
    (* probabilities so small no fault ever fires in 20k requests, so
       the row prices the decision draw, not the faults *)
    match Serve.Chaos.make ~seed:42 ~drop:1e-12 () with
    | Some plan -> Some plan
    | None -> assert false
  in
  let rate f =
    let t0 = Unix.gettimeofday () in
    for i = 1 to iters do
      f i
    done;
    float_of_int iters /. (Unix.gettimeofday () -. t0)
  in
  for i = 1 to 1_000 do
    pipeline i;
    guarded None i;
    guarded tiny_chaos i
  done;
  (* the deltas under measurement are tens of ns on a ~1.5 µs pipeline:
     interleave the variants and keep each one's best pass, so shared
     noise (GC pauses, scheduling) cancels instead of masquerading as
     overhead *)
  let bare = ref 0.0 and disabled = ref 0.0 and enabled = ref 0.0 in
  for _ = 1 to 5 do
    bare := Float.max !bare (rate pipeline);
    disabled := Float.max !disabled (rate (guarded None));
    enabled := Float.max !enabled (rate (guarded tiny_chaos))
  done;
  let bare = !bare and disabled = !disabled and enabled = !enabled in
  let ns v = 1e9 /. v in
  let delta v = ns v -. ns bare in
  let t =
    Table.make ~title:"Robustness machinery on the dispatch hot path"
      [ "path"; "requests/s"; "ns/req"; "added ns" ]
  in
  Table.add_row t
    [ "pipeline, no barrier (PR 4 shape)"; Printf.sprintf "%.0f" bare;
      Printf.sprintf "%.0f" (ns bare); "—" ];
  Table.add_row t
    [ "+ barrier + chaos check (chaos off)"; Printf.sprintf "%.0f" disabled;
      Printf.sprintf "%.0f" (ns disabled);
      Printf.sprintf "%+.0f" (delta disabled) ];
  Table.add_row t
    [ "+ Chaos.decide (chaos on, faults ~never)";
      Printf.sprintf "%.0f" enabled; Printf.sprintf "%.0f" (ns enabled);
      Printf.sprintf "%+.0f" (delta enabled) ];
  Table.print t;
  Printf.printf
    "barrier + disabled-chaos check: %+.0f ns/request (target: lost in the \
     noise of Part 24's ~87 ns observability overhead)\n"
    (delta disabled)

(* ---------------------------------------------------------------- *)
(* Part 26: chunked engine scaling — implicit DB(2,D) to a million    *)
(* ---------------------------------------------------------------- *)

(* Part 18 tops out near 30k vertices because it materializes the
   digraph and the full n² knowledge state.  The implicit path tracks 64
   items through round tables compiled from a Schedule, so the same
   curve extends two orders of magnitude further; the gauge per size
   lands in the --json report. *)
let print_scale_implicit () =
  let t =
    Table.make
      ~title:
        "Scale (implicit): chunked gossip on DB(2,D), 64 tracked items"
      [ "D"; "n"; "rounds"; "seconds"; "nodes*rounds/s" ]
  in
  List.iter
    (fun dim ->
      let imp = Topology.Implicit.de_bruijn 2 dim in
      let n = Topology.Implicit.n_vertices imp in
      let sched =
        Protocol.Schedule.proposal imp ~period:64 ~seed:1 ~full_duplex:false
      in
      let st = Simulate.Chunked.create ~items:(min n 64) n in
      let t0 = Util.Instrument.now_ns () in
      let outcome = Simulate.Chunked.run st sched in
      let dt =
        Int64.to_float (Int64.sub (Util.Instrument.now_ns ()) t0) /. 1e9
      in
      let rate =
        if dt > 0.0 then
          float_of_int n
          *. float_of_int outcome.Simulate.Chunked.rounds_run
          /. dt
        else 0.0
      in
      Util.Instrument.set_gauge
        (Printf.sprintf "bench.scale_implicit.nodes_rounds_per_sec.n%d" n)
        rate;
      Table.add_row t
        [
          string_of_int dim;
          string_of_int n;
          (match outcome.Simulate.Chunked.time with
          | Some r -> string_of_int r
          | None -> "DNF");
          Printf.sprintf "%.3f" dt;
          Printf.sprintf "%.3g" rate;
        ])
    [ 14; 17; 20 ];
  Table.print t;
  print_endline
    "(the 10^6-vertex row is ~100x beyond Part 18's materialized ceiling;\n\
    \ memory is n x 64 bits of state, never an adjacency structure.)"

(* ---------------------------------------------------------------- *)
(* Part 27: cluster layer — ring hot path and router overhead        *)
(* ---------------------------------------------------------------- *)

(* Two costs decide whether fronting the shards with gossip_router is
   affordable: the consistent-hash placement every keyed request pays
   (pure CPU, measured standalone) and the extra socket hop + forward
   the router adds over dialing a shard directly (measured against a
   real in-process shard/router pair on Unix sockets; the mixed ops hit
   the shard's warm cache after the first call, so the delta isolates
   forwarding, not evaluation). *)
let print_cluster_bench () =
  let module Ring = Gossip_cluster.Ring in
  let module Membership = Gossip_cluster.Membership in
  let module Router = Gossip_cluster.Router in
  let module Server = Gossip_serve.Server in
  let module Client = Gossip_serve.Client in
  let module Wire = Gossip_serve.Wire in
  (* --- placement hot path --- *)
  let shard_names = List.init 16 (fun i -> Printf.sprintf "shard-%02d" i) in
  let ring = Ring.create ~vnodes:64 shard_names in
  let keys = Array.init 1024 (fun i -> Printf.sprintf "key-%d" i) in
  let counter = ref 0 in
  let next_key () =
    incr counter;
    keys.(!counter land 1023)
  in
  let rate label iters f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    (label, float_of_int iters /. dt)
  in
  let hot =
    [
      rate "hash64" 1_000_000 (fun () -> ignore (Ring.hash64 (next_key ())));
      rate "ring lookup (16 shards x 64 vnodes)" 1_000_000 (fun () ->
          ignore (Ring.lookup ring (next_key ())));
      rate "ring replicas k=3" 200_000 (fun () ->
          ignore (Ring.replicas ring ~k:3 (next_key ())));
      rate "ring rebuild (16 shards x 64 vnodes)" 2_000 (fun () ->
          ignore (Ring.create ~vnodes:64 shard_names));
    ]
  in
  let t =
    Table.make ~title:"Cluster placement hot paths" [ "operation"; "ops/s" ]
  in
  List.iter
    (fun (label, r) ->
      (match label with
      | "ring lookup (16 shards x 64 vnodes)" ->
          Util.Instrument.set_gauge "bench.cluster.ring_lookups_per_sec" r
      | _ -> ());
      Table.add_row t [ label; Printf.sprintf "%.0f" r ])
    hot;
  Table.print t;
  (* --- router overhead vs a direct shard dial --- *)
  let tmp = Filename.get_temp_dir_name () in
  let sock name =
    Filename.concat tmp (Printf.sprintf "gossip-bench-%s-%d.sock" name (Unix.getpid ()))
  in
  let spath = sock "shard" and rpath = sock "router" in
  List.iter (fun p -> try Unix.unlink p with _ -> ()) [ spath; rpath ];
  let shard_config =
    {
      (Server.default_config ~listen:(Server.Unix_socket spath)) with
      Server.workers = 2;
      queue_capacity = 64;
    }
  in
  let shard = Server.create shard_config in
  Server.start shard;
  let membership =
    Membership.create ~self:"bench-router" ~addr:("unix:" ^ rpath)
      ~role:"router" ()
  in
  ignore
    (Membership.merge membership
       [
         {
           Membership.node = "bench-shard";
           addr = "unix:" ^ spath;
           role = "shard";
           version = Version.string;
           incarnation = 1;
           heartbeat = 1;
           status = Membership.Alive;
         };
       ]);
  let metrics = Gossip_serve.Metrics.create ~workers:2 ~queue_capacity:64 () in
  let router = Router.create ~membership ~metrics ~vnodes:64 ~replicas:1 () in
  let router_config =
    {
      (Server.default_config ~listen:(Server.Unix_socket rpath)) with
      Server.workers = 2;
      queue_capacity = 64;
      inline_observability = false;
    }
  in
  let rserver =
    Server.create ~metrics ~evaluate:(Router.evaluate router) router_config
  in
  Server.start rserver;
  let percentiles listen op n =
    let c = Client.connect_retry listen in
    let lat = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let t0 = Util.Instrument.now_ns () in
      (match Client.call c op with
      | Ok { Wire.outcome = Ok _; _ } -> ()
      | Ok { Wire.outcome = Error (code, msg); _ } ->
          failwith (Wire.error_code_to_string code ^ ": " ^ msg)
      | Error e -> failwith e);
      lat.(i) <-
        Int64.to_float (Int64.sub (Util.Instrument.now_ns ()) t0) /. 1e3
    done;
    Client.close c;
    Array.sort compare lat;
    (lat.(n / 2), lat.(min (n - 1) (n * 99 / 100)))
  in
  let ping = Wire.Ping in
  let mixed i =
    if i land 1 = 0 then Wire.Tables { s_max = 8; ss = [ 3; 4; 5; 6 ] }
    else
      Wire.Bound
        {
          net = { Wire.family = "hypercube"; dim = 4; degree = 2 };
          s = Some 4;
          full_duplex = false;
        }
  in
  let mixed_percentiles listen n =
    let c = Client.connect_retry listen in
    let lat = Array.make n 0.0 in
    for i = 0 to n - 1 do
      let t0 = Util.Instrument.now_ns () in
      (match Client.call c (mixed i) with
      | Ok { Wire.outcome = Ok _; _ } -> ()
      | Ok { Wire.outcome = Error (code, msg); _ } ->
          failwith (Wire.error_code_to_string code ^ ": " ^ msg)
      | Error e -> failwith e);
      lat.(i) <-
        Int64.to_float (Int64.sub (Util.Instrument.now_ns ()) t0) /. 1e3
    done;
    Client.close c;
    Array.sort compare lat;
    (lat.(n / 2), lat.(min (n - 1) (n * 99 / 100)))
  in
  let n = 2_000 in
  let d_p50, d_p99 = percentiles (Server.Unix_socket spath) ping n in
  let r_p50, r_p99 = percentiles (Server.Unix_socket rpath) ping n in
  let dm_p50, dm_p99 = mixed_percentiles (Server.Unix_socket spath) n in
  let rm_p50, rm_p99 = mixed_percentiles (Server.Unix_socket rpath) n in
  Server.shutdown rserver;
  Server.shutdown shard;
  List.iter (fun p -> try Unix.unlink p with _ -> ()) [ spath; rpath ];
  Util.Instrument.set_gauge "bench.cluster.router_ping_p50_us" r_p50;
  Util.Instrument.set_gauge "bench.cluster.direct_ping_p50_us" d_p50;
  let t =
    Table.make ~title:"Router overhead (2000 calls per row, microseconds)"
      [ "path"; "p50 us"; "p99 us" ]
  in
  List.iter
    (fun (label, p50, p99) ->
      Table.add_row t
        [ label; Printf.sprintf "%.0f" p50; Printf.sprintf "%.0f" p99 ])
    [
      ("direct ping", d_p50, d_p99);
      ("router ping", r_p50, r_p99);
      ("direct mixed (tables/bound, warm cache)", dm_p50, dm_p99);
      ("router mixed (tables/bound, warm cache)", rm_p50, rm_p99);
    ];
  Table.print t;
  Printf.printf
    "(router adds %.0f us to a p50 ping — one extra Unix-socket hop, a\n\
    \ ring lookup and a forwarded frame; doc/cluster.md discusses the\n\
    \ budget.)\n"
    (r_p50 -. d_p50)

(* ---------------------------------------------------------------- *)
(* Part 28: adversarial fault certification throughput              *)
(* ---------------------------------------------------------------- *)

(* The certifier's unit of work is one pattern simulation (with_drops
   wrapper + chunked run to completion or cap).  The k = 2 exhaustive
   certification of the augmented 12-cycle — 2629 patterns, every one
   completing — is the steady-state shape, so patterns/sec from it is
   the regression gauge. *)
let print_fault_cert_bench () =
  let module Schedule = Protocol.Schedule in
  let module Fault_tolerant = Protocol.Fault_tolerant in
  let module Certifier = Simulate.Certifier in
  let base = Schedule.cycle_alternating ~n:12 ~full_duplex:false in
  let t =
    Table.make
      ~title:"Adversarial certification (cycle n=12, exhaustive, seed 7)"
      [ "scheme"; "k"; "patterns"; "seconds"; "patterns/s"; "verdict" ]
  in
  let row ?(repeats = 1) sched ~k ~budget =
    let t0 = Unix.gettimeofday () in
    let v = ref (Certifier.certify ~domains:1 ~budget sched ~k ~seed:7) in
    for _ = 2 to repeats do
      v := Certifier.certify ~domains:1 ~budget sched ~k ~seed:7
    done;
    let dt = (Unix.gettimeofday () -. t0) /. float_of_int repeats in
    let v = !v in
    let rate = float_of_int v.Certifier.patterns_checked /. dt in
    Table.add_row t
      [
        Schedule.name sched;
        string_of_int k;
        string_of_int v.Certifier.patterns_checked;
        Printf.sprintf "%.3f" dt;
        Printf.sprintf "%.0f" rate;
        (if v.Certifier.certified then "certified"
         else
           Printf.sprintf "cx size %d"
             (match v.Certifier.counterexample with
             | Some c -> List.length c.Certifier.cx_pattern
             | None -> 0));
      ];
    rate
  in
  ignore (row base ~k:1 ~budget:512);
  let aug, _ = Fault_tolerant.augment base ~k:2 in
  ignore (row aug ~k:1 ~budget:512);
  (* 10 repeats: the per-run 25 ms would sit too close to perf_diff's
     0.01 s gating floor to gate reliably *)
  let rate = row ~repeats:10 aug ~k:2 ~budget:4096 in
  Util.Instrument.set_gauge "bench.fault_cert.patterns_per_sec" rate;
  Table.print t;
  print_endline
    "(the k = 2 row enumerates C(48, <=2) = 2629 patterns exhaustively,\n\
    \ 10 times; its patterns/sec is the gauge BENCH_BASELINE.json gates.)"

let parts =
  [
    (1, "fig4", "Part 1: Fig. 4 — general systolic lower bounds", print_fig4);
    (2, "local-matrices", "Part 2: Figs. 1-3 — local matrices Mx, Nx, Ox",
     print_fig1_3);
    (3, "fig5", "Part 3: Fig. 5 — separator-refined systolic bounds",
     print_fig5);
    (4, "fig6", "Part 4: Fig. 6 — non-systolic bounds", print_fig6);
    (5, "fig7", "Part 5: Fig. 7 — full-duplex local matrix", print_fig7);
    (6, "fig8", "Part 6: Fig. 8 — full-duplex bounds", print_fig8);
    (7, "separators", "Part 7: separator measurements (Lemma 3.1)",
     print_separators);
    (8, "certificates", "Part 8: Theorem 4.1 certificates", print_certificates);
    (9, "norm-sweep", "Part 9: norm sweep (Lemmas 4.3 / 6.1)", print_norm_sweep);
    (10, "sandwich", "Part 10: upper vs lower sandwich", print_sandwich);
    (11, "price", "Part 11: price of systolization (exhaustive search)",
     print_price);
    (12, "weighted-diameter", "Part 12: weighted-diameter extension",
     print_weighted_diameter);
    (13, "extra-families", "Part 13: extra hypercube-derived families",
     print_extra_families);
    (14, "fig5-extended", "Part 14: Fig. 5 extended (d = 4, 5)",
     print_fig5_extended);
    (15, "faults", "Part 15: fault tolerance", print_faults);
    (16, "norm-crosscheck", "Part 16: whole-matrix vs blockwise norm",
     print_norm_crosscheck);
    (17, "broadcast", "Part 17: broadcasting", print_broadcast);
    (18, "scale", "Part 18: scale", print_scale);
    (19, "ablation", "Part 19: local-pattern ablation", print_pattern_ablation);
    (20, "messages", "Part 20: message complexity", print_messages);
    (21, "bechamel", "Part 21: Bechamel micro-benchmarks", run_bechamel);
    (22, "cache-stats", "Part 22: pipeline cache statistics", print_cache_stats);
    (23, "serve", "Part 23: serving layer (wire codec, bounded queue)",
     print_serve_bench);
    (24, "observability", "Part 24: request tagging + rolling metrics overhead",
     print_observability_overhead);
    (25, "robustness", "Part 25: exception barrier + disabled-chaos overhead",
     print_robustness_overhead);
    (26, "scale-implicit", "Part 26: chunked-engine scaling to 10^6 vertices",
     print_scale_implicit);
    (27, "cluster", "Part 27: cluster ring hot path + router overhead",
     print_cluster_bench);
    (28, "fault-cert", "Part 28: adversarial fault-certification throughput",
     print_fault_cert_bench);
  ]

(* Minimal argv parsing — the bench stays a plain executable:
     bench [--json PATH] [--parts 1,8,22]                             *)
let usage () =
  prerr_endline
    "usage: bench [--json PATH] [--parts N,M,...]\n\
    \  --json PATH   write a machine-readable report (schema \
     gossip-bench/1) to PATH\n\
    \  --parts LIST  run only the comma-separated part numbers (default: all)";
  exit 2

let parse_args () =
  let json_path = ref None and selected = ref None in
  let rec go = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json_path := Some path;
        go rest
    | "--parts" :: list :: rest ->
        let ids =
          List.filter_map
            (fun tok ->
              match int_of_string_opt (String.trim tok) with
              | Some i -> Some i
              | None -> usage ())
            (String.split_on_char ',' list)
        in
        selected := Some ids;
        go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  (!json_path, !selected)

let () =
  let json_path, selected = parse_args () in
  let wanted id =
    match selected with None -> true | Some ids -> List.mem id ids
  in
  let timings = ref [] in
  let t_start = Util.Instrument.now_ns () in
  List.iter
    (fun (id, name, title, run) ->
      if wanted id then begin
        section title;
        let r0 = Util.Resource.sample () in
        let t0 = Util.Instrument.now_ns () in
        run ();
        let dt =
          Int64.to_float (Int64.sub (Util.Instrument.now_ns ()) t0) /. 1e9
        in
        let r1 = Util.Resource.sample () in
        Util.Instrument.observe "bench.part_seconds" dt;
        (* per-part resource delta: what the part allocated and how the
           collector worked for it, next to its wall time — this is the
           section perf_diff compares across reports *)
        timings :=
          (id, name, dt, Util.Resource.delta_json ~before:r0 ~after:r1)
          :: !timings
      end)
    parts;
  let total =
    Int64.to_float (Int64.sub (Util.Instrument.now_ns ()) t_start) /. 1e9
  in
  match json_path with
  | None -> ()
  | Some path ->
      let module J = Util.Json in
      let report =
        J.Obj
          [
            ("schema", J.Str "gossip-bench/1");
            ( "parts",
              J.List
                (List.rev_map
                   (fun (id, name, dt, resource) ->
                     J.Obj
                       [
                         ("part", J.Int id);
                         ("name", J.Str name);
                         ("seconds", J.Float dt);
                         ("resource", resource);
                       ])
                   !timings) );
            ("total_seconds", J.Float total);
            ("cache", Context.stats_json ctx);
            ("metrics", Util.Instrument.metrics_json ());
          ]
      in
      let oc = open_out path in
      output_string oc (J.to_string_pretty report);
      output_char oc '\n';
      close_out oc;
      Printf.printf "\nbench report written to %s\n" path
