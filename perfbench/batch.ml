(* The two in-process workloads: certify-batch and simulate.

   Both run on one domain (Parallel's output is bit-identical at every
   domain count, so the counters do not depend on it, and one domain
   keeps the timings steadiest on a shared two-core machine). *)

open Core
module Json = Util.Json
module Prng = Util.Prng
module Resource = Util.Resource
module B = Protocol.Builders
module F = Topology.Families
module Systolic = Protocol.Systolic
module Schedule = Protocol.Schedule
module Digraph = Topology.Digraph
module Delay_digraph = Delay.Delay_digraph
module Delay_matrix = Delay.Delay_matrix
module Certificate = Delay.Certificate
module Spectral = Linalg.Spectral
module Dense = Linalg.Dense
module Engine = Simulate.Engine
module Chunked = Simulate.Chunked

(* What a workload hands back to bench.ml: operation counts, the
   end-to-end and per-layer metrics (name, value), and free-form report
   fields (inputs, sample counts, counter bases). *)
type outcome = {
  attempted : int;
  failed : int;
  e2e : (string * float) list;
  layers : (string * float) list;
  report : (string * Json.t) list;
}

let fi = float_of_int

let floats xs = Json.List (List.map (fun x -> Json.Float x) xs)

(* Runs [pass] repeatedly until [seconds] have elapsed, at least once. *)
let repeat_for seconds pass =
  let t0 = Sample.now_s () in
  let rec go acc =
    let acc = pass () :: acc in
    if Sample.now_s () -. t0 < seconds then go acc else List.rev acc
  in
  go []

(* Peak resident set after the first [peak_passes] passes: a fixed
   amount of work, so the figure does not grow with the number of passes
   a faster or slower run fits in.  Read once, by [note_peak]. *)
let peak_passes = 3

let peak_rss = ref None
let peak_count = ref 0

let note_peak pass () =
  let r = pass () in
  incr peak_count;
  if !peak_count = peak_passes then peak_rss := Machine.peak_rss_mb None;
  r

(* Allocation and minor collections of the calling domain over [f]. *)
let with_resource f =
  let before = Resource.sample () in
  let r = f () in
  let after = Resource.sample () in
  ( r,
    ( after.Resource.minor_words +. after.Resource.major_words
      -. after.Resource.promoted_words
      -. (before.Resource.minor_words +. before.Resource.major_words
         -. before.Resource.promoted_words),
      after.Resource.minor_collections - before.Resource.minor_collections ) )

(* {1 certify-batch} *)

type case = { name : string; sys : Systolic.t }

(* Bench Part 8's families at sizes that fit a dozen passes in a run
   (the full Part 8 set takes over ten seconds); several of them hit the
   power iteration's 10 000-sweep cap, the kernel's dominant cost. *)
let part8_cases () =
  let hd g = B.edge_coloring_half_duplex g and fd g = B.edge_coloring_full_duplex g in
  [
    { name = "Q5 half-duplex sweep"; sys = B.hypercube_sweep ~dim:5 ~full_duplex:false };
    { name = "Q5 full-duplex sweep"; sys = B.hypercube_sweep ~dim:5 ~full_duplex:true };
    { name = "C16 rotate"; sys = B.cycle_rotate 16 };
    { name = "P16 wave"; sys = B.path_wave 16 };
    { name = "DB(2,4) periodic hd"; sys = hd (F.de_bruijn 2 4) };
    { name = "K(2,3) periodic hd"; sys = hd (F.kautz 2 3) };
    { name = "WBF(2,3) periodic hd"; sys = hd (F.wrapped_butterfly 2 3) };
    { name = "BF(2,3) periodic fd"; sys = fd (F.butterfly 2 3) };
    { name = "Grid4x4 periodic hd"; sys = hd (F.grid 4 4) };
    { name = "Tree(2,3) periodic fd"; sys = fd (F.complete_dary_tree 2 3) };
  ]

(* Seeded random protocols: edge-coloured random cubic graphs, and
   random 4-systolic full-duplex matchings on random cubic graphs.  They
   are small so that the batch's cost, which varies with the seed through
   them, stays dominated by the fixed families.  Candidates that never
   complete gossip (a disconnected graph, a matching sequence that misses
   an edge) are skipped, so no measured operation fails. *)
let random_cases ~seed =
  let rng = Prng.create seed in
  let rec draw acc k tries =
    if k = 8 then List.rev acc
    else if tries > 1000 then failwith "random_cases: no gossiping candidate"
    else
      let s = 1 + Prng.int rng 1_000_000 in
      let n = 8 in
      let g = Topology.Random_graphs.regular ~n ~degree:3 ~seed:s in
      let name, sys =
        if k < 6 then
          (Printf.sprintf "R(%d,3)#%d periodic hd" n s, B.edge_coloring_half_duplex g)
        else
          ( Printf.sprintf "R(%d,3)#%d random 4-systolic fd" n s,
            B.random_systolic g Protocol.Protocol.Full_duplex ~period:4 ~seed:s
              ~density:1.0 )
      in
      if Digraph.is_strongly_connected g && Engine.gossip_time sys <> None then
        draw ({ name; sys } :: acc) (k + 1) 0
      else draw acc k (tries + 1)
  in
  draw [] 0 0

let certify_inputs ~seed = part8_cases () @ random_cases ~seed

(* One certificate through the memoizing context, the way bench Part 8
   and the server compute it. *)
let certify_one ctx sys =
  match Context.gossip_time ctx sys with
  | None -> None
  | Some t ->
      let dg = Context.delay_digraph ctx sys ~length:t in
      Some (t, Context.certify ctx dg ~mode:(Systolic.mode sys))

(* Per-layer timings of one traced pass, taken around the public calls
   (the norm through [Certificate.certify ?norm]). *)
type traced = {
  mutable horizon_s : float;
  mutable dg_s : float;
  mutable certify_s : float;
  mutable norm_s : float;
  mutable norm_calls : int;
  mutable activations : int;
  mutable cert_times : float list;
  mutable norm_args : (Delay_digraph.t * float) list;  (* reversed *)
}

let certify_traced ctx tr sys =
  let gt, s = Sample.time (fun () -> Context.gossip_time ctx sys) in
  tr.horizon_s <- tr.horizon_s +. s;
  match gt with
  | None -> None
  | Some t ->
      let dg, s = Sample.time (fun () -> Context.delay_digraph ctx sys ~length:t) in
      tr.dg_s <- tr.dg_s +. s;
      tr.activations <- tr.activations + Delay_digraph.n_activations dg;
      let norm dg lambda =
        let v, s = Sample.time (fun () -> Context.norm ctx dg lambda) in
        tr.norm_s <- tr.norm_s +. s;
        tr.norm_calls <- tr.norm_calls + 1;
        tr.norm_args <- (dg, lambda) :: tr.norm_args;
        v
      in
      let cert, s =
        Sample.time (fun () -> Certificate.certify ~norm dg ~mode:(Systolic.mode sys))
      in
      tr.certify_s <- tr.certify_s +. s;
      tr.cert_times <- s :: tr.cert_times;
      Some (t, cert)

(* The kernel's work, replayed outside the timed passes: every vertex
   block of every norm call goes through [Spectral.norm2_of_ops] with a
   counting [mv], and separately through a timed [norm2_dense]. *)
let replay_kernel norm_args =
  let blocks = ref 0 and solves = ref 0 and applies = ref 0 and capped = ref 0 in
  let entries_touched = ref 0.0 and busy = ref 0.0 and build = ref 0.0 in
  let distinct = Hashtbl.create 4096 in
  let cap = 2 * Spectral.default_options.Spectral.max_iter in
  List.iter
    (fun (dg, lambda) ->
      for x = 0 to Digraph.n_vertices (Delay_digraph.graph dg) - 1 do
        let block, s = Sample.time (fun () -> Delay_matrix.vertex_block dg lambda x) in
        build := !build +. s;
        incr blocks;
        let rows = Dense.rows block and cols = Dense.cols block in
        let key = Buffer.create 64 in
        Buffer.add_string key (Printf.sprintf "%d:%d:" rows cols);
        for i = 0 to rows - 1 do
          for j = 0 to cols - 1 do
            Buffer.add_int64_le key (Int64.bits_of_float (Dense.get block i j))
          done
        done;
        Hashtbl.replace distinct (Digest.string (Buffer.contents key)) ();
        if rows > 0 && cols > 0 then begin
          let _, s = Sample.time (fun () -> Spectral.norm2_dense block) in
          busy := !busy +. s;
          let k = ref 0 in
          ignore
            (Spectral.norm2_of_ops ~rows ~cols
               ~mv:(fun v ->
                 incr k;
                 Dense.mv block v)
               ~tmv:(Dense.tmv block) ());
          incr solves;
          applies := !applies + !k;
          if !k >= cap then incr capped;
          (* [mv] and [tmv] each read every entry, zeros included *)
          entries_touched := !entries_touched +. (2.0 *. fi !k *. fi (rows * cols))
        end
      done)
    norm_args;
  let solves_f = fi (max 1 !solves) in
  ( [
      ("spectral.solves", fi !solves);
      ("spectral.gram_applies", fi !applies);
      ("spectral.capped_solves", fi !capped);
      ("spectral.capped_frac", fi !capped /. solves_f);
      ("spectral.busy_s", !busy);
      ( "spectral.ns_per_entry",
        if !entries_touched > 0.0 then 1e9 *. !busy /. !entries_touched else 0.0 );
      ("delay_matrix.blocks", fi !blocks);
      ("delay_matrix.distinct_blocks", fi (Hashtbl.length distinct));
      ( "delay_matrix.distinct_blocks_frac",
        fi (Hashtbl.length distinct) /. fi (max 1 !blocks) );
      ("delay_matrix.block_build_s", !build);
    ],
    [
      ( "spectral.capped_frac",
        Json.Obj [ ("capped", Json.Int !capped); ("solves", Json.Int !solves) ] );
      ( "delay_matrix.distinct_blocks_frac",
        Json.Obj
          [
            ("distinct", Json.Int (Hashtbl.length distinct));
            ("blocks", Json.Int !blocks);
          ] );
      ("spectral.entries_touched", Json.Float !entries_touched);
    ] )

let context_kinds = [ "diameter"; "delay_digraph"; "norm"; "gossip_time" ]

let context_layers ctx =
  let by_kind = Context.stats_by_kind ctx in
  let st = Context.stats ctx in
  let kinds =
    List.concat_map
      (fun kind ->
        let k = List.assoc kind by_kind in
        [
          (Printf.sprintf "context.%s.hits" kind, fi k.Context.k_hits);
          (Printf.sprintf "context.%s.misses" kind, fi k.Context.k_misses);
          (Printf.sprintf "context.%s.evictions" kind, fi k.Context.k_evictions);
        ])
      context_kinds
  in
  [
    ("context.hits", fi st.Context.hits);
    ("context.misses", fi st.Context.misses);
    ("context.evictions", fi st.Context.evictions);
    ( "context.hit_frac",
      fi st.Context.hits /. fi (max 1 (st.Context.hits + st.Context.misses)) );
  ]
  @ kinds

(* Certificate checks: Theorem 4.1 soundness against the measured time,
   and the closed-form norm bound of Lemmas 4.3 / 6.1.  The lemma is an
   inequality between reals that is tight on some protocols; both sides
   here are rounded floats, so the norm may exceed the closed form by
   rounding (1e-12 relative), never by more. *)
let cert_ok ~t (c : Certificate.t) =
  c.Certificate.bound <= t
  && c.Certificate.norm <= c.Certificate.closed_form *. (1.0 +. 1e-12)

(* Collects the garbage the previous operation left, so that each timed
   operation pays for its own collection work and not for its
   predecessor's. *)
let settle () = Gc.full_major ()

(* Set-ups per run; [setup_s] is their median.  Generating the
   certify-batch inputs takes milliseconds, so that workload sets up more
   often. *)
let setup_repeats = 5

(* The first set-up's result and every set-up's seconds. *)
let timed_setups ?(repeats = setup_repeats) f =
  let runs =
    Array.init repeats (fun _ ->
        settle ();
        Sample.time f)
  in
  (fst runs.(0), Array.map snd runs)

let bound_total reference =
  Array.fold_left
    (fun acc r -> match r with Some (_, c) -> acc + c.Certificate.bound | None -> acc)
    0 reference

(* Timings are best-of-passes: on a shared machine a neighbour slows
   memory-bound code by up to 1.7x for seconds at a time, while the
   work of a pass is identical every time. *)
let certify_batch ~seed ~seconds ~trace =
  let cases, setup_times =
    timed_setups ~repeats:15 (fun () -> Array.of_list (certify_inputs ~seed))
  in
  let ncases = Array.length cases in
  let nfixed = List.length (part8_cases ()) in
  (* reference results: the first pass; every later pass must agree *)
  let reference = Array.make ncases None in
  let attempted = ref 0 and failed = ref 0 in
  let record i r =
    incr attempted;
    match (r, reference.(i)) with
    | None, _ -> incr failed
    | Some (t, c), None ->
        reference.(i) <- Some (t, c);
        if not (cert_ok ~t c) then incr failed
    | Some (t, c), Some (t0, c0) ->
        if t <> t0 || c <> c0 || not (cert_ok ~t c) then incr failed
  in
  let per_case = Array.init ncases (fun _ -> Sample.buf ()) in
  let plain_pass () =
    let ctx = Context.create () in
    let busy = ref 0.0 in
    Array.iteri
      (fun i c ->
        settle ();
        let r, s = Sample.time (fun () -> certify_one ctx c.sys) in
        Sample.push per_case.(i) s;
        busy := !busy +. s;
        record i r)
      cases;
    fi ncases /. !busy
  in
  let traced_pass () =
    let ctx = Context.create () in
    let tr =
      {
        horizon_s = 0.0;
        dg_s = 0.0;
        certify_s = 0.0;
        norm_s = 0.0;
        norm_calls = 0;
        activations = 0;
        cert_times = [];
        norm_args = [];
      }
    in
    let busy = ref 0.0 and alloc = ref 0.0 and minor = ref 0 in
    Array.iteri
      (fun i c ->
        settle ();
        let (r, s), (a, m) =
          with_resource (fun () -> Sample.time (fun () -> certify_traced ctx tr c.sys))
        in
        busy := !busy +. s;
        alloc := !alloc +. a;
        minor := !minor + m;
        record i r)
      cases;
    (fi ncases /. !busy, tr, context_layers ctx, !alloc, !minor)
  in
  let passes, layers, traced_report =
    if not trace then (repeat_for seconds (note_peak plain_pass), [], [])
    else begin
      let plain = repeat_for (seconds /. 2.0) plain_pass in
      let traced = repeat_for (seconds /. 2.0) traced_pass in
      let _, first, ctx_layers, _, _ = List.hd traced in
      let kernel, kernel_report = replay_kernel (List.rev first.norm_args) in
      let best f = Sample.min (Array.of_list (List.map f traced)) in
      let plain_rate = Sample.max (Array.of_list plain) in
      let traced_rate = Sample.max (Array.of_list (List.map (fun (r, _, _, _, _) -> r) traced)) in
      let cert_times tr = Array.of_list tr.cert_times in
      ( plain,
        kernel
        @ [
            ("delay_matrix.norm_calls", fi first.norm_calls);
            ("delay_matrix.norm_s", best (fun (_, tr, _, _, _) -> tr.norm_s));
            ("certificate.lambda_points", fi (List.length first.norm_args));
            ("certificate.self_s", best (fun (_, tr, _, _, _) -> tr.certify_s -. tr.norm_s));
            ("certificate.p50_s", best (fun (_, tr, _, _, _) -> Sample.median (cert_times tr)));
            ("certificate.max_s", best (fun (_, tr, _, _, _) -> Sample.max (cert_times tr)));
            ("certificate.bound_total", fi (bound_total reference));
            ("delay_digraph.build_s", best (fun (_, tr, _, _, _) -> tr.dg_s));
            ("delay_digraph.activations", fi first.activations);
            ("engine.horizon_s", best (fun (_, tr, _, _, _) -> tr.horizon_s));
            ("alloc_words", best (fun (_, _, _, a, _) -> a));
            ("gc.minor_collections", best (fun (_, _, _, _, m) -> fi m));
            ("trace.overhead_frac", (plain_rate /. traced_rate) -. 1.0);
          ]
        @ ctx_layers,
        kernel_report
        @ [
            ("traced_passes", Json.Int (List.length traced));
            ("untraced_certs_per_s", Json.Float plain_rate);
            ("traced_certs_per_s", Json.Float traced_rate);
          ] )
    end
  in
  (* a subset recomputed without the context must match exactly *)
  Array.iteri
    (fun i c ->
      if i mod 3 = 0 then
        match reference.(i) with
        | Some (t, cert) ->
            incr attempted;
            let dg = Delay_digraph.of_systolic c.sys ~length:t in
            if Certificate.certify dg ~mode:(Systolic.mode c.sys) <> cert then incr failed
        | None -> ())
    cases;
  let best = Array.map (fun b -> Sample.min (Sample.contents b)) per_case in
  (* latency percentiles over the fixed protocols only: the seeded ones
     change with the seed, and with them the rank of every quantile *)
  let fixed = Array.sub best 0 nfixed in
  {
    attempted = !attempted;
    failed = !failed;
    e2e =
      [
        ("setup_s", Sample.median setup_times);
        ("work_per_s", fi ncases /. Sample.sum best);
        ("p50_ms", 1000.0 *. Sample.median fixed);
        ("p99_ms", 1000.0 *. Sample.quantile fixed 0.99);
      ];
    layers;
    report =
      [
        ("work_unit", Json.Str "certificates");
        ("setup_samples_s", floats (Array.to_list setup_times));
        ( "latency_unit",
          Json.Str "one certificate of a fixed protocol, best of the passes" );
        ("latency_samples", Json.Int (nfixed * List.length passes));
        ("pass_rates", floats passes);
        ("case_best_ms", floats (Array.to_list (Array.map (fun s -> 1000.0 *. s) best)));
        ("bound_total", Json.Int (bound_total reference));
        ( "inputs",
          Json.List
            (Array.to_list
               (Array.mapi
                  (fun i c ->
                    Json.Obj
                      ([
                         ("name", Json.Str c.name);
                         ("n", Json.Int (Digraph.n_vertices (Systolic.graph c.sys)));
                         ("period", Json.Int (Systolic.period c.sys));
                       ]
                      @
                      match reference.(i) with
                      | Some (t, cert) ->
                          [ ("gossip_time", Json.Int t); ("certificate", Certificate.to_json cert) ]
                      | None -> []))
                  cases)) );
      ]
      @ traced_report;
  }

(* {1 simulate} *)

(* Explicit protocols for [Engine]: edge-coloured DB(2,12) and seeded
   random cubic graphs on 2048 vertices (full n-item state).  Cubic, not
   4-regular: the configuration model restarts some 7 times for degree 3
   against some 40 for degree 4, a cost that varies with the seed. *)
let explicit_inputs ~seed =
  let rng = Prng.create seed in
  let db = ("DB(2,12) periodic hd", B.edge_coloring_half_duplex (F.de_bruijn 2 12)) in
  let rec regular acc k =
    if k = 3 then List.rev acc
    else
      let s = 1 + Prng.int rng 1_000_000 in
      let g = Topology.Random_graphs.regular ~n:2048 ~degree:3 ~seed:s in
      if Digraph.is_strongly_connected g then
        regular
          ((Printf.sprintf "R(2048,3)#%d periodic hd" s, B.edge_coloring_half_duplex g) :: acc)
          (k + 1)
      else regular acc k
  in
  (db :: regular [] 0, Prng.int rng 1_000_000)

(* Implicit gossip for [Chunked]: 64 tracked items on implicit DB(2,14)
   under seeded mutual-proposal matchings. *)
let implicit_input ~proposal_seed =
  let imp = Topology.Implicit.de_bruijn 2 14 in
  (imp, Schedule.proposal imp ~period:64 ~seed:proposal_seed ~full_duplex:false)

let simulate_inputs ~seed =
  let explicit, proposal_seed = explicit_inputs ~seed in
  (explicit, implicit_input ~proposal_seed, proposal_seed)

(* Chunked at items = n must reproduce Engine's gossip time exactly. *)
let chunked_agrees_with_engine () =
  List.for_all
    (fun sys ->
      let n = Digraph.n_vertices (Systolic.graph sys) in
      let st = Chunked.create ~items:n n in
      let o = Chunked.run ~domains:1 st (Schedule.of_systolic sys) in
      o.Chunked.time = Engine.gossip_time sys)
    [
      B.edge_coloring_half_duplex (F.de_bruijn 2 6);
      B.edge_coloring_full_duplex (F.kautz 2 4);
      B.edge_coloring_half_duplex (Topology.Random_graphs.regular ~n:64 ~degree:3 ~seed:5);
    ]

let simulate ~seed ~seconds ~trace =
  let (explicit, (imp, sched), proposal_seed), setup_times =
    timed_setups (fun () -> simulate_inputs ~seed)
  in
  let n_imp = Topology.Implicit.n_vertices imp in
  let attempted = ref 0 and failed = ref 0 in
  (* operation k < explicit count: Engine on explicit k; last: Chunked *)
  let names = Array.of_list (List.map fst explicit @ [ "implicit" ]) in
  let nops = Array.length names in
  let times = Array.init nops (fun _ -> Sample.buf ()) in
  let reference = Array.make nops None in
  let node_rounds = Array.make nops 0.0 and run_rounds = Array.make nops 1.0 in
  let check k v ~n ~r =
    incr attempted;
    match (v, reference.(k)) with
    | None, _ -> incr failed
    | Some t, None ->
        reference.(k) <- Some t;
        run_rounds.(k) <- fi r;
        node_rounds.(k) <- fi (n * r)
    | Some t, Some t0 -> if t <> t0 then incr failed
  in
  (* allocation and minor collections of the timed runs of a cycle *)
  let alloc = ref 0.0 and minor = ref 0 in
  let timed f =
    settle ();
    let (r, s), (a, m) = with_resource (fun () -> Sample.time f) in
    alloc := !alloc +. a;
    minor := !minor + m;
    (r, s)
  in
  (* one cycle: every explicit protocol, then one implicit run *)
  let cycle () =
    List.iteri
      (fun k (_, sys) ->
        let t, s = timed (fun () -> Engine.gossip_time sys) in
        Sample.push times.(k) s;
        check k t ~n:(Digraph.n_vertices (Systolic.graph sys)) ~r:(Option.value t ~default:0))
      explicit;
    let o, s = timed (fun () -> Chunked.run ~domains:1 (Chunked.create ~items:64 n_imp) sched) in
    Sample.push times.(nops - 1) s;
    check (nops - 1)
      (if o.Chunked.final_coverage = 1.0 then o.Chunked.time else None)
      ~n:n_imp ~r:o.Chunked.rounds_run
  in
  let best () = Array.map (fun b -> Sample.min (Sample.contents b)) times in
  let rates () =
    let b = best () in
    let nexp = nops - 1 in
    let sub a = Array.sub a 0 nexp in
    ( Sample.sum node_rounds /. Sample.sum b,
      Sample.sum (sub node_rounds) /. Sample.sum (sub b),
      node_rounds.(nexp) /. b.(nexp) )
  in
  let cycles, layers, extra =
    if not trace then (List.length (repeat_for seconds (note_peak cycle)), [], [])
    else
      let plain = List.length (repeat_for (seconds /. 2.0) cycle) in
      let plain_rate, _, _ = rates () in
      Array.iter (fun b -> b.Sample.len <- 0) times;
      let traced =
        repeat_for (seconds /. 2.0) (fun () ->
            alloc := 0.0;
            minor := 0;
            cycle ();
            (!alloc, !minor))
      in
      let traced_rate, engine_rate, chunked_rate = rates () in
      let best f = Sample.min (Array.of_list (List.map f traced)) in
      let rounds k = Option.value reference.(k) ~default:0 in
      ( plain,
        [
          ("engine.node_rounds_per_s", engine_rate);
          ("engine.rounds", fi (List.fold_left ( + ) 0 (List.init (nops - 1) rounds)));
          ("chunked.node_rounds_per_s", chunked_rate);
          ("chunked.rounds", fi (rounds (nops - 1)));
          ("alloc_words", best fst);
          ("gc.minor_collections", best (fun (_, m) -> fi m));
          ("trace.overhead_frac", (plain_rate /. traced_rate) -. 1.0);
        ],
        [
          ("traced_cycles", Json.Int (List.length traced));
          ("untraced_node_rounds_per_s", Json.Float plain_rate);
          ("traced_node_rounds_per_s", Json.Float traced_rate);
        ] )
  in
  incr attempted;
  if not (chunked_agrees_with_engine ()) then incr failed;
  let b = best () in
  let work_per_s, _, _ = rates () in
  (* latency per simulated round: a run's length in rounds changes with
     the seeded graph, its cost per round much less *)
  let per_round = Array.mapi (fun k s -> s /. run_rounds.(k)) b in
  {
    attempted = !attempted;
    failed = !failed;
    e2e =
      [
        ("setup_s", Sample.median setup_times);
        ("work_per_s", work_per_s);
        ("p50_ms", 1000.0 *. Sample.median per_round);
        ("p99_ms", 1000.0 *. Sample.quantile per_round 0.99);
      ];
    layers;
    report =
      [
        ("work_unit", Json.Str "node-rounds");
        ("setup_samples_s", floats (Array.to_list setup_times));
        ("latency_unit", Json.Str "one round of one simulation run, best of the cycles");
        ("latency_samples", Json.Int (nops * cycles));
        ("cycles", Json.Int cycles);
        ( "explicit_inputs",
          Json.List
            (List.mapi
               (fun k (name, _) ->
                 Json.Obj
                   [
                     ("name", Json.Str name);
                     ( "gossip_time",
                       match reference.(k) with Some t -> Json.Int t | None -> Json.Null );
                   ])
               explicit) );
        ( "implicit_input",
          Json.Obj
            [
              ("name", Json.Str (Topology.Implicit.name imp));
              ("n", Json.Int n_imp);
              ("items", Json.Int 64);
              ("proposal_seed", Json.Int proposal_seed);
              ( "gossip_time",
                match reference.(nops - 1) with Some t -> Json.Int t | None -> Json.Null );
            ] );
        ("op_best_ms", floats (Array.to_list (Array.map (fun s -> 1000.0 *. s) b)));
      ]
      @ extra;
  }
