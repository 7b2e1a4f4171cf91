(* Tests for the simulation engine: whispering-model semantics, gossip
   and broadcast completion, and the structural invariants every run must
   satisfy (monotone knowledge, gossip >= broadcast >= diameter-ish). *)

open Gossip_topology
open Gossip_protocol
open Gossip_simulate
module Json = Gossip_util.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let get = function Some x -> x | None -> Alcotest.fail "expected completion"

(* [items_of st v] — the items [v] knows, ascending. *)
let items_of st v =
  List.filter (Chunked.knows st v) (List.init (Chunked.items st) Fun.id)

let test_initial_state () =
  let st = Chunked.create 4 in
  check_int "items known initially" 4 (Chunked.items_known st);
  check "each knows own item" true
    (List.for_all (fun v -> items_of st v = [ v ]) [ 0; 1; 2; 3 ]);
  check "knows nothing else" false (Chunked.knows st 0 1);
  check "not complete" false (Chunked.complete st)

let test_apply_round_directed () =
  let st = Chunked.create 3 in
  let apply = Chunked.arc_applier st in
  apply [ (0, 1) ];
  check "1 learned 0" true (Chunked.knows st 1 0);
  check "0 learned nothing" false (Chunked.knows st 0 1);
  apply [ (1, 2) ];
  check "2 learned both" true (Chunked.knows st 2 0 && Chunked.knows st 2 1)

let test_apply_round_exchange_snapshots () =
  (* full-duplex exchange must swap start-of-round knowledge, not leak
     within-round updates *)
  let st = Chunked.create 2 in
  Chunked.arc_applier st [ (0, 1); (1, 0) ];
  check "both complete after one exchange" true (Chunked.complete st);
  (* three vertices: chain of two exchanges in successive rounds *)
  let st = Chunked.create 3 in
  Chunked.arc_applier st [ (0, 1); (1, 0) ];
  check "2 still isolated" true (Chunked.known_by st 2 = 1)

let test_snapshot_needed_case () =
  (* a sender is also a receiver only via the opposite arc of a
     full-duplex exchange; check the exchange next to an observer arc *)
  let st = Chunked.create 4 in
  Chunked.arc_applier st [ (0, 1); (1, 0); (2, 3) ];
  check "0 has {0,1}" true (items_of st 0 = [ 0; 1 ]);
  check "1 has {0,1}" true (items_of st 1 = [ 0; 1 ]);
  check "3 has {2,3}" true (items_of st 3 = [ 2; 3 ])

let test_run_protocol () =
  let g = Families.path 3 in
  let p =
    Protocol.make g Protocol.Half_duplex
      [ [ (0, 1) ]; [ (1, 2) ]; [ (2, 1) ]; [ (1, 0) ] ]
  in
  let o = Engine.run_protocol p in
  check "completed" true (o.Engine.completed_at = Some 4);
  check "full coverage" true (o.Engine.coverage = 1.0)

let test_run_protocol_incomplete () =
  let g = Families.path 3 in
  let p = Protocol.make g Protocol.Half_duplex [ [ (0, 1) ] ] in
  let o = Engine.run_protocol p in
  check "incomplete" true (o.Engine.completed_at = None);
  check "partial coverage" true (o.Engine.coverage < 1.0 && o.Engine.coverage > 0.0)

let test_gossip_time_known_protocols () =
  (* full-duplex hypercube allgather completes in exactly dim rounds *)
  check_int "Q4 fd gossip = 4" 4
    (get (Engine.gossip_time (Builders.hypercube_sweep ~dim:4 ~full_duplex:true)));
  check_int "Q4 hd gossip = 8" 8
    (get (Engine.gossip_time (Builders.hypercube_sweep ~dim:4 ~full_duplex:false)));
  (* even cycle rotate completes in ~n rounds *)
  let t = get (Engine.gossip_time (Builders.cycle_rotate 12)) in
  check "cycle rotate close to n" true (t >= 6 && t <= 14)

let test_items_known_incremental () =
  (* the incremental counter must equal a recomputed full rescan after
     every kind of round: directed arcs, exchanges, repeats *)
  let recount st n =
    let acc = ref 0 in
    for v = 0 to n - 1 do
      acc := !acc + List.length (items_of st v)
    done;
    !acc
  in
  let sys = Builders.edge_coloring_full_duplex (Families.kautz 2 3) in
  let n = Digraph.n_vertices (Systolic.graph sys) in
  let st = Chunked.create n in
  let apply = Chunked.arc_applier st in
  for i = 0 to 29 do
    apply (Systolic.period_round sys i);
    check_int
      (Printf.sprintf "incremental = rescan after round %d" i)
      (recount st n) (Chunked.items_known st)
  done;
  check "complete iff count says so" true
    (Chunked.complete st = (Chunked.items_known st = n * n))

let test_gossip_cap () =
  (* a protocol that never completes: only one edge of the path ever used *)
  let g = Families.path 4 in
  let sys = Systolic.make g Protocol.Half_duplex [ [ (0, 1) ] ] in
  check "cap returns None" true (Engine.gossip_time ~cap:50 sys = None)

let test_broadcast_vs_gossip () =
  List.iter
    (fun sys ->
      let gt = Engine.gossip_time sys in
      let bt = Engine.broadcast_time sys ~src:0 in
      match (gt, bt) with
      | Some g, Some b ->
          check "broadcast <= gossip" true (b <= g);
          let diam =
            Metrics.diameter (Systolic.graph sys)
          in
          check "gossip >= diameter" true (g >= diam)
      | _ -> Alcotest.fail "expected completion")
    [
      Builders.path_wave 8;
      Builders.cycle_rotate 8;
      Builders.hypercube_sweep ~dim:3 ~full_duplex:false;
      Builders.edge_coloring_half_duplex (Families.de_bruijn 2 4);
      Builders.edge_coloring_full_duplex (Families.kautz 2 3);
      Builders.edge_coloring_half_duplex (Families.complete_dary_tree 2 3);
    ]

let test_broadcast_src_out_of_range () =
  let sys = Builders.cycle_rotate 8 in
  List.iter
    (fun src ->
      Alcotest.check_raises
        (Printf.sprintf "src %d" src)
        (Invalid_argument "Engine.broadcast_time: src out of range")
        (fun () -> ignore (Engine.broadcast_time sys ~src)))
    [ -1; 8; 100 ]

let test_gossip_run_coverage_monotone () =
  let sys = Builders.edge_coloring_half_duplex (Families.grid 3 3) in
  let run = Engine.gossip_run sys in
  let cov = run.Engine.curve in
  let ok = ref true in
  for i = 1 to Array.length cov - 1 do
    if cov.(i) < cov.(i - 1) -. 1e-12 then ok := false
  done;
  check "coverage monotone" true !ok;
  check "one point per round" true
    (run.Engine.time = Some (Array.length cov));
  check "starts above 1/n" true (cov.(0) >= 1.0 /. 9.0);
  check "ends complete" true (cov.(Array.length cov - 1) = 1.0)

(* --- Faults --- *)

let test_faults_p0_matches_baseline () =
  let sys = Builders.cycle_rotate 12 in
  let base = Option.get (Engine.gossip_time sys) in
  let o = Faults.gossip_time_with_faults sys ~drop_probability:0.0 ~seed:3 in
  check "p=0 matches fault-free" true (o.Faults.completed_at = Some base);
  check "no drops at p=0" true (o.Faults.drops = 0)

let test_faults_p1_never_completes () =
  let sys = Builders.cycle_rotate 8 in
  let o = Faults.gossip_time_with_faults ~cap:100 sys ~drop_probability:1.0 ~seed:3 in
  check "p=1 never completes" true (o.Faults.completed_at = None);
  check "everything dropped" true (o.Faults.drops = o.Faults.activations)

let test_faults_deterministic () =
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  let a = Faults.gossip_time_with_faults sys ~drop_probability:0.3 ~seed:11 in
  let b = Faults.gossip_time_with_faults sys ~drop_probability:0.3 ~seed:11 in
  check "same seed same outcome" true (a = b);
  let c = Faults.gossip_time_with_faults sys ~drop_probability:0.3 ~seed:12 in
  check "different seed may differ in drops" true
    (c.Faults.activations > 0)

let test_faults_slowdown () =
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  let base = Option.get (Engine.gossip_time sys) in
  let o = Faults.gossip_time_with_faults sys ~drop_probability:0.2 ~seed:5 in
  (match o.Faults.completed_at with
  | Some t -> check "faulty time >= fault-free" true (t >= base)
  | None -> ());
  let curve = Faults.slowdown_curve sys ~probabilities:[ 0.0; 0.2 ] ~seed:5 in
  let point p =
    List.find (fun pt -> pt.Faults.probability = p) curve
  in
  let p0 = point 0.0 and p2 = point 0.2 in
  check "fault-free trials all complete" true
    (p0.Faults.completed = p0.Faults.trials);
  check "completed never exceeds trials" true
    (List.for_all (fun pt -> pt.Faults.completed <= pt.Faults.trials) curve);
  (match (p0.Faults.mean, p2.Faults.mean) with
  | Some t0, Some t2 -> check "curve increases" true (t2 >= t0)
  | _ -> Alcotest.fail "curve incomplete");
  check "mean iff completed > 0" true
    (List.for_all
       (fun pt -> (pt.Faults.mean <> None) = (pt.Faults.completed > 0))
       curve)

let test_faults_validation () =
  let sys = Builders.cycle_rotate 8 in
  Alcotest.check_raises "bad probability"
    (Invalid_argument "Faults: drop_probability must be in [0, 1]") (fun () ->
      ignore (Faults.gossip_time_with_faults sys ~drop_probability:1.5 ~seed:0));
  Alcotest.check_raises "negative k"
    (Invalid_argument "Faults: k must be >= 0") (fun () ->
      ignore (Faults.run sys ~model:(Faults.Permanent { k = -1 }) ~seed:0));
  Alcotest.check_raises "bad p_recover"
    (Invalid_argument "Faults: p_recover must be in [0, 1]") (fun () ->
      ignore
        (Faults.run sys
           ~model:(Faults.Bursty { p_fail = 0.1; p_recover = 2.0 })
           ~seed:0))

(* --- fault models beyond i.i.d. --- *)

let test_faults_iid_model_matches_legacy () =
  (* [run ~model:Iid] must reproduce [gossip_time_with_faults] draw for
     draw: same seed, same outcome, byte for byte *)
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  List.iter
    (fun p ->
      let legacy =
        Faults.gossip_time_with_faults sys ~drop_probability:p ~seed:11
      in
      let modern = Faults.run sys ~model:(Faults.Iid { p }) ~seed:11 in
      check "iid model = legacy path" true (legacy = modern))
    [ 0.0; 0.1; 0.3; 0.6 ]

let test_faults_permanent_k0_matches_baseline () =
  let sys = Builders.cycle_rotate 12 in
  let base = Option.get (Engine.gossip_time sys) in
  let o = Faults.run sys ~model:(Faults.Permanent { k = 0 }) ~seed:3 in
  check "k=0 is fault-free" true (o.Faults.completed_at = Some base);
  check "k=0 drops nothing" true (o.Faults.drops = 0);
  check "k=0 fails no arcs" true (o.Faults.failed_arcs = [])

let test_faults_permanent_all_arcs_stalls () =
  (* cycle_rotate 8 has 4 matchings of 4 arcs each, all distinct: m = 16.
     k = m removes every arc of the period — nothing is ever delivered —
     and k > m is a spec error, not an empty run. *)
  let sys = Builders.cycle_rotate 8 in
  let o = Faults.run ~cap:100 sys ~model:(Faults.Permanent { k = 16 }) ~seed:3 in
  check "no arcs, no completion" true (o.Faults.completed_at = None);
  check "every activation dropped" true (o.Faults.drops = o.Faults.activations);
  check_int "all 16 arcs reported failed" 16 (List.length o.Faults.failed_arcs);
  check "failed arcs sorted" true
    (o.Faults.failed_arcs = List.sort compare o.Faults.failed_arcs);
  Alcotest.check_raises "k beyond the arc universe"
    (Invalid_argument
       "Faults: k = 17 exceeds the period's 16 distinct arcs (k <= m)")
    (fun () ->
      ignore (Faults.run ~cap:100 sys ~model:(Faults.Permanent { k = 17 }) ~seed:3))

let test_faults_permanent_monotone_and_deterministic () =
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  let run k = Faults.run ~cap:4096 sys ~model:(Faults.Permanent { k }) ~seed:7 in
  check "same seed, same broken arcs" true (run 2 = run 2);
  let o0 = run 0 and o2 = run 2 in
  (* a run with permanently broken arcs can only be slower when both
     complete (they share the seed, so the k=2 run is the k=0 run with
     strictly fewer deliveries) *)
  (match (o0.Faults.completed_at, o2.Faults.completed_at) with
  | Some t0, Some t2 -> check "broken arcs never speed it up" true (t2 >= t0)
  | Some _, None -> ()
  | None, _ -> Alcotest.fail "fault-free run must complete");
  check "k=2 drops activations" true (o2.Faults.drops > 0);
  check_int "k=2 reports its chosen arcs" 2 (List.length o2.Faults.failed_arcs);
  check "chosen arcs are period arcs" true
    (let period_arcs =
       List.concat
         (List.init (Systolic.period sys) (Systolic.period_round sys))
     in
     List.for_all (fun a -> List.mem a period_arcs) o2.Faults.failed_arcs)

let test_faults_bursty_p0_matches_baseline () =
  let sys = Builders.cycle_rotate 12 in
  let base = Option.get (Engine.gossip_time sys) in
  let o =
    Faults.run sys
      ~model:(Faults.Bursty { p_fail = 0.0; p_recover = 0.5 })
      ~seed:3
  in
  check "never-failing chain is fault-free" true
    (o.Faults.completed_at = Some base);
  check "no drops" true (o.Faults.drops = 0)

let test_faults_bursty_deterministic_and_bursty () =
  let sys = Builders.hypercube_sweep ~dim:4 ~full_duplex:false in
  let model = Faults.Bursty { p_fail = 0.15; p_recover = 0.3 } in
  let a = Faults.run ~cap:8192 sys ~model ~seed:11 in
  let b = Faults.run ~cap:8192 sys ~model ~seed:11 in
  check "same seed, same bursts" true (a = b);
  check "bursts drop something" true (a.Faults.drops > 0);
  (* at equal marginal loss, correlated losses hurt at least as much as
     scattered ones on this sweep (the burst takes out the same frontier
     arc for consecutive periods) — checked via the curve means *)
  let pts =
    Faults.curve ~cap:8192 ~trials:5 sys
      ~models:
        [
          Faults.Iid { p = 0.3 };
          Faults.Bursty { p_fail = 0.15; p_recover = 0.35 };
        ]
      ~seed:11
  in
  check "curve covers both models" true (List.length pts = 2)

let test_faults_curve_points_json () =
  let sys = Builders.cycle_rotate 8 in
  let models =
    [
      Faults.Iid { p = 0.1 };
      Faults.Permanent { k = 1 };
      Faults.Bursty { p_fail = 0.1; p_recover = 0.5 };
    ]
  in
  let pts = Faults.curve ~trials:3 sys ~models ~seed:5 in
  let names =
    List.map
      (fun pt ->
        match Json.member "model" (Faults.curve_point_to_json pt) with
        | Some (Json.Str s) -> s
        | _ -> "?")
      pts
  in
  check "model names on the wire" true
    (names = [ "iid"; "permanent"; "bursty" ]);
  List.iter2
    (fun pt model ->
      let j = Faults.curve_point_to_json pt in
      check "trials serialized" true (Json.member "trials" j = Some (Json.Int 3));
      match model with
      | Faults.Iid { p } ->
          check "iid carries probability" true
            (Json.member "probability" j = Some (Json.Float p))
      | Faults.Permanent { k } ->
          check "permanent carries k" true (Json.member "k" j = Some (Json.Int k))
      | Faults.Bursty { p_fail; p_recover } ->
          check "bursty carries both rates" true
            (Json.member "p_fail" j = Some (Json.Float p_fail)
            && Json.member "p_recover" j = Some (Json.Float p_recover)))
    pts models

(* --- differential: a naive reference simulator --- *)

(* The reference keeps a [bool array array] and copies the whole state at
   the start of every round, so each arc reads start-of-round knowledge
   by construction.  It tracks the first [items] items (default [n]),
   runs [round_of 0], [round_of 1], ... until gossip completes or [cap]
   rounds, and returns the coverage after each round, the gossip time,
   per source the broadcast time, and the final knowledge. *)
let naive_run ?items n ~cap round_of =
  let items = Option.value items ~default:n in
  let know = Array.init n (fun v -> Array.init items (fun i -> i = v)) in
  let bcast = Array.make items None in
  let everyone_knows i = Array.for_all (fun row -> row.(i)) know in
  let count () =
    Array.fold_left
      (fun acc row ->
        Array.fold_left (fun acc k -> if k then acc + 1 else acc) acc row)
      0 know
  in
  let coverage = ref [] and gossip = ref None and r = ref 0 in
  while !gossip = None && !r < cap do
    let old = Array.map Array.copy know in
    List.iter
      (fun (x, y) ->
        Array.iteri (fun i k -> if k then know.(y).(i) <- true) old.(x))
      (round_of !r);
    incr r;
    let c = count () in
    coverage := (float_of_int c /. float_of_int (n * items)) :: !coverage;
    for i = 0 to items - 1 do
      if bcast.(i) = None && everyone_knows i then bcast.(i) <- Some !r
    done;
    if c = n * items then gossip := Some !r
  done;
  (Array.of_list (List.rev !coverage), !gossip, bcast, know)

(* Every generator of [Families] and [Extra_families] at a small size:
   symmetric ones under both edge colourings, directed ones under a
   seeded random directed protocol; plus the cycle rotations. *)
let differential_protocols () =
  let undirected =
    [
      Families.path 5;
      Families.cycle 6;
      Families.cycle 7;
      Families.complete 5;
      Families.star 6;
      Families.complete_bipartite 2 3;
      Families.hypercube 3;
      Families.grid 3 3;
      Families.torus 3 4;
      Families.complete_dary_tree 2 2;
      Families.butterfly 2 2;
      Families.wrapped_butterfly 2 3;
      Families.de_bruijn 2 3;
      Families.kautz 2 3;
      Extra_families.cube_connected_cycles 3;
      Extra_families.shuffle_exchange 3;
      Extra_families.knoedel ~delta:2 ~n:8;
    ]
  in
  let directed =
    [
      Families.directed_cycle 5;
      Families.wrapped_butterfly_directed 2 2;
      Families.de_bruijn_directed 2 3;
      Families.kautz_directed 2 2;
      Extra_families.shuffle_exchange_directed 3;
    ]
  in
  List.concat_map
    (fun g ->
      [ Builders.edge_coloring_half_duplex g; Builders.edge_coloring_full_duplex g ])
    undirected
  @ List.map
      (fun g ->
        Builders.random_systolic g Protocol.Directed ~period:4 ~seed:3
          ~density:1.0)
      directed
  @ [ Builders.cycle_rotate 8; Builders.cycle_rotate 12 ]

let test_differential_naive () =
  List.iter
    (fun sys ->
      let g = Systolic.graph sys in
      let n = Digraph.n_vertices g in
      let cap = (8 * Systolic.period sys * n) + 64 in
      let name = Printf.sprintf "%s %s" (Digraph.name g)
          (Protocol.mode_to_string (Systolic.mode sys)) in
      let coverage, gossip, bcast, _ =
        naive_run n ~cap (Systolic.period_round sys)
      in
      let run = Engine.gossip_run sys in
      check (name ^ ": gossip time") true (run.Engine.time = gossip);
      check (name ^ ": gossip_time = gossip_run") true
        (Engine.gossip_time sys = gossip);
      check (name ^ ": per-round coverage") true (run.Engine.curve = coverage);
      for src = 0 to n - 1 do
        check
          (Printf.sprintf "%s: broadcast from %d" name src)
          true
          (Engine.broadcast_time sys ~src = bcast.(src))
      done;
      (* the same rounds as a finite protocol *)
      let len = min cap (Option.value gossip ~default:cap) in
      let p = Systolic.expand sys ~length:len in
      let o = Engine.run_protocol p in
      check (name ^ ": run_protocol completion") true
        (o.Engine.completed_at = gossip);
      check (name ^ ": run_protocol rounds") true (o.Engine.rounds_run = len);
      check (name ^ ": run_protocol coverage") true
        (o.Engine.coverage = coverage.(Array.length coverage - 1)))
    (differential_protocols ())

(* The same reference against [Chunked.run] on implicit schedules, whose
   rounds reach the kernel as compiled tables: mutual-proposal matchings
   on DB(2,6) and Kautz(2,4), half- and full-duplex, at items = n and
   items = 64 (DB(2,7): 64 of 128 items over two state words), at 1, 2
   and 4 domains.  The reference reads rounds from [Schedule.sender]. *)
let test_differential_naive_implicit () =
  List.iter
    (fun (imp, items) ->
      List.iter
        (fun full_duplex ->
          let n = Implicit.n_vertices imp in
          let sched = Schedule.proposal imp ~period:64 ~seed:5 ~full_duplex in
          let cap = 1000 in
          let items = min n (Option.value items ~default:n) in
          let coverage, gossip, _, know =
            naive_run ~items n ~cap (Schedule.round_arcs sched)
          in
          check (Schedule.name sched ^ ": the reference run completes") true
            (gossip <> None);
          List.iter
            (fun domains ->
              let name =
                Printf.sprintf "%s fd=%b items=%d domains=%d"
                  (Schedule.name sched) full_duplex items domains
              in
              let st = Chunked.create ~items n in
              let o = Chunked.run ~domains ~cap ~checkpoint_every:1 st sched in
              check (name ^ ": gossip time") true (o.Chunked.time = gossip);
              check (name ^ ": per-round coverage") true
                (Array.of_list
                   (List.map (fun c -> c.Chunked.coverage) o.Chunked.checkpoints)
                = coverage);
              let same = ref true in
              for v = 0 to n - 1 do
                for i = 0 to items - 1 do
                  if Chunked.knows st v i <> know.(v).(i) then same := false
                done
              done;
              check (name ^ ": final knows bits") true !same)
            [ 1; 2; 4 ])
        [ false; true ])
    [
      (Implicit.de_bruijn 2 6, Some 64);
      (Implicit.de_bruijn 2 6, None);
      (Implicit.kautz 2 4, Some 64);
      (Implicit.kautz 2 4, None);
      (Implicit.de_bruijn 2 7, Some 64);
    ]

(* --- the kernel's popcount --- *)

let naive_popcount x =
  let c = ref 0 in
  for b = 0 to Sys.int_size - 1 do
    if x land (1 lsl b) <> 0 then incr c
  done;
  !c

let test_popcount_edges () =
  List.iter
    (fun x ->
      check_int (Printf.sprintf "popcount %#x" x) (naive_popcount x)
        (Chunked.popcount x))
    ([ 0; -1; max_int; min_int; 1 lsl 62; 0x5555555555555555; 0x2AAAAAAAAAAAAAAA ]
    @ List.init Sys.int_size (fun b -> 1 lsl b)
    @ List.init Sys.int_size (fun b -> lnot (1 lsl b)));
  check_int "all 63 bits" 63 (Chunked.popcount (-1))

let prop_popcount =
  (* three 21-bit draws cover all 63 bits uniformly *)
  let word =
    QCheck.map
      (fun (a, b, c) -> a lor (b lsl 21) lor (c lsl 42))
      QCheck.(triple (int_bound 0x1FFFFF) (int_bound 0x1FFFFF) (int_bound 0x1FFFFF))
  in
  QCheck.Test.make ~name:"popcount = per-bit count" ~count:2000 word (fun x ->
      Chunked.popcount x = naive_popcount x)

(* --- Faults: outcomes pinned at fixed seeds --- *)

let golden_protocols =
  [
    ("Q4 hd", Builders.hypercube_sweep ~dim:4 ~full_duplex:false);
    ("C12 rotate", Builders.cycle_rotate 12);
    ("K(2,3) fd", Builders.edge_coloring_full_duplex (Families.kautz 2 3));
  ]

let golden_models =
  [
    ("iid", Faults.Iid { p = 0.3 });
    ("perm", Faults.Permanent { k = 2 });
    ("bursty", Faults.Bursty { p_fail = 0.15; p_recover = 0.3 });
  ]

(* (protocol, model, seed, completed_at, drops, activations, failed_arcs) *)
let golden_runs =
  [
    ("Q4 hd", "iid", 11, Some 25, 46, 200, []);
    ("Q4 hd", "iid", 42, Some 18, 48, 144, []);
    ("Q4 hd", "perm", 11, Some 12, 2, 96, [ (0, 4); (1, 5) ]);
    ("Q4 hd", "perm", 42, Some 12, 4, 96, [ (3, 2); (4, 5) ]);
    ("Q4 hd", "bursty", 11, Some 15, 18, 120, []);
    ("Q4 hd", "bursty", 42, Some 15, 20, 120, []);
    ("C12 rotate", "iid", 11, Some 23, 28, 138, []);
    ("C12 rotate", "iid", 42, Some 26, 49, 156, []);
    ("C12 rotate", "perm", 11, None, 416, 4992, [ (3, 4); (6, 5) ]);
    ("C12 rotate", "perm", 42, Some 24, 12, 144, [ (2, 3); (3, 4) ]);
    ("C12 rotate", "bursty", 11, Some 33, 56, 198, []);
    ("C12 rotate", "bursty", 42, Some 46, 84, 276, []);
    ("K(2,3) fd", "iid", 11, Some 11, 20, 94, []);
    ("K(2,3) fd", "iid", 42, Some 17, 49, 148, []);
    ("K(2,3) fd", "perm", 11, Some 8, 3, 76, [ (10, 3); (11, 6) ]);
    ("K(2,3) fd", "perm", 42, Some 7, 3, 64, [ (0, 8); (7, 10) ]);
    ("K(2,3) fd", "bursty", 11, Some 11, 16, 94, []);
    ("K(2,3) fd", "bursty", 42, Some 13, 21, 118, []);
  ]

let test_faults_golden_runs () =
  List.iter
    (fun (pn, mn, seed, completed_at, drops, activations, failed_arcs) ->
      let o =
        Faults.run (List.assoc pn golden_protocols)
          ~model:(List.assoc mn golden_models) ~seed
      in
      check
        (Printf.sprintf "%s %s seed %d" pn mn seed)
        true
        (o = { Faults.completed_at; drops; activations; failed_arcs }))
    golden_runs

(* (protocol, probability, mean, completed, trials) at seed 99 *)
let golden_slowdown =
  [
    ("Q4 hd", 0.0, Some 8.0, 5, 5);
    ("Q4 hd", 0.1, Some 12.8, 5, 5);
    ("Q4 hd", 0.3, Some 17.2, 5, 5);
    ("Q4 hd", 0.5, Some 34.8, 5, 5);
    ("C12 rotate", 0.0, Some 12.0, 5, 5);
    ("C12 rotate", 0.1, Some 17.2, 5, 5);
    ("C12 rotate", 0.3, Some 25.6, 5, 5);
    ("C12 rotate", 0.5, Some 40.6, 5, 5);
    ("K(2,3) fd", 0.0, Some 7.0, 5, 5);
    ("K(2,3) fd", 0.1, Some 9.8, 5, 5);
    ("K(2,3) fd", 0.3, Some 11.6, 5, 5);
    ("K(2,3) fd", 0.5, Some 21.2, 5, 5);
  ]

let test_faults_golden_slowdown () =
  let point (probability, mean, completed, trials) =
    { Faults.probability; mean; completed; trials }
  in
  List.iter
    (fun (pn, sys) ->
      let expect =
        List.filter_map
          (fun (q, prob, mean, c, t) ->
            if q = pn then Some (point (prob, mean, c, t)) else None)
          golden_slowdown
      in
      check (pn ^ " slowdown curve") true
        (Faults.slowdown_curve sys ~probabilities:[ 0.0; 0.1; 0.3; 0.5 ]
           ~seed:99
        = expect))
    golden_protocols;
  check "capped slowdown curve" true
    (Faults.slowdown_curve ~cap:40 ~trials:3 (Builders.cycle_rotate 12)
       ~probabilities:[ 0.2; 0.6 ] ~seed:5
    = [ point (0.2, Some (55.0 /. 3.0), 3, 3); point (0.6, None, 0, 3) ])

(* Knowledge sets only ever grow, and every known item is explained by a
   dipath in time (we check growth + final size bound). *)
let prop_knowledge_monotone =
  QCheck.Test.make ~name:"knowledge sets grow monotonically" ~count:50
    QCheck.(pair (int_range 0 10_000) (int_range 1 6))
    (fun (seed, period) ->
      let g = Families.de_bruijn 2 3 in
      let sys =
        Builders.random_systolic g Protocol.Half_duplex ~period ~seed
          ~density:0.8
      in
      let n = Digraph.n_vertices g in
      let st = Chunked.create n in
      let apply = Chunked.arc_applier st in
      let ok = ref true in
      for i = 0 to (4 * period) - 1 do
        let before = Array.init n (items_of st) in
        apply (Systolic.period_round sys i);
        for v = 0 to n - 1 do
          if not (List.for_all (Chunked.knows st v) before.(v)) then
            ok := false
        done
      done;
      !ok)

(* Gossip time is at least the eccentricity-based bound for every protocol
   that completes: an item from the farthest vertex needs >= diameter
   rounds. *)
let prop_gossip_at_least_diameter =
  QCheck.Test.make ~name:"gossip time >= diameter when complete" ~count:40
    QCheck.(pair (int_range 0 10_000) (int_range 2 8))
    (fun (seed, period) ->
      let g = Families.kautz 2 3 in
      let sys =
        Builders.random_systolic g Protocol.Half_duplex ~period ~seed
          ~density:1.0
      in
      match Engine.gossip_time ~cap:500 sys with
      | None -> true
      | Some t -> t >= Metrics.diameter g)

(* One extra item per round per processor at most: gossip on n vertices
   takes at least n-1 activations into any fixed vertex... globally,
   items_known grows by at most one per arc activation. *)
let prop_items_bounded_by_activations =
  QCheck.Test.make ~name:"items learned <= total activation budget" ~count:40
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let g = Families.de_bruijn 2 3 in
      let n = Digraph.n_vertices g in
      let sys =
        Builders.random_systolic g Protocol.Half_duplex ~period:4 ~seed
          ~density:1.0
      in
      let st = Chunked.create n in
      let apply = Chunked.arc_applier st in
      let budget = ref 0 in
      let ok = ref true in
      for i = 0 to 19 do
        let round = Systolic.period_round sys i in
        (* each arc (x,y) can add at most |know(x)| <= n items *)
        budget := !budget + (List.length round * n);
        apply round;
        if Chunked.items_known st > n + !budget then ok := false
      done;
      !ok)

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("initial state", `Quick, test_initial_state);
    ("apply round directed", `Quick, test_apply_round_directed);
    ("exchange snapshots", `Quick, test_apply_round_exchange_snapshots);
    ("snapshot with observer", `Quick, test_snapshot_needed_case);
    ("run protocol", `Quick, test_run_protocol);
    ("run protocol incomplete", `Quick, test_run_protocol_incomplete);
    ("gossip time known protocols", `Quick, test_gossip_time_known_protocols);
    ("items_known incremental", `Quick, test_items_known_incremental);
    ("gossip cap", `Quick, test_gossip_cap);
    ("broadcast vs gossip vs diameter", `Quick, test_broadcast_vs_gossip);
    ("broadcast src out of range", `Quick, test_broadcast_src_out_of_range);
    ("coverage monotone", `Quick, test_gossip_run_coverage_monotone);
    ("faults p=0 baseline", `Quick, test_faults_p0_matches_baseline);
    ("faults p=1 stalls", `Quick, test_faults_p1_never_completes);
    ("faults deterministic", `Quick, test_faults_deterministic);
    ("faults slowdown", `Quick, test_faults_slowdown);
    ("faults validation", `Quick, test_faults_validation);
    ("faults iid model = legacy", `Quick, test_faults_iid_model_matches_legacy);
    ("faults permanent k=0 baseline", `Quick, test_faults_permanent_k0_matches_baseline);
    ("faults permanent all arcs stalls", `Quick, test_faults_permanent_all_arcs_stalls);
    ("faults permanent monotone", `Quick, test_faults_permanent_monotone_and_deterministic);
    ("faults bursty p_fail=0 baseline", `Quick, test_faults_bursty_p0_matches_baseline);
    ("faults bursty deterministic", `Quick, test_faults_bursty_deterministic_and_bursty);
    ("faults curve json", `Quick, test_faults_curve_points_json);
    ("differential vs naive reference", `Quick, test_differential_naive);
    ("differential vs naive reference (implicit)", `Quick,
     test_differential_naive_implicit);
    ("popcount edge words", `Quick, test_popcount_edges);
    ("faults golden runs", `Quick, test_faults_golden_runs);
    ("faults golden slowdown curves", `Quick, test_faults_golden_slowdown);
    q prop_knowledge_monotone;
    q prop_gossip_at_least_diameter;
    q prop_items_bounded_by_activations;
    q prop_popcount;
  ]
