(* Tests for the implicit simulation stack: slot-function topologies
   pinned against the materialized families, Schedule generators
   validated through Protocol.make, and the chunked blockwise engine
   proved bit-for-bit equivalent to the legacy Engine on small
   instances. *)

open Gossip_topology
open Gossip_protocol
open Gossip_simulate

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let get = function Some x -> x | None -> Alcotest.fail "expected completion"

(* --- implicit topologies vs materialized families --- *)

let agreement_cases =
  [
    ("cycle 5", Implicit.cycle 5, Families.cycle 5);
    ("cycle 8", Implicit.cycle 8, Families.cycle 8);
    ("hypercube 1", Implicit.hypercube 1, Families.hypercube 1);
    ("hypercube 4", Implicit.hypercube 4, Families.hypercube 4);
    ("torus 3x3", Implicit.torus 3 3, Families.torus 3 3);
    ("torus 3x4", Implicit.torus 3 4, Families.torus 3 4);
    ("torus 5x5", Implicit.torus 5 5, Families.torus 5 5);
    ("ccc 3", Implicit.ccc 3, Extra_families.cube_connected_cycles 3);
    ("ccc 4", Implicit.ccc 4, Extra_families.cube_connected_cycles 4);
    ("db(2,1)", Implicit.de_bruijn 2 1, Families.de_bruijn 2 1);
    ("db(2,3)", Implicit.de_bruijn 2 3, Families.de_bruijn 2 3);
    ("db(3,2)", Implicit.de_bruijn 3 2, Families.de_bruijn 3 2);
    ("db(2,5)", Implicit.de_bruijn 2 5, Families.de_bruijn 2 5);
    ("kautz(2,1)", Implicit.kautz 2 1, Families.kautz 2 1);
    ("kautz(2,3)", Implicit.kautz 2 3, Families.kautz 2 3);
    ("kautz(3,2)", Implicit.kautz 3 2, Families.kautz 3 2);
    ("kautz(2,4)", Implicit.kautz 2 4, Families.kautz 2 4);
  ]

let test_generators_agree () =
  List.iter
    (fun (name, imp, g) ->
      check (name ^ " agrees with materialized family") true
        (Implicit.agrees_with imp g))
    agreement_cases

let test_of_digraph_roundtrip () =
  List.iter
    (fun (name, _, g) ->
      check
        (name ^ " of_digraph round-trips")
        true
        (Implicit.agrees_with (Implicit.of_digraph g) g))
    agreement_cases

let test_fill_neighbors_dedup () =
  (* DB(2,1) has two vertices and only self-loop and duplicate slots *)
  let imp = Implicit.de_bruijn 2 1 in
  let buf = Array.make (Implicit.slots imp) (-1) in
  let c = Implicit.fill_neighbors imp 0 buf in
  check_int "DB(2,1) vertex 0 has one neighbor" 1 c;
  check_int "that neighbor is 1" 1 buf.(0);
  check "degree matches digraph" true
    (List.for_all
       (fun (_, imp, g) ->
         List.for_all
           (fun v ->
             Implicit.degree imp v = Array.length (Digraph.out_neighbors g v))
           (List.init (Implicit.n_vertices imp) Fun.id))
       agreement_cases)

let test_of_family_resolution () =
  (match Implicit.of_family ~family:"hypercube" ~n:100 ~degree:2 with
  | Ok imp -> check_int "hypercube >= 100 resolves to 128" 128
      (Implicit.n_vertices imp)
  | Error e -> Alcotest.fail e);
  (match Implicit.of_family ~family:"db" ~n:1000 ~degree:2 with
  | Ok imp -> check_int "db >= 1000 resolves to 1024" 1024
      (Implicit.n_vertices imp)
  | Error e -> Alcotest.fail e);
  (match Implicit.of_family ~family:"cycle" ~n:77 ~degree:2 with
  | Ok imp -> check_int "cycle is exact" 77 (Implicit.n_vertices imp)
  | Error e -> Alcotest.fail e);
  check "unknown family rejected" true
    (Result.is_error (Implicit.of_family ~family:"moebius" ~n:10 ~degree:2));
  check "tiny n rejected" true
    (Result.is_error (Implicit.of_family ~family:"cycle" ~n:2 ~degree:2))

(* --- schedules: validity through Protocol.make, on both duplex modes --- *)

let structured_cases full_duplex =
  [
    ( "hypercube sweep",
      Implicit.hypercube 4,
      Schedule.hypercube_sweep ~dim:4 ~full_duplex );
    ( "cycle even",
      Implicit.cycle 8,
      Schedule.cycle_alternating ~n:8 ~full_duplex );
    ( "cycle odd",
      Implicit.cycle 7,
      Schedule.cycle_alternating ~n:7 ~full_duplex );
    ( "torus even/odd",
      Implicit.torus 3 4,
      Schedule.torus_colored ~rows:3 ~cols:4 ~full_duplex );
    ("ccc", Implicit.ccc 3, Schedule.ccc_colored ~dim:3 ~full_duplex);
  ]

let proposal_cases full_duplex =
  List.map
    (fun (name, imp) ->
      (name, imp, Schedule.proposal imp ~period:16 ~seed:7 ~full_duplex))
    [
      ("db proposal", Implicit.de_bruijn 2 5);
      ("kautz proposal", Implicit.kautz 2 4);
    ]

let all_cases full_duplex = structured_cases full_duplex @ proposal_cases full_duplex

let test_schedules_are_valid_protocols () =
  List.iter
    (fun full_duplex ->
      List.iter
        (fun (name, imp, sched) ->
          let g = Implicit.materialize imp in
          (* Protocol.make re-validates every arc and every matching *)
          let sys = Schedule.to_systolic sched g in
          check_int
            (name ^ " period survives materialization")
            (Schedule.period sched) (Systolic.period sys))
        (all_cases full_duplex))
    [ true; false ]

let test_of_systolic_is_inverse () =
  let g = Families.hypercube 3 in
  let sys = Builders.edge_coloring_half_duplex g in
  let sched = Schedule.of_systolic sys in
  check_int "period preserved" (Systolic.period sys) (Schedule.period sched);
  for i = 0 to Systolic.period sys - 1 do
    let expected = List.sort compare (Systolic.period_round sys i) in
    check ("round " ^ string_of_int i ^ " reproduced") true
      (Schedule.round_arcs sched i = expected)
  done

(* --- chunked engine: bit-for-bit equivalence with the legacy Engine --- *)

let engine_run sys =
  let curve = ref [] in
  let probe ~round:_ ~coverage = curve := coverage :: !curve in
  let time = Engine.gossip_time ~probe sys in
  (time, List.rev !curve)

let chunked_run ?(domains = 1) ?items sched =
  let st = Chunked.create ?items (Schedule.n_vertices sched) in
  let outcome = Chunked.run ~domains ~checkpoint_every:1 st sched in
  (st, outcome)

let test_chunked_matches_engine () =
  List.iter
    (fun full_duplex ->
      List.iter
        (fun (name, imp, sched) ->
          let g = Implicit.materialize imp in
          let sys = Schedule.to_systolic sched g in
          let time, curve = engine_run sys in
          let _, outcome = chunked_run sched in
          check_int
            (Printf.sprintf "%s (fd=%b): same completion round" name
               full_duplex)
            (get time) (get outcome.Chunked.time);
          let chunked_curve =
            List.map (fun c -> c.Chunked.coverage) outcome.Chunked.checkpoints
          in
          check
            (Printf.sprintf "%s (fd=%b): identical coverage curve" name
               full_duplex)
            true (curve = chunked_curve))
        (all_cases full_duplex))
    [ true; false ]

let test_chunked_broadcast_matches_engine () =
  List.iter
    (fun (name, imp, sched) ->
      let g = Implicit.materialize imp in
      let sys = Schedule.to_systolic sched g in
      let bt = get (Engine.broadcast_time sys ~src:0) in
      let _, outcome = chunked_run ~items:1 sched in
      check_int (name ^ ": items=1 is broadcast of item 0") bt
        (get outcome.Chunked.time))
    (all_cases true)

let test_chunked_deterministic_across_domains () =
  List.iter
    (fun (name, _, sched) ->
      let st1, o1 = chunked_run ~domains:1 sched in
      let st4, o4 = chunked_run ~domains:4 sched in
      check_int (name ^ ": same rounds at 1 and 4 domains")
        (get o1.Chunked.time) (get o4.Chunked.time);
      check_int (name ^ ": same final count")
        (Chunked.items_known st1) (Chunked.items_known st4);
      (* project onto the deterministic fields: elapsed/rate/heap are
         wall-clock telemetry and legitimately differ between runs *)
      let curve o =
        List.map
          (fun c -> (c.Chunked.round, c.Chunked.coverage))
          o.Chunked.checkpoints
      in
      check (name ^ ": same curve") true (curve o1 = curve o4))
    (all_cases false)

let test_chunked_initial_state () =
  let st = Chunked.create ~items:3 8 in
  check_int "known = items" 3 (Chunked.items_known st);
  check "vertex 2 knows item 2" true (Chunked.knows st 2 2);
  check "vertex 2 only item 2" false (Chunked.knows st 2 1);
  check "vertex 5 knows nothing" false (Chunked.knows st 5 2);
  check "items clamped to n" true (Chunked.items (Chunked.create ~items:99 4) = 4);
  check "empty state complete" true (Chunked.complete (Chunked.create 0));
  (* > 63 items exercises the multi-word path *)
  let st = Chunked.create 100 in
  check_int "100 items over 2 words" 100 (Chunked.items_known st);
  check "v99 knows item 99" true (Chunked.knows st 99 99)

let test_chunked_multiword_equivalence () =
  (* n = 100 > 63 forces two state words per vertex *)
  let sched = Schedule.cycle_alternating ~n:100 ~full_duplex:true in
  let g = Families.cycle 100 in
  let sys = Schedule.to_systolic sched g in
  let time, _ = engine_run sys in
  let _, outcome = chunked_run sched in
  check_int "100-cycle same completion" (get time) (get outcome.Chunked.time)

let test_checkpoint_streaming_cadence () =
  let sched = Schedule.hypercube_sweep ~dim:4 ~full_duplex:true in
  let st = Chunked.create 16 in
  let outcome = Chunked.run ~domains:1 ~checkpoint_every:3 st sched in
  let t = get outcome.Chunked.time in
  let rounds = List.map (fun c -> c.Chunked.round) outcome.Chunked.checkpoints in
  check "checkpoints at multiples of 3 plus the final round" true
    (List.for_all (fun r -> r mod 3 = 0 || r = t) rounds);
  check "final round present" true (List.mem t rounds);
  let no_cp = Chunked.run ~domains:1 (Chunked.create 16) sched in
  ignore no_cp.Chunked.time;
  check "checkpointing off by default" true (no_cp.Chunked.checkpoints = [])

(* --- faults on implicit arc streams --- *)

let test_implicit_faults_p0_baseline () =
  let sched = Schedule.hypercube_sweep ~dim:4 ~full_duplex:false in
  let _, base = chunked_run sched in
  let _, o =
    Faults.implicit_gossip ~domains:1 sched ~drop_probability:0.0 ~seed:5
  in
  check_int "p=0 is the fault-free run" (get base.Chunked.time)
    (get o.Chunked.time)

let test_implicit_faults_p1_stalls () =
  let sched = Schedule.hypercube_sweep ~dim:3 ~full_duplex:false in
  let st, o =
    Faults.implicit_gossip ~domains:1 ~cap:50 sched ~drop_probability:1.0
      ~seed:5
  in
  check "p=1 never completes" true (o.Chunked.time = None);
  check_int "p=1 learns nothing" 8 (Chunked.items_known st)

let test_implicit_faults_deterministic () =
  let sched = Schedule.hypercube_sweep ~dim:4 ~full_duplex:true in
  let run () =
    let _, o =
      Faults.implicit_gossip ~domains:1 ~cap:500 sched ~drop_probability:0.3
        ~seed:42
    in
    (o.Chunked.time, o.Chunked.rounds_run)
  in
  check "same seed, same run" true (run () = run ());
  let _, slower =
    Faults.implicit_gossip ~domains:1 ~cap:500 sched ~drop_probability:0.3
      ~seed:42
  in
  let _, fault_free = chunked_run sched in
  check "drops never speed gossip up" true
    (match (slower.Chunked.time, fault_free.Chunked.time) with
    | Some s, Some f -> s >= f
    | None, Some _ -> true
    | _ -> false)

let test_with_drops_stacking_is_union () =
  (* two stacked predicates suppress exactly the union of their arc
     sets — wrapping twice must not shadow or resurrect anything *)
  let base = Schedule.cycle_alternating ~n:8 ~full_duplex:false in
  let drop1 ~round:_ ~u ~v = (u, v) = (0, 1) in
  let drop2 ~round:_ ~u ~v = (u, v) = (2, 3) in
  let stacked =
    Schedule.with_drops (Schedule.with_drops base ~drop:drop1) ~drop:drop2
  in
  let union ~round ~u ~v = drop1 ~round ~u ~v || drop2 ~round ~u ~v in
  let merged = Schedule.with_drops base ~drop:union in
  let dropped_something = ref false in
  for r = 0 to (2 * Schedule.period base) - 1 do
    let b = Schedule.round_arcs base r in
    let s = Schedule.round_arcs stacked r in
    check "stacked = single union predicate" true
      (s = Schedule.round_arcs merged r);
    check "stacked arcs are base arcs minus the union" true
      (s = List.filter (fun (u, v) -> not (union ~round:r ~u ~v)) b);
    if List.length s < List.length b then dropped_something := true
  done;
  check "the union actually suppressed arcs" true !dropped_something

let test_with_drops_absolute_rounds () =
  (* drops key on the ABSOLUTE round index: killing round period+1 must
     leave round 1 — the same residue one period earlier — untouched *)
  let base = Schedule.cycle_alternating ~n:8 ~full_duplex:false in
  let s = Schedule.period base in
  let lossy =
    Schedule.with_drops base ~drop:(fun ~round ~u:_ ~v:_ -> round = s + 1)
  in
  check "round 1 unaffected" true
    (Schedule.round_arcs lossy 1 = Schedule.round_arcs base 1);
  check "round period+1 emptied" true (Schedule.round_arcs lossy (s + 1) = []);
  check "round period+1 had arcs to lose" true
    (Schedule.round_arcs base (s + 1) <> []);
  check "round 2*period+1 unaffected" true
    (Schedule.round_arcs lossy ((2 * s) + 1)
    = Schedule.round_arcs base ((2 * s) + 1))

(* --- compiled round tables: every table is the sender function --- *)

(* [table_cases full_duplex] — one schedule per constructor, plus drops
   (single and stacked) and the Fault_tolerant wrappers, which compile
   through [make ~sender]. *)
let table_cases full_duplex =
  let mode_sys =
    if full_duplex then Builders.edge_coloring_full_duplex
    else Builders.edge_coloring_half_duplex
  in
  let proposal =
    Schedule.proposal (Implicit.de_bruijn 2 6) ~period:5 ~seed:3 ~full_duplex
  in
  let cycle = Schedule.cycle_alternating ~n:7 ~full_duplex in
  let drop_a ~round ~u ~v = (round + u + (3 * v)) mod 4 = 0 in
  let drop_b ~round ~u ~v = (round * u) mod 5 = v mod 5 in
  List.map (fun (name, _, s) -> (name, s)) (all_cases full_duplex)
  @ [
      ("of_systolic db(2,4)", Schedule.of_systolic (mode_sys (Families.de_bruijn 2 4)));
      ("of_systolic kautz(2,3)", Schedule.of_systolic (mode_sys (Families.kautz 2 3)));
      ("proposal db(2,6) period 5", proposal);
      ("with_drops proposal", Schedule.with_drops proposal ~drop:drop_a);
      ( "stacked with_drops proposal",
        Schedule.with_drops (Schedule.with_drops proposal ~drop:drop_a) ~drop:drop_b );
      ( "with_drops of_systolic",
        Schedule.with_drops
          (Schedule.of_systolic (mode_sys (Families.hypercube 3)))
          ~drop:drop_b );
      ( "concat proposal+Q(6)",
        Fault_tolerant.concat proposal (Schedule.hypercube_sweep ~dim:6 ~full_duplex) );
      ("replicate cycle k=2", fst (Fault_tolerant.replicate cycle ~k:2));
      ("augment cycle k=1", fst (Fault_tolerant.augment cycle ~k:1));
      ( "with_drops replicate",
        Schedule.with_drops (fst (Fault_tolerant.replicate proposal ~k:1)) ~drop:drop_a );
    ]

let sender_table sched r =
  Array.init (Schedule.n_vertices sched) (Schedule.sender sched r)

(* Equal to the sender function at every domain count, so also
   bit-identical across domain counts. *)
let test_tables_equal_sender () =
  List.iter
    (fun full_duplex ->
      List.iter
        (fun (name, sched) ->
          List.iter
            (fun domains ->
              let compile = Schedule.tables ~domains sched in
              for r = 0 to (3 * Schedule.period sched) - 1 do
                check
                  (Printf.sprintf "%s fd=%b domains=%d round %d: table = sender"
                     name full_duplex domains r)
                  true
                  (Array.sub (compile r) 0 (Schedule.n_vertices sched)
                  = sender_table sched r)
              done)
            [ 1; 2; 4 ])
        (table_cases full_duplex))
    [ false; true ]

let test_tables_pairing_cache () =
  (* half-duplex period 3 proposal: rounds 2k and 2k+1 share pairing k.
     Revisit rounds in an order that reuses, leaves and returns to a
     pairing, so a stale candidate or partner array shows up as a table
     that disagrees with the sender function. *)
  List.iter
    (fun full_duplex ->
      let sched =
        Schedule.proposal (Implicit.kautz 2 4) ~period:3 ~seed:11 ~full_duplex
      in
      List.iter
        (fun domains ->
          let compile = Schedule.tables ~domains sched in
          List.iter
            (fun r ->
              check
                (Printf.sprintf "fd=%b domains=%d round %d after reuse" full_duplex
                   domains r)
                true
                (Array.sub (compile r) 0 (Schedule.n_vertices sched)
                = sender_table sched r))
            [ 0; 0; 1; 1; 2; 4; 3; 0; 6; 7; 1; 5; 5; 2 ])
        [ 1; 2; 4 ])
    [ false; true ];
  let compile = Schedule.tables (Schedule.hypercube_sweep ~dim:3 ~full_duplex:false) in
  check "negative round rejected" true
    (match compile (-1) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    ("implicit generators agree", `Quick, test_generators_agree);
    ("of_digraph round-trips", `Quick, test_of_digraph_roundtrip);
    ("fill_neighbors dedups", `Quick, test_fill_neighbors_dedup);
    ("of_family resolution", `Quick, test_of_family_resolution);
    ("schedules are valid protocols", `Quick, test_schedules_are_valid_protocols);
    ("of_systolic inverse", `Quick, test_of_systolic_is_inverse);
    ("chunked = engine (gossip)", `Quick, test_chunked_matches_engine);
    ("chunked = engine (broadcast)", `Quick, test_chunked_broadcast_matches_engine);
    ("chunked deterministic across domains", `Quick,
     test_chunked_deterministic_across_domains);
    ("chunked initial state", `Quick, test_chunked_initial_state);
    ("chunked multi-word state", `Quick, test_chunked_multiword_equivalence);
    ("checkpoint cadence", `Quick, test_checkpoint_streaming_cadence);
    ("implicit faults p=0 baseline", `Quick, test_implicit_faults_p0_baseline);
    ("implicit faults p=1 stalls", `Quick, test_implicit_faults_p1_stalls);
    ("implicit faults deterministic", `Quick, test_implicit_faults_deterministic);
    ("with_drops stacking is union", `Quick, test_with_drops_stacking_is_union);
    ("with_drops keys absolute rounds", `Quick, test_with_drops_absolute_rounds);
    ("tables = sender for every constructor", `Quick, test_tables_equal_sender);
    ("tables pairing cache never stale", `Quick, test_tables_pairing_cache);
  ]
