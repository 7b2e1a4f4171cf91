module Systolic = Gossip_protocol.Systolic
module Schedule = Gossip_protocol.Schedule
module Prng = Gossip_util.Prng

type outcome = {
  completed_at : int option;
  drops : int;
  activations : int;
  failed_arcs : (int * int) list;
}

type model =
  | Iid of { p : float }
  | Permanent of { k : int }
  | Bursty of { p_fail : float; p_recover : float }

let model_name = function
  | Iid _ -> "iid"
  | Permanent _ -> "permanent"
  | Bursty _ -> "bursty"

let check_probability name v =
  if v < 0.0 || v > 1.0 then
    invalid_arg (Printf.sprintf "Faults: %s must be in [0, 1]" name)

let validate_model = function
  | Iid { p } -> check_probability "drop_probability" p
  | Permanent { k } -> if k < 0 then invalid_arg "Faults: k must be >= 0"
  | Bursty { p_fail; p_recover } ->
      check_probability "p_fail" p_fail;
      check_probability "p_recover" p_recover

(* Distinct arcs across one period, in first-appearance order (so the
   seeded shuffle below is reproducible across OCaml versions). *)
let period_arcs p =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  for i = 0 to Systolic.period p - 1 do
    List.iter
      (fun arc ->
        if not (Hashtbl.mem seen arc) then begin
          Hashtbl.add seen arc ();
          acc := arc :: !acc
        end)
      (Systolic.period_round p i)
  done;
  Array.of_list (List.rev !acc)

(* [decider model rng] — a per-activation drop predicate paired with the
   chosen permanently-failed arc set (empty for the transient models).
   Setup (the permanent-failure shuffle) draws from [rng] once, up front;
   the i.i.d. model draws from [rng] per activation — exactly the legacy
   draw order, so pre-model seeds reproduce byte-identical runs. *)
let decider p model rng =
  match model with
  | Iid { p = prob } -> ((fun _arc -> Prng.float rng 1.0 < prob), [])
  | Permanent { k } ->
      let arcs = period_arcs p in
      let m = Array.length arcs in
      if k > m then
        invalid_arg
          (Printf.sprintf
             "Faults: k = %d exceeds the period's %d distinct arcs (k <= m)" k
             m);
      Prng.shuffle rng arcs;
      let failed = Hashtbl.create (max 1 k) in
      Array.iteri (fun i arc -> if i < k then Hashtbl.add failed arc ()) arcs;
      let chosen = List.sort compare (Array.to_list (Array.sub arcs 0 k)) in
      ((fun arc -> Hashtbl.mem failed arc), chosen)
  | Bursty { p_fail; p_recover } ->
      (* Gilbert on/off chain per arc, each with its own derived stream:
         the state an arc is in depends only on (seed, arc, its own
         activation count), never on how arcs interleave. *)
      let states = Hashtbl.create 64 in
      let seed0 = Prng.int rng max_int in
      ( (fun arc ->
        let good, arng =
          match Hashtbl.find_opt states arc with
          | Some s -> s
          | None ->
              let s =
                (ref true, Prng.create (seed0 lxor (Hashtbl.hash arc * 0x9E3779B1)))
              in
              Hashtbl.add states arc s;
              s
        in
        (if !good then begin
           if Prng.float arng 1.0 < p_fail then good := false
         end
         else if Prng.float arng 1.0 < p_recover then good := true);
        not !good),
        [] )

(* the round budget of a faulted run: drops stretch dissemination, so
   it allows twice {!Engine.default_cap}'s rounds per period *)
let default_cap p =
  let n = Gossip_topology.Digraph.n_vertices (Systolic.graph p) in
  (16 * Systolic.period p * n) + 64

let run ?cap p ~model ~seed =
  validate_model model;
  let n = Gossip_topology.Digraph.n_vertices (Systolic.graph p) in
  let cap = match cap with Some c -> c | None -> default_cap p in
  let rng = Prng.create seed in
  let drop_arc, failed_arcs = decider p model rng in
  let st = Chunked.create n in
  let apply = Chunked.arc_applier st in
  let drops = ref 0 and activations = ref 0 in
  let completed = ref None in
  let i = ref 0 in
  while !completed = None && !i < cap do
    (* filter arc by arc, in round order: the seeded deciders draw per
       activation, so this order is part of every seed's outcome *)
    let surviving =
      List.filter
        (fun arc ->
          incr activations;
          if drop_arc arc then begin
            incr drops;
            false
          end
          else true)
        (Systolic.period_round p !i)
    in
    (* dropping arcs from a matching keeps it a matching *)
    apply surviving;
    incr i;
    if Chunked.complete st then completed := Some !i
  done;
  {
    completed_at = !completed;
    drops = !drops;
    activations = !activations;
    failed_arcs;
  }

(* --- faults on implicit arc streams ---------------------------------- *)

(* Stateless per-(round, arc) drop decision: an avalanche hash of
   (seed, round, u, v) against the probability threshold.  Unlike the
   PRNG deciders above it keeps no per-arc state, so it composes with
   schedules whose arc stream is never materialized and is safe to
   evaluate concurrently from worker domains; determinism is per
   activation, independent of evaluation order. *)
let iid_drop ~seed ~p =
  check_probability "drop_probability" p;
  fun ~round ~u ~v ->
    let h =
      seed
      + (round * 0x9E3779B97F4A7C)
      + (u * 0xBF58476D1CE4E5)
      + (v * 0x94D049BB133111)
    in
    let h = h lxor (h lsr 23) in
    let h = h * 0xFF51AFD7ED558C in
    let h = h lxor (h lsr 29) in
    let h = h * 0xC4CEB9FE1A85EC in
    let h = (h lxor (h lsr 26)) land max_int in
    float_of_int h /. float_of_int max_int < p

let implicit_gossip ?domains ?cap ?checkpoint_every ?items sched
    ~drop_probability ~seed =
  let sched =
    if drop_probability = 0.0 then sched
    else Schedule.with_drops sched ~drop:(iid_drop ~seed ~p:drop_probability)
  in
  let st = Chunked.create ?items (Schedule.n_vertices sched) in
  (st, Chunked.run ?domains ?cap ?checkpoint_every st sched)

let gossip_time_with_faults ?cap p ~drop_probability ~seed =
  run ?cap p ~model:(Iid { p = drop_probability }) ~seed

type slowdown_point = {
  probability : float;
  mean : float option;
  completed : int;
  trials : int;
}

let point_to_json pt =
  let module J = Gossip_util.Json in
  J.Obj
    [
      ("probability", J.Float pt.probability);
      ("mean", match pt.mean with Some m -> J.Float m | None -> J.Null);
      ("completed", J.Int pt.completed);
      ("trials", J.Int pt.trials);
    ]

type curve_point = {
  cp_model : model;
  cp_mean : float option;
  cp_completed : int;
  cp_trials : int;
  cp_cap : int;
}

let curve ?cap ?(trials = 5) p ~models ~seed =
  (* resolve the default cap here so every point records the round budget
     it actually ran under *)
  let cap = match cap with Some c -> c | None -> default_cap p in
  List.map
    (fun model ->
      let times = ref [] in
      for t = 1 to trials do
        match run ~cap p ~model ~seed:(seed + (t * 7919)) with
        | { completed_at = Some time; _ } -> times := time :: !times
        | { completed_at = None; _ } -> ()
      done;
      let completed = List.length !times in
      let mean =
        match !times with
        | [] -> None
        | ts ->
            Some
              (float_of_int (List.fold_left ( + ) 0 ts)
              /. float_of_int completed)
      in
      { cp_model = model; cp_mean = mean; cp_completed = completed;
        cp_trials = trials; cp_cap = cap })
    models

let slowdown_curve ?cap ?trials p ~probabilities ~seed =
  List.map2
    (fun probability pt ->
      { probability; mean = pt.cp_mean; completed = pt.cp_completed;
        trials = pt.cp_trials })
    probabilities
    (curve ?cap ?trials p
       ~models:(List.map (fun p -> Iid { p }) probabilities)
       ~seed)

let model_params_json model =
  let module J = Gossip_util.Json in
  match model with
  | Iid { p } -> [ ("probability", J.Float p) ]
  | Permanent { k } -> [ ("k", J.Int k) ]
  | Bursty { p_fail; p_recover } ->
      [ ("p_fail", J.Float p_fail); ("p_recover", J.Float p_recover) ]

let curve_point_to_json pt =
  let module J = Gossip_util.Json in
  J.Obj
    (("model", J.Str (model_name pt.cp_model))
     :: model_params_json pt.cp_model
    @ [
        ( "mean",
          match pt.cp_mean with Some m -> J.Float m | None -> J.Null );
        ("completed", J.Int pt.cp_completed);
        ("trials", J.Int pt.cp_trials);
        ("cap", J.Int pt.cp_cap);
        ( "completed_fraction",
          J.Float
            (if pt.cp_trials = 0 then 0.0
             else float_of_int pt.cp_completed /. float_of_int pt.cp_trials) );
      ])
