module Digraph = Gossip_topology.Digraph
module Implicit = Gossip_topology.Implicit
module Parallel = Gossip_util.Parallel

type t = {
  name : string;
  n : int;
  mode : Protocol.mode;
  period : int;
  sender : int -> int -> int;
  (* [compile domains] starts one run's round compiler: it allocates the
     run's table buffers and returns [round -> table] *)
  compile : int -> int -> int array;
}

(* [fill_blocks ~domains n f] runs [f lo hi] over [0, n) in contiguous
   vertex blocks — the round kernel's split — on [domains] workers.
   Every table fill writes only its block's entries, so tables are the
   same at every worker count. *)
let fill_blocks ~domains n f =
  Parallel.reduce_blocks ~domains n f (fun () () -> ()) ()

(* The generic compiler: one [sender] call per vertex into one table. *)
let compile_sender n sender domains =
  let table = Array.make (max 1 n) (-1) in
  fun r ->
    fill_blocks ~domains n (fun lo hi ->
        for v = lo to hi - 1 do
          table.(v) <- sender r v
        done);
    table

let make ~name ~n ~mode ~period ~sender =
  if n < 0 then invalid_arg "Schedule.make: negative vertex count";
  if period < 1 then invalid_arg "Schedule.make: period must be >= 1";
  { name; n; mode; period; sender; compile = compile_sender n sender }

let name t = t.name
let n_vertices t = t.n
let mode t = t.mode
let period t = t.period

let sender t round v =
  if round < 0 then invalid_arg "Schedule.sender: negative round";
  t.sender round v

let tables ?domains t =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> Parallel.recommended_domains ()
  in
  let compile = t.compile domains in
  fun round ->
    if round < 0 then invalid_arg "Schedule.tables: negative round";
    compile round

(* --- the materialized protocols as one instance ---------------------- *)

let of_systolic sys =
  let g = Systolic.graph sys in
  let n = Digraph.n_vertices g in
  let s = Systolic.period sys in
  (* receiver-indexed sender tables, one per period round: a round is a
     matching, so every receiver has exactly one sender *)
  let tables =
    Array.init s (fun i ->
        let snd = Array.make (max 1 n) (-1) in
        List.iter (fun (x, y) -> snd.(y) <- x) (Systolic.period_round sys i);
        snd)
  in
  {
    name = Digraph.name g;
    n;
    mode = Systolic.mode sys;
    period = s;
    sender = (fun r v -> tables.(r mod s).(v));
    compile = (fun _ r -> tables.(r mod s));
  }

(* --- bridging back to the materialized world (small n only) ---------- *)

let round_arcs t i =
  let arcs = ref [] in
  for v = t.n - 1 downto 0 do
    let x = t.sender i v in
    if x >= 0 then arcs := (x, v) :: !arcs
  done;
  !arcs

let to_systolic t g =
  if Digraph.n_vertices g <> t.n then
    invalid_arg "Schedule.to_systolic: vertex count mismatch";
  Systolic.make g t.mode (List.init t.period (round_arcs t))

(* --- faults on the arc stream ---------------------------------------- *)

let with_drops t ~drop =
  let keep r v x = if x < 0 || drop ~round:r ~u:x ~v then -1 else x in
  {
    t with
    name = t.name ^ "+drops";
    sender = (fun r v -> keep r v (t.sender r v));
    (* the inner table is filtered into a buffer of this layer's own: the
       inner compiler may hand out a table it reuses (of_systolic's period
       tables, a cached pairing) *)
    compile =
      (fun domains ->
        let inner = t.compile domains in
        let table = Array.make (max 1 t.n) (-1) in
        fun r ->
          let src = inner r in
          fill_blocks ~domains t.n (fun lo hi ->
              for v = lo to hi - 1 do
                table.(v) <- keep r v src.(v)
              done);
          table);
  }

(* --- structured periodic matchings ----------------------------------- *)

(* Direction-split wrapper: an exchange pairing becomes a half-duplex
   schedule of twice the period — lower endpoint sends on even rounds,
   higher on odd.  [pairing t v] is the partner of [v] in pairing [t]
   (or -1), and must be an involution: pairing t (pairing t v) = v.

   [fill_partners ~domains ~scratch dst t] writes pairing [t]'s partner
   array into [dst] and may clobber [scratch]; both are n-word buffers
   of the run.  A run keeps one partner array, recomputed only when the
   pairing changes, so the two half-duplex rounds of a pairing share it;
   a half-duplex round table is one pass over it into [scratch].  Two
   n-word buffers in all. *)
let pairing_schedule ~name ~n ~pairings ~full_duplex ~fill_partners pairing =
  let compile domains =
    let partners = Array.make (max 1 n) (-1) in
    let scratch = Array.make (max 1 n) (-1) in
    let cached = ref (-1) in
    let partners_of t =
      if !cached <> t then begin
        (* no pairing is cached while [partners] is being refilled *)
        cached := -1;
        fill_partners ~domains ~scratch partners t;
        cached := t
      end;
      partners
    in
    if full_duplex then fun r -> partners_of (r mod pairings)
    else fun r ->
      let r = r mod (2 * pairings) in
      let p = partners_of (r / 2) in
      (* [v] hears partner [u] when [dir * (u - v) < 0]: [u < v] on even
         rounds, [u > v] on odd ones (and never for u = -1).  Branch-free,
         as the comparison is a coin flip per vertex: the sign smeared
         over the word keeps [u], else the [lor] gives -1. *)
      let dir = if r mod 2 = 0 then 1 else -1 in
      fill_blocks ~domains n (fun lo hi ->
          for v = lo to hi - 1 do
            let u = p.(v) in
            scratch.(v) <- u lor lnot ((dir * (u - v)) asr 62)
          done);
      scratch
  in
  let sched =
    if full_duplex then
      make ~name ~n ~mode:Protocol.Full_duplex ~period:pairings
        ~sender:(fun r v -> pairing (r mod pairings) v)
    else
      make ~name ~n ~mode:Protocol.Half_duplex
        ~period:(2 * pairings)
        ~sender:(fun r v ->
          let r = r mod (2 * pairings) in
          let p = pairing (r / 2) v in
          if p < 0 then -1
          else if r mod 2 = 0 then if p < v then p else -1
          else if p > v then p
          else -1)
  in
  { sched with compile }

let of_pairing ~name ~n ~pairings ~full_duplex pairing =
  pairing_schedule ~name ~n ~pairings ~full_duplex pairing
    ~fill_partners:(fun ~domains ~scratch:_ dst t ->
      fill_blocks ~domains n (fun lo hi ->
          for v = lo to hi - 1 do
            dst.(v) <- pairing t v
          done))

(* Proper coloring of the cycle on [len] vertices: edge j joins j and
   j+1 mod len; colors alternate, with the closing edge taking a third
   color when [len] is odd. *)
let cycle_colors len = if len mod 2 = 0 then 2 else 3

let cycle_edge_color len j = if j = len - 1 && len mod 2 = 1 then 2 else j mod 2

let cycle_partner len color x =
  if cycle_edge_color len x = color then (x + 1) mod len
  else if cycle_edge_color len ((x + len - 1) mod len) = color then
    (x + len - 1) mod len
  else -1

let hypercube_sweep ~dim ~full_duplex =
  if dim < 1 then invalid_arg "Schedule.hypercube_sweep: dim must be >= 1";
  of_pairing
    ~name:(Printf.sprintf "Q(%d) sweep" dim)
    ~n:(1 lsl dim) ~pairings:dim ~full_duplex
    (fun t v -> v lxor (1 lsl t))

let cycle_alternating ~n ~full_duplex =
  if n < 3 then invalid_arg "Schedule.cycle_alternating: n must be >= 3";
  of_pairing
    ~name:(Printf.sprintf "C(%d) alternating" n)
    ~n ~pairings:(cycle_colors n) ~full_duplex
    (fun t v -> cycle_partner n t v)

let torus_colored ~rows ~cols ~full_duplex =
  if rows < 3 || cols < 3 then
    invalid_arg "Schedule.torus_colored: sides must be >= 3";
  let hc = cycle_colors cols and vc = cycle_colors rows in
  of_pairing
    ~name:(Printf.sprintf "Torus(%dx%d) colored" rows cols)
    ~n:(rows * cols) ~pairings:(hc + vc) ~full_duplex
    (fun t v ->
      let r = v / cols and c = v mod cols in
      if t < hc then
        let c' = cycle_partner cols t c in
        if c' < 0 then -1 else (r * cols) + c'
      else
        let r' = cycle_partner rows (t - hc) r in
        if r' < 0 then -1 else (r' * cols) + c)

let ccc_colored ~dim ~full_duplex =
  if dim < 3 then invalid_arg "Schedule.ccc_colored: dim must be >= 3";
  let cc = cycle_colors dim in
  of_pairing
    ~name:(Printf.sprintf "CCC(%d) colored" dim)
    ~n:(dim * (1 lsl dim))
    ~pairings:(cc + 1) ~full_duplex
    (fun t v ->
      let w = v / dim and i = v mod dim in
      if t < cc then
        let i' = cycle_partner dim t i in
        if i' < 0 then -1 else (w * dim) + i'
      else (w lxor (1 lsl i)) * dim + i)

(* --- seeded mutual-proposal matchings over any implicit topology ----- *)

(* Deterministic avalanche mix of (seed, round, vertex) — no state, safe
   to evaluate from any worker domain. *)
let mix seed r v =
  let h = seed + (r * 0x9E3779B97F4A7C) + (v * 0xBF58476D1CE4E5) in
  let h = h lxor (h lsr 21) in
  let h = h * 0xFF51AFD7ED558C in
  let h = h lxor (h lsr 17) in
  let h = h * 0xC4CEB9FE1A85EC in
  (h lxor (h lsr 26)) land max_int

let proposal imp ~period ~seed ~full_duplex =
  if period < 1 then invalid_arg "Schedule.proposal: period must be >= 1";
  let n = Implicit.n_vertices imp in
  let slots = Implicit.slots imp in
  (* Every vertex nominates one raw candidate slot per pairing; an
     exchange happens exactly when two nominations are mutual.  Each
     vertex has at most one mutual partner, so the pairing is a matching
     by construction; self- and out-of-range slots simply idle. *)
  let candidate t v =
    let u = Implicit.slot imp v (mix seed t v mod slots) in
    if u = v || u < 0 || u >= n then -1 else u
  in
  let pairing t v =
    let u = candidate t v in
    if u >= 0 && candidate t u = v then u else -1
  in
  (* compiled: one [candidate] per vertex into [scratch], then the
     mutual-partner pass reads candidates only *)
  let fill_partners ~domains ~scratch dst t =
    fill_blocks ~domains n (fun lo hi ->
        for v = lo to hi - 1 do
          scratch.(v) <- candidate t v
        done);
    fill_blocks ~domains n (fun lo hi ->
        for v = lo to hi - 1 do
          let u = scratch.(v) in
          dst.(v) <- (if u >= 0 && scratch.(u) = v then u else -1)
        done)
  in
  pairing_schedule
    ~name:(Printf.sprintf "%s proposal(s=%d,seed=%d)" (Implicit.name imp)
             period seed)
    ~n ~pairings:period ~full_duplex ~fill_partners pairing

(* --- family resolution ------------------------------------------------ *)

let of_family ~family ~n ~degree ?(period = 64) ?(seed = 1) ~full_duplex () =
  match Implicit.of_family ~family ~n ~degree with
  | Error _ as e -> e
  | Ok imp -> (
      let actual = Implicit.n_vertices imp in
      match family with
      | "hypercube" ->
          let dim =
            let rec go d = if 1 lsl d >= actual then d else go (d + 1) in
            go 1
          in
          Ok (imp, hypercube_sweep ~dim ~full_duplex)
      | "cycle" -> Ok (imp, cycle_alternating ~n:actual ~full_duplex)
      | "torus" ->
          let side = int_of_float (sqrt (float_of_int actual) +. 0.5) in
          Ok (imp, torus_colored ~rows:side ~cols:side ~full_duplex)
      | "ccc" ->
          let dim =
            let rec go d = if d * (1 lsl d) >= actual then d else go (d + 1) in
            go 3
          in
          Ok (imp, ccc_colored ~dim ~full_duplex)
      | _ -> Ok (imp, proposal imp ~period ~seed ~full_duplex))
