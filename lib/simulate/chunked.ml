module Parallel = Gossip_util.Parallel
module Instrument = Gossip_util.Instrument
module Json = Gossip_util.Json
module Protocol = Gossip_protocol.Protocol
module Schedule = Gossip_protocol.Schedule

(* One contiguous int array of n·words knowledge bits, processed in
   contiguous vertex blocks by worker domains.  This is the repository's
   only round kernel: [Engine], [Stats], [Faults] and [Certifier] all
   drive it.  Tracking [items <= n] items (instead of the full n² gossip
   state) is what keeps a million-vertex simulation in memory
   proportional to state: items defaults to n, exact gossip, while
   items = 64 at n = 10^6 needs ~8 MB instead of ~125 GB. *)

let bits_per_word = 63

type state = {
  n : int;
  items : int;
  words : int;
  state : int array;
  mutable known : int;
}

let create ?items n =
  if n < 0 then invalid_arg "Chunked.create: negative vertex count";
  let items =
    match items with None -> n | Some k -> max 0 (min k n)
  in
  let words = max 1 ((items + bits_per_word - 1) / bits_per_word) in
  let st = { n; items; words; state = Array.make (max 1 (n * words)) 0; known = 0 } in
  (* vertex v starts knowing item v, for the first [items] items *)
  for v = 0 to items - 1 do
    st.state.((v * words) + (v / bits_per_word)) <-
      1 lsl (v mod bits_per_word)
  done;
  st.known <- items;
  st

let n_vertices st = st.n
let items st = st.items
let items_known st = st.known

let knows st v i =
  if v < 0 || v >= st.n then invalid_arg "Chunked.knows: vertex out of range";
  if i < 0 || i >= st.items then false
  else
    st.state.((v * st.words) + (i / bits_per_word))
    land (1 lsl (i mod bits_per_word))
    <> 0

let coverage st =
  if st.n = 0 || st.items = 0 then 1.0
  else float_of_int st.known /. float_of_int (st.n * st.items)

let complete st = st.known = st.n * st.items

(* Branch-free SWAR popcount of a 63-bit int: pair, nibble and byte
   sums by shift-and-mask, then one multiply adds the bytes into the top
   byte.  The masks are the 64-bit constants truncated to 63 bits; the
   top field of each step is short but never overflows (its count fits),
   and the total (<= 63) fits the 7 bits left above bit 56. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let known_by st v =
  if v < 0 || v >= st.n then invalid_arg "Chunked.known_by: vertex out of range";
  let acc = ref 0 in
  for w = v * st.words to ((v + 1) * st.words) - 1 do
    acc := !acc + popcount st.state.(w)
  done;
  !acc

(* One vertex block of one round, in place; [senders.(v)] is the vertex
   transmitting to [v] this round, or [-1].  A round is a matching, so a
   sender is never also a receiver except through a full-duplex exchange:
   - exchange (senders.(v) = x and senders.(x) = v): owned by the lower
     endpoint, which writes the shared union to both sides — identical to
     the start-of-round snapshot semantics, since both ends get
     old(v) | old(x);
   - one-directional arc x -> v: x is not written this round, so
     v |= x in place is race-free.
   Returns the number of newly-set bits; the cross-block sum is an exact
   integer, so results are identical for any worker count. *)
let block_delta st senders lo hi =
  let words = st.words and state = st.state and n = st.n in
  let delta = ref 0 in
  for v = lo to hi - 1 do
    let x = senders.(v) in
    if x >= 0 && x < n && x <> v then
      if senders.(x) = v then begin
        if v < x then begin
          let dv = v * words and dx = x * words in
          for w = 0 to words - 1 do
            let a = state.(dv + w) and b = state.(dx + w) in
            let u = a lor b in
            if u <> a then begin
              delta := !delta + popcount (u land lnot a);
              state.(dv + w) <- u
            end;
            if u <> b then begin
              delta := !delta + popcount (u land lnot b);
              state.(dx + w) <- u
            end
          done
        end
      end
      else begin
        let dv = v * words and dx = x * words in
        for w = 0 to words - 1 do
          let a = state.(dv + w) in
          let u = a lor state.(dx + w) in
          if u <> a then begin
            delta := !delta + popcount (u land lnot a);
            state.(dv + w) <- u
          end
        done
      end
  done;
  !delta

let apply_senders ?domains st senders =
  if Array.length senders < st.n then
    invalid_arg "Chunked.apply_senders: table shorter than the vertex count";
  st.known <-
    st.known + Parallel.reduce_blocks ?domains st.n (block_delta st senders) ( + ) 0

(* One receiver->sender table for the whole run: each round writes its
   arcs' senders in, and wipes them again after the kernel has read them. *)
let arc_applier st =
  let senders = Array.make (max 1 st.n) (-1) in
  fun arcs ->
    List.iter (fun (x, y) -> senders.(y) <- x) arcs;
    apply_senders ~domains:1 st senders;
    List.iter (fun (_, y) -> senders.(y) <- -1) arcs

type checkpoint = {
  round : int;
  coverage : float;
  elapsed_s : float;
  rounds_per_s : float;
  eta_s : float option;
  heap_mb : float;
  rss_mb : float option;
}

type outcome = {
  time : int option;
  rounds_run : int;
  final_coverage : float;
  checkpoints : checkpoint list;
}

let ceil_log2 n =
  let rec go acc p = if p >= n then acc else go (acc + 1) (p * 2) in
  if n <= 1 then 0 else go 0 1

(* Generous: covers both logarithmic-diameter families and the
   linear-diameter cycle/torus, while runs that complete stop early. *)
let default_cap n period =
  (2 * n) + (8 * period * max 1 (ceil_log2 n)) + 64

let run ?domains ?cap ?(checkpoint_every = 0) ?on_checkpoint st sched =
  if Schedule.n_vertices sched <> st.n then
    invalid_arg "Chunked.run: schedule and state disagree on vertex count";
  let cap =
    match cap with Some c -> c | None -> default_cap st.n (Schedule.period sched)
  in
  let table = Schedule.tables ?domains sched in
  let streaming = Instrument.tracing () in
  let checkpoints = ref [] in
  let time = ref None in
  let i = ref 0 in
  let t0 = Instrument.now_ns () in
  (* previous checkpoint's (elapsed, coverage): the ETA extrapolates the
     most recent inter-checkpoint coverage slope to coverage 1.0 —
     robust to warm-up, and None once coverage stalls (an incomplete run
     heading for the cap has no honest ETA). *)
  let prev = ref (0.0, coverage st) in
  let note_checkpoint () =
    let c = coverage st in
    let elapsed_s = Int64.to_float (Int64.sub (Instrument.now_ns ()) t0) /. 1e9 in
    let rounds_per_s =
      if elapsed_s > 0.0 then float_of_int !i /. elapsed_s else 0.0
    in
    let eta_s =
      if !time <> None then Some 0.0
      else
        let prev_t, prev_c = !prev in
        let slope = (c -. prev_c) /. Float.max 1e-9 (elapsed_s -. prev_t) in
        if slope > 0.0 then Some ((1.0 -. c) /. slope) else None
    in
    prev := (elapsed_s, c);
    let res = Gossip_util.Resource.sample () in
    let cp =
      {
        round = !i;
        coverage = c;
        elapsed_s;
        rounds_per_s;
        eta_s;
        heap_mb = res.Gossip_util.Resource.heap_mb;
        rss_mb = res.Gossip_util.Resource.rss_mb;
      }
    in
    checkpoints := cp :: !checkpoints;
    if streaming then
      Instrument.event "engine.checkpoint"
        ~attrs:
          [
            ("round", Json.Int !i);
            ("coverage", Json.Float c);
            ("elapsed_s", Json.Float elapsed_s);
            ("rounds_per_s", Json.Float rounds_per_s);
            ( "eta_s",
              match eta_s with Some e -> Json.Float e | None -> Json.Null );
            ("heap_mb", Json.Float cp.heap_mb);
            ( "rss_mb",
              match cp.rss_mb with Some r -> Json.Float r | None -> Json.Null
            );
          ];
    match on_checkpoint with Some f -> f cp | None -> ()
  in
  Instrument.span "simulate.chunked-run" (fun () ->
      while !time = None && !i < cap do
        apply_senders ?domains st (table !i);
        incr i;
        if complete st then time := Some !i;
        if checkpoint_every > 0 && (!i mod checkpoint_every = 0 || !time <> None)
        then note_checkpoint ()
      done);
  {
    time = !time;
    rounds_run = !i;
    final_coverage = coverage st;
    checkpoints = List.rev !checkpoints;
  }

(* --- the gossip-simulate/1 report, shared by the CLI and the server --- *)

let report_to_json ~family ~requested_n ~sched ~st ~outcome ~wall_seconds
    ~domains =
  let mode = Protocol.mode_to_string (Schedule.mode sched) in
  let rate =
    if wall_seconds > 0.0 then
      float_of_int st.n *. float_of_int outcome.rounds_run /. wall_seconds
    else 0.0
  in
  Json.Obj
    [
      ("schema", Json.Str "gossip-simulate/1");
      ("family", Json.Str family);
      ("schedule", Json.Str (Schedule.name sched));
      ("requested_n", Json.Int requested_n);
      ("n", Json.Int st.n);
      ("items", Json.Int st.items);
      ("period", Json.Int (Schedule.period sched));
      ("mode", Json.Str mode);
      ("completed", Json.Bool (outcome.time <> None));
      ( "rounds",
        Json.Int
          (match outcome.time with Some t -> t | None -> outcome.rounds_run) );
      ("coverage", Json.Float outcome.final_coverage);
      ( "checkpoints",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 [
                   ("round", Json.Int c.round);
                   ("coverage", Json.Float c.coverage);
                   ("elapsed_s", Json.Float c.elapsed_s);
                   ("rounds_per_s", Json.Float c.rounds_per_s);
                   ( "eta_s",
                     match c.eta_s with
                     | Some e -> Json.Float e
                     | None -> Json.Null );
                   ("heap_mb", Json.Float c.heap_mb);
                   ( "rss_mb",
                     match c.rss_mb with
                     | Some r -> Json.Float r
                     | None -> Json.Null );
                 ])
             outcome.checkpoints) );
      ("wall_seconds", Json.Float wall_seconds);
      ("nodes_rounds_per_sec", Json.Float rate);
      ("domains", Json.Int domains);
    ]
