(* The serving workload, serve-hot: a closed loop straight into
   gossip_served.  Its traced run puts gossip_router in front of the
   (joined) shard as well, to measure the router hop.

   The daemons run as child processes with two worker domains each;
   their sockets live in a scratch directory under the working
   directory, removed with the daemons on every exit path. *)

module Json = Gossip_util.Json
module Wire = Gossip_serve.Wire
module Client = Gossip_serve.Client
module Server = Gossip_serve.Server
module Dispatch = Gossip_serve.Dispatch
module Prng = Gossip_util.Prng

(* At most two worker domains per daemon and two client connections,
   and never more than the machine's cores. *)
let workers = max 1 (min 2 (Machine.nproc ()))
let connections = workers

(* {1 Daemons} *)

type daemon = { name : string; pid : int; sock : string; log : string }

let live : daemon list ref = ref []

(* SIGTERM, then SIGKILL after five seconds; reaps the process either way
   and never raises, so cleanup always reaches the next daemon. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Sample.now_s () +. 5.0 in
  let rec wait () =
    let exited =
      try fst (Unix.waitpid [ Unix.WNOHANG ] d.pid) <> 0 with
      | Unix.Unix_error (Unix.EINTR, _, _) -> false
      | Unix.Unix_error _ -> true
    in
    if exited then ()
    else if Sample.now_s () < deadline then begin
      (try Unix.sleepf 0.01 with Unix.Unix_error _ -> ());
      wait ()
    end
    else begin
      (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()
    end
  in
  wait ();
  (try Sys.remove d.sock with Sys_error _ -> ());
  live := List.filter (fun x -> x.pid <> d.pid) !live

let scratch_dir =
  lazy
    (let dir = Printf.sprintf ".perfbench_tmp/%d" (Unix.getpid ()) in
     (try Unix.mkdir ".perfbench_tmp" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     dir)

let remove_scratch () =
  if Lazy.is_val scratch_dir then begin
    let dir = Lazy.force scratch_dir in
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
    (try Unix.rmdir dir with Unix.Unix_error _ -> ());
    try Unix.rmdir ".perfbench_tmp" with Unix.Unix_error _ -> ()
  end

let cleanup () =
  List.iter stop !live;
  try remove_scratch () with _ -> ()

let () =
  at_exit cleanup;
  let on_signal _ = exit 3 in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)

let spawn ~name prog args =
  let dir = Lazy.force scratch_dir in
  let sock = Filename.concat dir (name ^ ".sock") in
  let log = Filename.concat dir (name ^ ".log") in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let argv = Array.of_list (prog :: args ~sock) in
  let pid = Unix.create_process prog argv null fd fd in
  Unix.close fd;
  Unix.close null;
  let d = { name; pid; sock; log } in
  live := d :: !live;
  d

let log_tail d =
  match open_in d.log with
  | exception Sys_error _ -> ""
  | ic ->
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let n = String.length s in
      if n > 2000 then String.sub s (n - 2000) 2000 else s

exception Boot_failed of string

let call_ok c op =
  match Client.call c op with
  | Ok { Wire.outcome = Ok j; _ } -> Some j
  | _ | (exception _) -> None

(* Waits until [health] answers ok on [d]. *)
let await_healthy d =
  let c =
    try Client.connect_retry ~attempts:100 ~delay:0.05 (Server.Unix_socket d.sock)
    with _ -> raise (Boot_failed (d.name ^ " never accepted:\n" ^ log_tail d))
  in
  let deadline = Sample.now_s () +. 10.0 in
  let rec poll () =
    match call_ok c Wire.Health with
    | Some j when Json.member "ok" j = Some (Json.Bool true) -> ()
    | _ when Sample.now_s () < deadline ->
        Unix.sleepf 0.02;
        poll ()
    | _ -> raise (Boot_failed (d.name ^ " never became healthy:\n" ^ log_tail d))
  in
  poll ();
  Client.close c

(* Waits until the router and the shard hold the same two-member
   membership table (equal digests). *)
let await_converged router shard =
  let digest d =
    match Client.connect (Server.Unix_socket d.sock) with
    | exception _ -> None
    | c ->
        let r = call_ok c Wire.Mem_digest in
        Client.close c;
        Option.bind r (fun j ->
            match (Json.member "digest" j, Json.member "nodes" j) with
            | Some (Json.Str s), Some (Json.Int 2) -> Some s
            | _ -> None)
  in
  let deadline = Sample.now_s () +. 15.0 in
  let rec poll () =
    match (digest router, digest shard) with
    | Some a, Some b when a = b -> ()
    | _ when Sample.now_s () < deadline ->
        Unix.sleepf 0.02;
        poll ()
    | _ -> raise (Boot_failed ("membership never converged:\n" ^ log_tail router))
  in
  poll ()

(* Boots the fleet; returns the endpoint the workload talks to and every
   daemon (the shard last). *)
let boot ~served ~router ~routed =
  let shard_args ~join ~sock =
    [ "serve"; "--socket"; sock; "--workers"; string_of_int workers ]
    @
    match join with
    | None -> []
    | Some r -> [ "--node-id"; "s1"; "--join"; "unix:" ^ r; "--gossip-interval-ms"; "100" ]
  in
  if not routed then begin
    let s = spawn ~name:"shard" served (shard_args ~join:None) in
    await_healthy s;
    (s, [ s ])
  end
  else begin
    let r =
      spawn ~name:"router" router (fun ~sock ->
          [
            "--socket"; sock; "--node-id"; "router"; "--workers"; string_of_int workers;
            "--gossip-interval-ms"; "100";
          ])
    in
    let s = spawn ~name:"shard" served (shard_args ~join:(Some r.sock)) in
    await_healthy s;
    await_converged r s;
    await_healthy r;
    (r, [ r; s ])
  end

(* {1 Request stream} *)

(* The traffic of tools/loadgen.ml, the repository's load generator, as
   CI's serving smoke test sends it: loadgen's four networks and its
   default weighted mix tables:4,bound:3,ping:2,simulate:1, here with
   certify added at weight 1 (the smoke test adds certify_faults at
   weight 1 the same way).  Request i is loadgen's request i: mix slot
   i mod 11, network i mod 4. *)
let nets =
  [|
    { Wire.family = "cycle"; dim = 16; degree = 2 };
    { Wire.family = "hypercube"; dim = 4; degree = 2 };
    { Wire.family = "db"; dim = 3; degree = 2 };
    { Wire.family = "complete"; dim = 8; degree = 2 };
  |]

let mix = [ ("tables", 4); ("bound", 3); ("ping", 2); ("simulate", 1); ("certify", 1) ]

let op_names = List.map fst mix

let slots = Array.of_list (List.concat_map (fun (name, w) -> List.init w (fun _ -> name)) mix)

let op_of name net =
  match name with
  | "ping" -> Wire.Ping
  | "bound" -> Wire.Bound { net; s = Some 4; full_duplex = false }
  | "tables" -> Wire.Tables { s_max = 8; ss = [ 3; 4; 5; 6; 7; 8 ] }
  | "simulate" -> Wire.Simulate { net; full_duplex = false }
  | _ -> Wire.Certify { spec = Wire.Built { net; full_duplex = false }; refine = false }

(* Ten rounds of loadgen's 44-request cycle (every mix slot with every
   network once), so every seed sends the same requests; the seed picks
   only their order.  Returns the distinct operations (the warm-up set)
   and the stream as indices into them. *)
let make_stream ~seed =
  let distinct = Hashtbl.create 16 and order = ref [] in
  let index op =
    match Hashtbl.find_opt distinct op with
    | Some i -> i
    | None ->
        let i = Hashtbl.length distinct in
        Hashtbl.replace distinct op i;
        order := op :: !order;
        i
  in
  let cycle = Array.length slots * Array.length nets in
  let stream =
    Array.init (10 * cycle) (fun i ->
        index (op_of slots.(i mod Array.length slots) nets.(i mod Array.length nets)))
  in
  Prng.shuffle (Prng.create seed) stream;
  (Array.of_list (List.rev !order), stream)

(* {1 Closed loop} *)

type loop = {
  lat : Sample.buf;
  ends : Sample.buf;  (* completion times, parallel to [lat] *)
  lat_by_op : (string, Sample.buf) Hashtbl.t;
  mutable attempted : int;
  mutable failed : int;
  mutable completed : int;
}

(* One connection: send the stream from [offset] until [deadline], each
   request after the previous reply.  Every reply must be ok and carry
   exactly the in-process reference payload.  A lost connection is
   retried; every request that cannot be sent meanwhile is a failed
   operation, so a dead daemon shows as failures, not as a short run. *)
let connection ~sock ~ops ~expected ~stream ~offset ~deadline ~traced =
  let st =
    { lat = Sample.buf (); ends = Sample.buf (); lat_by_op = Hashtbl.create 8; attempted = 0; failed = 0; completed = 0 }
  in
  let connect () =
    try Some (Client.connect ~connect_timeout_ms:200 (Server.Unix_socket sock)) with _ -> None
  in
  let conn = ref (connect ()) in
  let i = ref offset in
  while Sample.now_s () < deadline do
    let k = stream.(!i mod Array.length stream) in
    incr i;
    st.attempted <- st.attempted + 1;
    match !conn with
    | None ->
        st.failed <- st.failed + 1;
        Unix.sleepf 0.01;
        conn := connect ()
    | Some c -> (
        let op = ops.(k) in
        let trace = if traced then Some (Gossip_util.Trace.mint ~sample_rate:1.0 ()) else None in
        let t0 = Sample.now_s () in
        match Client.call c ?trace op with
        | Ok { Wire.outcome = Ok j; _ } ->
            let t1 = Sample.now_s () in
            let dt = t1 -. t0 in
            Sample.push st.lat dt;
            Sample.push st.ends t1;
            let name = Wire.op_name op in
            let b =
              match Hashtbl.find_opt st.lat_by_op name with
              | Some b -> b
              | None ->
                  let b = Sample.buf () in
                  Hashtbl.replace st.lat_by_op name b;
                  b
            in
            Sample.push b dt;
            st.completed <- st.completed + 1;
            if j <> expected.(k) then st.failed <- st.failed + 1
        | Ok _ -> st.failed <- st.failed + 1
        | Error _ | (exception _) ->
            st.failed <- st.failed + 1;
            (try Client.close c with _ -> ());
            conn := connect ())
  done;
  Option.iter (fun c -> try Client.close c with _ -> ()) !conn;
  st

(* Each phase is cut into three-second windows; a phase's rate and
   latencies are those of its best window (highest rate, lowest p50,
   lowest p99, each on its own).  On a shared machine a neighbour slows
   the loop for seconds at a time; the best window filters that while
   every window does the same work, and a window holds 3 000 to 9 000
   requests, 30 or more of them above its 99th percentile. *)
let window_s = 3.0

type phase = {
  p_attempted : int;
  p_failed : int;
  rps : float;
  p50_ms : float;
  p99_ms : float;
  samples : int;
  windows : (float * float * float) array;  (* rps, p50 ms, p99 ms *)
  op_p50_ms : (string * float) list;
}

let run_phase ~sock ~ops ~expected ~stream ~seconds ~traced =
  let t0 = Sample.now_s () in
  let deadline = t0 +. seconds in
  let results = Array.make connections None in
  let threads =
    List.init connections (fun c ->
        Thread.create
          (fun () ->
            results.(c) <-
              Some
                (connection ~sock ~ops ~expected ~stream
                   ~offset:(c * Array.length stream / connections)
                   ~deadline ~traced))
          ())
  in
  List.iter Thread.join threads;
  let sts = Array.to_list (Array.map Option.get results) in
  let lat = Array.concat (List.map (fun st -> Sample.contents st.lat) sts) in
  let ends = Array.concat (List.map (fun st -> Sample.contents st.ends) sts) in
  (* a phase shorter than a window is one window *)
  let width = Float.min window_s seconds in
  let nwin = max 1 (int_of_float (seconds /. width)) in
  let win = Array.init nwin (fun _ -> Sample.buf ()) in
  Array.iteri
    (fun i t ->
      let w = int_of_float ((t -. t0) /. width) in
      if w < nwin then Sample.push win.(w) lat.(i))
    ends;
  let filled = List.filter (fun b -> b.Sample.len > 0) (Array.to_list win) in
  let per f = Array.of_list (List.map (fun b -> f (Sample.contents b)) filled) in
  let by_op = Hashtbl.create 8 in
  List.iter
    (fun st ->
      Hashtbl.iter
        (fun name b ->
          let prev = Option.value (Hashtbl.find_opt by_op name) ~default:[||] in
          Hashtbl.replace by_op name (Array.append prev (Sample.contents b)))
        st.lat_by_op)
    sts;
  let sum f = List.fold_left (fun a st -> a + f st) 0 sts in
  {
    p_attempted = sum (fun st -> st.attempted);
    p_failed = sum (fun st -> st.failed);
    rps = Sample.max (per (fun xs -> float_of_int (Array.length xs) /. width));
    p50_ms = 1000.0 *. Sample.min (per Sample.median);
    p99_ms = 1000.0 *. Sample.min (per (fun xs -> Sample.quantile xs 0.99));
    samples = Array.length lat;
    windows =
      Array.of_list
        (List.map
           (fun b ->
             let xs = Sample.contents b in
             ( float_of_int (Array.length xs) /. width,
               1000.0 *. Sample.median xs,
               1000.0 *. Sample.quantile xs 0.99 ))
           filled);
    op_p50_ms =
      Hashtbl.fold (fun name xs acc -> (name, 1000.0 *. Sample.median xs) :: acc) by_op [];
  }

(* {1 Per-layer replays and daemon-side numbers} *)

(* Mean microseconds per request of the wire codec over the stream. *)
let wire_layers ~ops ~expected ~stream =
  let reqs =
    Array.mapi (fun i k -> { Wire.id = Json.Int i; op = ops.(k); timeout_ms = None; trace = None }) stream
  in
  let reps = 8 in
  let n = float_of_int (reps * Array.length reqs) in
  let frames = Array.map (fun r -> Json.to_string (Wire.request_to_json r)) reqs in
  let replies =
    Array.mapi (fun i k -> Json.to_string (Wire.ok_response ~id:(Json.Int i) expected.(k))) stream
  in
  let per_req f arr =
    let _, s =
      Sample.time (fun () ->
          for _ = 1 to reps do
            Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) arr
          done)
    in
    1e6 *. s /. n
  in
  let ok = ref true in
  let decode s =
    match Json.of_string s with
    | Ok j -> ( match Wire.parse_request j with Ok r -> Some r | Error _ -> ok := false; None)
    | Error _ -> ok := false; None
  in
  let decode_reply s =
    match Json.of_string s with
    | Ok j -> ( match Wire.parse_response j with Ok r -> Some r | Error _ -> ok := false; None)
    | Error _ -> ok := false; None
  in
  let layers =
    [
      ("wire.request_encode_us", per_req (fun r -> Json.to_string (Wire.request_to_json r)) reqs);
      ("wire.request_decode_us", per_req decode frames);
      ("wire.response_decode_us", per_req decode_reply replies);
    ]
  in
  (layers, !ok)

(* In-process [Dispatch.eval] of every distinct operation against the
   warmed reference dispatcher: p50/p99 microseconds per op kind. *)
let dispatch_layers d ~ops =
  let by_op = Hashtbl.create 8 in
  Array.iter
    (fun op ->
      let name = Wire.op_name op in
      let b =
        match Hashtbl.find_opt by_op name with
        | Some b -> b
        | None ->
            let b = Sample.buf () in
            Hashtbl.replace by_op name b;
            b
      in
      for _ = 1 to 200 do
        let _, s = Sample.time (fun () -> Dispatch.eval d op) in
        Sample.push b (1e6 *. s)
      done)
    ops;
  Hashtbl.fold
    (fun name b acc ->
      let xs = Sample.contents b in
      (Printf.sprintf "dispatch.%s.eval_us.p50" name, Sample.median xs)
      :: (Printf.sprintf "dispatch.%s.eval_us.p99" name, Sample.quantile xs 0.99)
      :: acc)
    by_op []

let query sock op =
  match Client.connect (Server.Unix_socket sock) with
  | exception _ -> None
  | c ->
      let r = call_ok c op in
      Client.close c;
      r

let rec path j = function
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (fun v -> path v rest)

let num j keys =
  match path j keys with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

let context_counts stats =
  let get keys = Option.value (num stats ("cache" :: keys)) ~default:0.0 in
  [ ("context.hits", get [ "hits" ]); ("context.misses", get [ "misses" ]);
    ("context.evictions", get [ "evictions" ]) ]
  @ List.concat_map
      (fun kind ->
        List.map
          (fun c -> (Printf.sprintf "context.%s.%s" kind c, get [ "by_kind"; kind; c ]))
          [ "hits"; "misses"; "evictions" ])
      Batch.context_kinds

let delta before after =
  List.map2 (fun (name, a) (_, b) -> (name, b -. a)) before after

(* {1 Workload} *)

let run ~served ~router ~seed ~seconds ~trace =
  let ops, stream = make_stream ~seed in
  (* The traced run also boots the router, in front of a joined shard. *)
  let routed = trace in
  (* Set-up, [Batch.setup_repeats] times (once for the traced run, which
     reports no set-up time): boot, health (and membership) wait, warm-up
     pass over every distinct operation.  The last fleet is measured. *)
  let boot_once () =
    let (fleet, _) as booted = boot ~served ~router ~routed in
    let c = Client.connect (Server.Unix_socket fleet.sock) in
    let warmed = Array.for_all (fun op -> call_ok c op <> None) ops in
    Client.close c;
    if not warmed then raise (Boot_failed ("warm-up failed:\n" ^ log_tail fleet));
    booted
  in
  let repeats = if trace then 1 else Batch.setup_repeats in
  let setups =
    Array.init repeats (fun i ->
        let booted, s = Sample.time boot_once in
        if i < repeats - 1 then List.iter stop (snd booted);
        (booted, s))
  in
  let setup_s = Sample.median (Array.map snd setups) in
  let fleet, daemons = fst setups.(repeats - 1) in
  let shard = List.nth daemons (List.length daemons - 1) in
  (* in-process reference answers for every distinct operation *)
  let reference = Dispatch.create () in
  let expected =
    Array.map
      (fun op -> match Dispatch.eval reference op with Ok j -> j | Error _ -> Json.Null)
      ops
  in
  let ref_failed = Array.fold_left (fun a j -> if j = Json.Null then a + 1 else a) 0 expected in
  let phase ~sock ~traced secs = run_phase ~sock ~ops ~expected ~stream ~seconds:secs ~traced in
  let main, layers, extra =
    if not trace then (phase ~sock:shard.sock ~traced:false seconds, [], [])
    else begin
      let share = seconds /. 3.0 in
      let plain = phase ~sock:shard.sock ~traced:false share in
      let stats0 = query shard.sock Wire.Stats in
      let traced = phase ~sock:shard.sock ~traced:true share in
      let stats1 = query shard.sock Wire.Stats in
      let metrics = query shard.sock Wire.Metrics in
      let via_router = phase ~sock:fleet.sock ~traced:false share in
      let ctx =
        match (stats0, stats1) with
        | Some a, Some b ->
            let d = delta (context_counts a) (context_counts b) in
            let hits = List.assoc "context.hits" d and misses = List.assoc "context.misses" d in
            d @ [ ("context.hit_frac", hits /. Float.max 1.0 (hits +. misses)) ]
        | _ -> []
      in
      let server =
        match metrics with
        | None -> []
        | Some m ->
            let w = [ "windows"; "10s" ] in
            let get keys = Option.value (num m (w @ keys)) ~default:0.0 in
            [
              ("server.queue_wait_ms.p50", get [ "queue_wait_ms"; "p50" ]);
              ("server.queue_wait_ms.p99", get [ "queue_wait_ms"; "p99" ]);
            ]
            @ List.map
                (fun op ->
                  (Printf.sprintf "server.%s.latency_ms.p50" op, get [ "ops"; op; "latency_ms"; "p50" ]))
                op_names
            @ [
                ( "server.overhead_ms",
                  Option.value (List.assoc_opt "ping" traced.op_p50_ms) ~default:0.0
                  -. get [ "ops"; "ping"; "latency_ms"; "p50" ] );
              ]
      in
      let wire, wire_ok = wire_layers ~ops ~expected ~stream in
      let phases = [ plain; traced; via_router ] in
      let combined =
        {
          plain with
          p_attempted = List.fold_left (fun a p -> a + p.p_attempted) 0 phases;
          p_failed =
            List.fold_left (fun a p -> a + p.p_failed) 0 phases
            + (if wire_ok && metrics <> None && stats0 <> None && stats1 <> None then 0 else 1);
        }
      in
      ( combined,
        ctx @ server @ wire @ dispatch_layers reference ~ops
        @ [
            ("router.hop_ms", via_router.p50_ms -. plain.p50_ms);
            ("trace.overhead_frac", (plain.rps /. traced.rps) -. 1.0);
          ],
        [
          ("untraced_rps", Json.Float plain.rps);
          ("traced_rps", Json.Float traced.rps);
          ("untraced_p50_ms", Json.Float plain.p50_ms);
          ("traced_p50_ms", Json.Float traced.p50_ms);
          ("routed_p50_ms", Json.Float via_router.p50_ms);
          ("routed_samples", Json.Int via_router.samples);
        ] )
    end
  in
  let rss =
    List.fold_left
      (fun a d -> a +. Option.value (Machine.peak_rss_mb (Some d.pid)) ~default:Float.nan)
      0.0 daemons
  in
  (* a daemon that exited on its own during the run is a failure *)
  let died =
    List.exists
      (fun d ->
        match Unix.waitpid [ Unix.WNOHANG ] d.pid with
        | 0, _ -> false
        | _ -> true
        | exception Unix.Unix_error _ -> true)
      daemons
  in
  List.iter stop daemons;
  let outcome =
    {
      Batch.attempted = main.p_attempted + Array.length ops;
      failed = main.p_failed + ref_failed + (if died then 1 else 0);
      e2e =
        [
          ("setup_s", setup_s);
          ("work_per_s", main.rps);
          ("p50_ms", main.p50_ms);
          ("p99_ms", main.p99_ms);
        ];
      layers;
      report =
        [
          ("work_unit", Json.Str "requests");
          ("setup_samples_s", Batch.floats (Array.to_list (Array.map snd setups)));
          ("latency_unit", Json.Str "one request, client side, best three-second window");
          ("latency_samples", Json.Int main.samples);
          ( "windows",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun (r, p50, p99) ->
                      Json.Obj
                        [ ("rps", Json.Float r); ("p50_ms", Json.Float p50); ("p99_ms", Json.Float p99) ])
                    main.windows)) );
          ("connections", Json.Int connections);
          ("loop", Json.Str "closed");
          ("distinct_ops", Json.Int (Array.length ops));
          ( "networks",
            Json.List
              (Array.to_list
                 (Array.map
                    (fun (n : Wire.net) -> Json.Str (Printf.sprintf "%s:%d" n.Wire.family n.Wire.dim))
                    nets)) );
          ("mix", Json.Str (String.concat "," (List.map (fun (k, w) -> Printf.sprintf "%s:%d" k w) mix)));
          ( "op_p50_ms",
            Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) (List.sort compare main.op_p50_ms)) );
        ]
        @ extra;
    }
  in
  let worker_json =
    Json.Obj
      ((if routed then [ ("router", Json.Int workers) ] else []) @ [ ("shard", Json.Int workers) ])
  in
  (outcome, worker_json, rss)
