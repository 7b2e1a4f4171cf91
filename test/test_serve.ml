(* The serving subsystem: bounded queue semantics, wire-protocol golden
   round trips and rejections, and end-to-end runs against an in-process
   server on a Unix socket — concurrent clients, malformed and oversized
   frames, the queue-full backpressure reply, deadline-exceeded replies,
   and graceful shutdown. *)

module Json = Gossip_util.Json
module Queue_ = Gossip_serve.Bounded_queue
module Wire = Gossip_serve.Wire
module Dispatch = Gossip_serve.Dispatch
module Server = Gossip_serve.Server
module Client = Gossip_serve.Client
module Metrics = Gossip_serve.Metrics
module Trace_analysis = Gossip_serve.Trace_analysis
module Chaos = Gossip_serve.Chaos
module Supervisor = Gossip_serve.Supervisor
module Resilient = Gossip_serve.Resilient_client

(* [dig ["a";"b"] j] follows nested object members. *)
let rec dig path j =
  match path with
  | [] -> Some j
  | k :: rest -> Option.bind (Json.member k j) (dig rest)

let dig_int path j = Option.bind (dig path j) Json.to_int_opt
let dig_str path j = Option.bind (dig path j) Json.to_string_opt

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* --- bounded queue --- *)

let test_queue_basic () =
  let q = Queue_.create ~capacity:2 in
  check_int "capacity" 2 (Queue_.capacity q);
  check "push 1" true (Queue_.try_push q 1 = `Ok);
  check "push 2" true (Queue_.try_push q 2 = `Ok);
  check "push 3 full" true (Queue_.try_push q 3 = `Full);
  check_int "length" 2 (Queue_.length q);
  check "pop fifo" true (Queue_.pop q = Some 1);
  check "freed a slot" true (Queue_.try_push q 4 = `Ok);
  check "pop 2" true (Queue_.pop q = Some 2);
  check "pop 4" true (Queue_.pop q = Some 4);
  Queue_.close q;
  check "push after close" true (Queue_.try_push q 5 = `Closed);
  check "pop after close drained" true (Queue_.pop q = None);
  check "closed" true (Queue_.is_closed q);
  Alcotest.check_raises "capacity 0 rejected"
    (Invalid_argument "Bounded_queue.create: capacity < 1") (fun () ->
      ignore (Queue_.create ~capacity:0))

let test_queue_close_drains_backlog () =
  let q = Queue_.create ~capacity:4 in
  ignore (Queue_.try_push q "a");
  ignore (Queue_.try_push q "b");
  Queue_.close q;
  (* close means "no new work", not "drop work" *)
  check "backlog a" true (Queue_.pop q = Some "a");
  check "backlog b" true (Queue_.pop q = Some "b");
  check "then None" true (Queue_.pop q = None)

let test_queue_concurrent () =
  let q = Queue_.create ~capacity:1024 in
  let producers = 4 and per = 250 in
  let popped = ref [] in
  let consumer =
    Thread.create
      (fun () ->
        let rec go () =
          match Queue_.pop q with
          | Some x ->
              popped := x :: !popped;
              go ()
          | None -> ()
        in
        go ())
      ()
  in
  let ts =
    List.init producers (fun p ->
        Thread.create
          (fun () ->
            for i = 0 to per - 1 do
              while Queue_.try_push q ((p * per) + i) <> `Ok do
                Thread.yield ()
              done
            done)
          ())
  in
  List.iter Thread.join ts;
  Queue_.close q;
  Thread.join consumer;
  check_int "all delivered" (producers * per) (List.length !popped);
  check "no duplicates" true
    (List.length (List.sort_uniq compare !popped) = producers * per)

(* --- wire: golden round trips --- *)

let net = { Wire.family = "hypercube"; dim = 4; degree = 2 }

let all_ops =
  [
    Wire.Ping;
    Wire.Version;
    Wire.Shutdown;
    Wire.Stats;
    Wire.Metrics;
    Wire.Health;
    Wire.Spans;
    Wire.Sleep { ms = 250 };
    Wire.Tables { s_max = 8; ss = [ 3; 4; 5 ] };
    Wire.Bound { net; s = Some 4; full_duplex = false };
    Wire.Bound { net; s = None; full_duplex = true };
    Wire.Simulate { net; full_duplex = true };
    Wire.Simulate_implicit
      {
        family = "de-bruijn";
        n = 4096;
        items = 32;
        checkpoint_every = 16;
        period = 64;
        seed = 3;
        degree = 2;
        full_duplex = true;
      };
    Wire.Certify { spec = Wire.Built { net; full_duplex = false }; refine = true };
    Wire.Certify { spec = Wire.Inline "mode half_duplex\nn 2\nperiod 1\nround 0: 0>1"; refine = false };
    Wire.Certify_faults
      {
        family = "cycle";
        n = 12;
        k = 2;
        budget = 256;
        seed = 9;
        degree = 2;
        full_duplex = true;
        harden = "augment";
        cap = 50;
      };
    Wire.Trace_pull { max = 512 };
  ]

let test_wire_request_roundtrip () =
  List.iteri
    (fun i op ->
      let req =
        { Wire.id = Json.Int i; op; timeout_ms = Some (100 + i); trace = None }
      in
      match Wire.parse_request (Wire.request_to_json req) with
      | Ok req' ->
          check (Printf.sprintf "roundtrip %s" (Wire.op_name op)) true
            (req = req')
      | Error e -> Alcotest.failf "roundtrip %s: %s" (Wire.op_name op) e)
    all_ops;
  (* no id, no timeout *)
  let req =
    { Wire.id = Json.Null; op = Wire.Ping; timeout_ms = None; trace = None }
  in
  check "bare ping" true (Wire.parse_request (Wire.request_to_json req) = Ok req)

let test_wire_golden_requests () =
  (* frames as a foreign client would write them *)
  let cases =
    [
      ( {|{"op":"ping"}|},
        { Wire.id = Json.Null; op = Wire.Ping; timeout_ms = None; trace = None } );
      ( {|{"id":7,"op":"tables","params":{"s_max":6,"ss":[3,4]},"timeout_ms":500}|},
        {
          Wire.id = Json.Int 7;
          op = Wire.Tables { s_max = 6; ss = [ 3; 4 ] };
          timeout_ms = Some 500;
          trace = None;
        } );
      ( {|{"id":"abc","op":"bound","params":{"family":"cycle","dim":16}}|},
        {
          Wire.id = Json.Str "abc";
          op =
            Wire.Bound
              {
                net = { Wire.family = "cycle"; dim = 16; degree = 2 };
                s = None;
                full_duplex = false;
              };
          timeout_ms = None;
          trace = None;
        } );
      ( {|{"op":"simulate_implicit","params":{"family":"hypercube","n":512}}|},
        {
          Wire.id = Json.Null;
          op =
            Wire.Simulate_implicit
              {
                family = "hypercube";
                n = 512;
                items = 32;
                checkpoint_every = 32;
                period = 64;
                seed = 1;
                degree = 2;
                full_duplex = false;
              };
          timeout_ms = None;
          trace = None;
        } );
      ( {|{"op":"certify_faults","params":{"family":"cycle","n":12,"harden":"augment"}}|},
        {
          Wire.id = Json.Null;
          op =
            Wire.Certify_faults
              {
                family = "cycle";
                n = 12;
                k = 1;
                budget = 512;
                seed = 1;
                degree = 2;
                full_duplex = false;
                harden = "augment";
                cap = 0;
              };
          timeout_ms = None;
          trace = None;
        } );
      ( {|{"op":"simulate","params":{"family":"db","dim":3,"degree":2,"full_duplex":false}}|},
        {
          Wire.id = Json.Null;
          op =
            Wire.Simulate
              {
                net = { Wire.family = "db"; dim = 3; degree = 2 };
                full_duplex = false;
              };
          timeout_ms = None;
          trace = None;
        } );
    ]
  in
  List.iter
    (fun (src, expected) ->
      match Json.of_string src with
      | Error e -> Alcotest.failf "golden frame did not parse: %s" e
      | Ok j -> (
          match Wire.parse_request j with
          | Ok req -> check src true (req = expected)
          | Error e -> Alcotest.failf "golden frame rejected: %s" e))
    cases

(* Forward-compatible trace envelope: requests round-trip with and
   without a context, foreign frames may carry the trace fields (or any
   unknown field) without breaking parsing, and the sampled flag only
   appears on the wire when it says something (false). *)
let test_wire_trace_context () =
  let module Trace = Gossip_util.Trace in
  let contexts =
    [
      { Trace.trace_id = String.make 32 'a'; parent_span_id = None; sampled = true };
      {
        Trace.trace_id = String.make 32 'b';
        parent_span_id = Some (String.make 16 'c');
        sampled = true;
      };
      {
        Trace.trace_id = String.make 32 'd';
        parent_span_id = Some (String.make 16 'e');
        sampled = false;
      };
    ]
  in
  List.iter
    (fun tr ->
      let req =
        { Wire.id = Json.Int 1; op = Wire.Ping; timeout_ms = None; trace = Some tr }
      in
      match Wire.parse_request (Wire.request_to_json req) with
      | Ok req' -> check "trace context round trip" true (req = req')
      | Error e -> Alcotest.failf "trace context round trip: %s" e)
    contexts;
  (* the wire stays lean: no "sampled" key unless the verdict is drop *)
  let emitted tr =
    Json.to_string
      (Wire.request_to_json
         { Wire.id = Json.Null; op = Wire.Ping; timeout_ms = None; trace = Some tr })
  in
  let has_sub s sub =
    let ls = String.length s and lu = String.length sub in
    let found = ref false in
    for i = 0 to ls - lu do
      if String.sub s i lu = sub then found := true
    done;
    !found
  in
  check "sampled omitted when true" false
    (has_sub (emitted (List.nth contexts 0)) "sampled");
  check "sampled present when false" true
    (has_sub (emitted (List.nth contexts 2)) "sampled");
  (* golden: a foreign traced frame *)
  let golden =
    {|{"op":"ping","trace_id":"00112233445566778899aabbccddeeff","parent_span_id":"0011223344556677","sampled":false}|}
  in
  (match Wire.parse_request (Result.get_ok (Json.of_string golden)) with
  | Ok { Wire.trace = Some tr; _ } ->
      check "golden trace id" true
        (tr.Trace.trace_id = "00112233445566778899aabbccddeeff");
      check "golden parent" true
        (tr.Trace.parent_span_id = Some "0011223344556677");
      check "golden sampled" false tr.Trace.sampled
  | _ -> Alcotest.fail "golden traced frame rejected");
  (* sampled omitted on the wire means keep *)
  (match
     Wire.parse_request
       (Result.get_ok
          (Json.of_string {|{"op":"ping","trace_id":"ff00000000000000000000000000aaaa"}|}))
   with
  | Ok { Wire.trace = Some tr; _ } -> check "sampled defaults true" true tr.Trace.sampled
  | _ -> Alcotest.fail "traced frame without sampled rejected");
  (* degraded contexts and unknown envelope fields must both fall back
     to "no context", never to bad_request — the regression that would
     break rolling upgrades *)
  let lenient src =
    match Wire.parse_request (Result.get_ok (Json.of_string src)) with
    | Ok { Wire.op = Wire.Ping; trace; _ } -> trace
    | Ok _ -> Alcotest.failf "parsed to the wrong op: %s" src
    | Error e -> Alcotest.failf "frame rejected (%s): %s" e src
  in
  check "empty trace_id ignored" true (lenient {|{"op":"ping","trace_id":""}|} = None);
  check "non-string trace_id ignored" true
    (lenient {|{"op":"ping","trace_id":17}|} = None);
  check "unknown envelope fields ignored" true
    (lenient {|{"op":"ping","shiny_new_field":{"deep":[1,2]},"priority":9}|} = None);
  check "orphan parent_span_id ignored" true
    (lenient {|{"op":"ping","parent_span_id":"0011223344556677"}|} = None)

let test_wire_rejections () =
  let reject src frag =
    let j = Result.get_ok (Json.of_string src) in
    match Wire.parse_request j with
    | Ok _ -> Alcotest.failf "accepted %s" src
    | Error msg ->
        check (Printf.sprintf "reject %s" src) true
          (let found = ref false in
           let fl = String.length frag and ml = String.length msg in
           for i = 0 to ml - fl do
             if String.sub msg i fl = frag then found := true
           done;
           !found)
  in
  reject {|[1,2,3]|} "object";
  reject {|{"params":{}}|} "op";
  reject {|{"op":"frobnicate"}|} "unknown operation";
  reject {|{"op":"bound","params":{"dim":4}}|} "family";
  reject {|{"op":"bound","params":{"family":"moebius","dim":4}}|} "unknown family";
  reject {|{"op":"bound","params":{"family":"cycle","dim":0}}|} "out of range";
  reject {|{"op":"bound","params":{"family":"cycle","dim":"big"}}|} "integer";
  reject {|{"op":"tables","params":{"ss":[2]}}|} "ss";
  reject {|{"op":"tables","params":{"ss":[]}}|} "non-empty";
  reject {|{"op":"simulate_implicit","params":{"family":"path","n":64}}|}
    "unknown implicit family";
  reject {|{"op":"simulate_implicit","params":{"n":64}}|} "family";
  reject {|{"op":"simulate_implicit","params":{"family":"cycle","n":10000000}}|}
    "out of range";
  reject {|{"op":"ping","timeout_ms":-5}|} "timeout_ms";
  reject {|{"op":"sleep"}|} "ms";
  reject {|{"op":"certify","params":{"protocol":"x","family":"cycle","dim":4}}|}
    "exclusive";
  reject {|{"op":"certify_faults","params":{"n":12}}|} "family";
  reject {|{"op":"certify_faults","params":{"family":"path","n":12}}|}
    "unknown implicit family";
  reject {|{"op":"certify_faults","params":{"family":"cycle","n":4}}|}
    "out of range";
  reject {|{"op":"certify_faults","params":{"family":"cycle","n":12,"k":7}}|}
    "out of range";
  reject
    {|{"op":"certify_faults","params":{"family":"cycle","n":12,"harden":"retry"}}|}
    "unknown transform"

let test_wire_response_roundtrip () =
  let ok = Wire.ok_response ~id:(Json.Int 3) (Json.Obj [ ("pong", Json.Bool true) ]) in
  (match Wire.parse_response ok with
  | Ok r ->
      check "ok id" true (r.Wire.resp_id = Json.Int 3);
      check_str "ok version" Core.Version.string r.Wire.resp_version;
      check "ok outcome" true
        (r.Wire.outcome = Ok (Json.Obj [ ("pong", Json.Bool true) ]))
  | Error e -> Alcotest.fail e);
  let err =
    Wire.error_response ~id:Json.Null ~code:Wire.Queue_full ~message:"full"
  in
  (match Wire.parse_response err with
  | Ok r ->
      check "err outcome" true (r.Wire.outcome = Error (Wire.Queue_full, "full"))
  | Error e -> Alcotest.fail e);
  (* every error code survives the string round trip *)
  List.iter
    (fun c ->
      check "code roundtrip" true
        (Wire.error_code_of_string (Wire.error_code_to_string c) = Some c))
    [
      Wire.Bad_request; Wire.Queue_full; Wire.Deadline_exceeded;
      Wire.Oversized_frame; Wire.Shutting_down; Wire.Internal;
    ]

(* The reader as it was before it scanned a buffer-full at a time: one
   [input_char] per byte.  [read_frame] must return the same frames. *)
let char_read_frame ic ~max_bytes =
  let buf = Buffer.create 256 in
  let rec go () =
    match input_char ic with
    | '\n' ->
        let line = Buffer.contents buf in
        let len = String.length line in
        if len > 0 && line.[len - 1] = '\r' then
          Ok (String.sub line 0 (len - 1))
        else Ok line
    | c ->
        if Buffer.length buf >= max_bytes then Error Wire.Oversized
        else begin
          Buffer.add_char buf c;
          go ()
        end
    | exception End_of_file ->
        if Buffer.length buf = 0 then Error Wire.Eof
        else Ok (Buffer.contents buf)
  in
  go ()

(* Every frame of [ic] up to and including the first error; the rest of
   the stream is drained so a pipe writer never blocks. *)
let read_all ?(read = Wire.read_frame) ic ~max_bytes =
  let rec go acc =
    match read ic ~max_bytes with
    | Ok f -> go (Ok f :: acc)
    | Error e -> List.rev (Error e :: acc)
  in
  let frames = go [] in
  ignore (In_channel.input_all ic);
  frames

let frames_of_file ?read s ~max_bytes =
  let path = Filename.temp_file "wiretest" ".txt" in
  Out_channel.with_open_bin path (fun oc -> output_string oc s);
  let r = In_channel.with_open_bin path (read_all ?read ~max_bytes) in
  Sys.remove path;
  r

(* [s] written into a pipe [piece] bytes per write by a second thread,
   so the reader sees it arrive in fragments. *)
let frames_of_pipe ~piece s ~max_bytes =
  let r, w = Unix.pipe ~cloexec:true () in
  let writer =
    Thread.create
      (fun () ->
        let b = Bytes.unsafe_of_string s in
        let off = ref 0 in
        while !off < Bytes.length b do
          let n = min piece (Bytes.length b - !off) in
          off := !off + Unix.write w b !off n;
          Thread.yield ()
        done;
        Unix.close w)
      ()
  in
  let ic = Unix.in_channel_of_descr r in
  let frames = read_all ic ~max_bytes in
  close_in ic;
  Thread.join writer;
  frames

let test_wire_framing () =
  check "plain lines" true
    (frames_of_file "a\nbb\n" ~max_bytes:10 = [ Ok "a"; Ok "bb"; Error Wire.Eof ]);
  check "crlf stripped" true
    (frames_of_file "a\r\n" ~max_bytes:10 = [ Ok "a"; Error Wire.Eof ]);
  check "unterminated final frame" true
    (frames_of_file "tail" ~max_bytes:10 = [ Ok "tail"; Error Wire.Eof ]);
  check "oversized detected" true
    (match frames_of_file "0123456789ABCDEF\n" ~max_bytes:8 with
    | Error Wire.Oversized :: _ -> true
    | _ -> false);
  check "empty line is empty frame" true
    (frames_of_file "\nx\n" ~max_bytes:10 = [ Ok ""; Ok "x"; Error Wire.Eof ]);
  let big n c = String.make n c in
  let show = function
    | Ok f when String.length f > 40 ->
        Printf.sprintf "Ok <%d bytes>" (String.length f)
    | Ok f -> Printf.sprintf "Ok %S" f
    | Error Wire.Eof -> "Eof"
    | Error Wire.Oversized -> "Oversized"
  in
  let expect name expected got =
    check_str name
      (String.concat "; " (List.map show expected))
      (String.concat "; " (List.map show got))
  in
  (* a frame larger than the 64 KiB channel buffer comes back whole *)
  expect "frame > channel buffer"
    [ Ok (big 200_000 'a'); Ok "b"; Error Wire.Eof ]
    (frames_of_file (big 200_000 'a' ^ "\nb\n") ~max_bytes:(1 lsl 20));
  (* the bound counts the bytes before '\n', a trailing '\r' included *)
  List.iter
    (fun m ->
      let name what = Printf.sprintf "max_bytes=%d: %s" m what in
      expect (name "exactly max_bytes")
        [ Ok (big m 'x'); Ok "y"; Error Wire.Eof ]
        (frames_of_file (big m 'x' ^ "\ny\n") ~max_bytes:m);
      expect (name "max_bytes + 1")
        [ Error Wire.Oversized ]
        (frames_of_file (big (m + 1) 'x' ^ "\ny\n") ~max_bytes:m);
      expect (name "exactly max_bytes with \\r")
        [ Ok (big (m - 1) 'x'); Ok "y"; Error Wire.Eof ]
        (frames_of_file (big (m - 1) 'x' ^ "\r\ny\n") ~max_bytes:m);
      expect (name "max_bytes + 1 with \\r")
        [ Error Wire.Oversized ]
        (frames_of_file (big m 'x' ^ "\r\ny\n") ~max_bytes:m);
      expect (name "unterminated, exactly max_bytes")
        [ Ok (big m 'x'); Error Wire.Eof ]
        (frames_of_file (big m 'x') ~max_bytes:m);
      expect (name "unterminated, max_bytes + 1")
        [ Error Wire.Oversized ]
        (frames_of_file (big (m + 1) 'x') ~max_bytes:m))
    [ 10; 65_535; 65_536; 65_537; 150_000 ];
  (* an unterminated final frame spanning several buffer-fulls; its
     '\r' is kept, as it always was *)
  expect "long unterminated final frame"
    [ Ok "head"; Ok (big 300_000 'z' ^ "\r"); Error Wire.Eof ]
    (frames_of_file ("head\n" ^ big 300_000 'z' ^ "\r") ~max_bytes:(1 lsl 20));
  (* the same streams, fed through a pipe a few bytes at a time *)
  let stream =
    String.concat ""
      [ "a\n"; "\n"; "crlf\r\n"; big 70_000 'q'; "\n"; {|{"k":1}|}; "\nend" ]
  in
  let expected =
    [ Ok "a"; Ok ""; Ok "crlf"; Ok (big 70_000 'q'); Ok {|{"k":1}|}; Ok "end";
      Error Wire.Eof ]
  in
  List.iter
    (fun piece ->
      expect
        (Printf.sprintf "pipe, %d-byte pieces" piece)
        expected
        (frames_of_pipe ~piece stream ~max_bytes:(1 lsl 20)))
    [ 3; 4093; 100_000 ];
  expect "pipe, oversized mid-stream"
    [ Ok "a"; Ok ""; Ok "crlf"; Error Wire.Oversized ]
    (frames_of_pipe ~piece:512 stream ~max_bytes:1000)

let prop_wire_framing_matches_char_reader =
  QCheck.Test.make ~count:500 ~name:"read_frame = per-byte reader"
    QCheck.(
      pair (int_range 0 24)
        (string_gen_of_size Gen.(int_range 0 300) (Gen.oneofl [ 'a'; 'b'; '\r'; '\n' ])))
    (fun (max_bytes, s) ->
      frames_of_file s ~max_bytes
      = frames_of_file ~read:char_read_frame s ~max_bytes)

(* The encoded tables reply — 372 floats, the bulk of serving traffic —
   pinned byte for byte: any change to the float printer or the field
   order shows up here. *)
let test_tables_reply_digest () =
  let d = Dispatch.create () in
  match Dispatch.eval d (Wire.Tables { s_max = 8; ss = [ 3; 4; 5; 6; 7; 8 ] }) with
  | Ok j ->
      let s = Json.to_string j in
      check_int "encoded length" 14668 (String.length s);
      check_str "encoded digest" "f1033757c5040d6ff697375f7d83628d"
        (Digest.to_hex (Digest.string s))
  | Error _ -> Alcotest.fail "tables failed"

(* --- dispatch --- *)

let test_dispatch_direct () =
  let d = Dispatch.create () in
  (match Dispatch.eval d Wire.Ping with
  | Ok j -> check "pong" true (Json.member "pong" j = Some (Json.Bool true))
  | Error _ -> Alcotest.fail "ping failed");
  (match Dispatch.eval d (Wire.Tables { s_max = 8; ss = [ 3; 4; 5; 6; 7; 8 ] }) with
  | Ok j ->
      check "tables matches direct library call" true
        (j = Gossip_bounds.Tables.to_json ~s_max:8 ~ss:[ 3; 4; 5; 6; 7; 8 ] ())
  | Error _ -> Alcotest.fail "tables failed");
  (* the oversize gate fires before any construction *)
  (match
     Dispatch.eval d
       (Wire.Bound
          {
            net = { Wire.family = "hypercube"; dim = 60; degree = 2 };
            s = None;
            full_duplex = false;
          })
   with
  | Error (Wire.Bad_request, msg) ->
      check "too-large message" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "oversized network must be rejected");
  (* unparsable inline protocol is a bad request, not an internal error *)
  match
    Dispatch.eval d
      (Wire.Certify { spec = Wire.Inline "not a protocol"; refine = false })
  with
  | Error (Wire.Bad_request, _) -> ()
  | _ -> Alcotest.fail "garbage protocol must be a bad_request"

let test_dispatch_simulate_implicit () =
  let d = Dispatch.create () in
  (match
     Dispatch.eval d
       (Wire.Simulate_implicit
          {
            family = "hypercube";
            n = 64;
            items = 8;
            checkpoint_every = 4;
            period = 64;
            seed = 1;
            degree = 2;
            full_duplex = true;
          })
   with
  | Ok j ->
      check "schema" true
        (Json.member "schema" j = Some (Json.Str "gossip-simulate/1"));
      check "completed" true
        (Json.member "completed" j = Some (Json.Bool true));
      check "n resolved" true (Json.member "n" j = Some (Json.Int 64));
      check "items echoed" true (Json.member "items" j = Some (Json.Int 8));
      check "checkpoints present" true
        (match Json.member "checkpoints" j with
        | Some (Json.List (_ :: _)) -> true
        | _ -> false);
      (* Q(6) full-duplex dimension sweep finishes in exactly dim rounds *)
      check "rounds = dim" true (Json.member "rounds" j = Some (Json.Int 6))
  | Error (_, msg) -> Alcotest.failf "simulate_implicit failed: %s" msg);
  (* the post-resolution gate: degree-16 de Bruijn rounds 131072 up to
     16^5 > 2^18 vertices *)
  match
    Dispatch.eval d
      (Wire.Simulate_implicit
         {
           family = "de-bruijn";
           n = 131072;
           items = 8;
           checkpoint_every = 0;
           period = 64;
           seed = 1;
           degree = 16;
           full_duplex = false;
         })
  with
  | Error (Wire.Bad_request, msg) ->
      check "oversized implicit rejected" true (String.length msg > 0)
  | _ -> Alcotest.fail "oversized implicit network must be rejected"

let test_dispatch_certify_faults () =
  let d = Dispatch.create () in
  let op ~harden =
    Wire.Certify_faults
      {
        family = "cycle";
        n = 12;
        k = 1;
        budget = 512;
        seed = 7;
        degree = 2;
        full_duplex = false;
        harden;
        cap = 0;
      }
  in
  (match Dispatch.eval d (op ~harden:"augment") with
  | Ok j -> (
      (match Json.member "certificate" j with
      | Some cert ->
          check "certificate schema" true
            (Json.member "schema" cert = Some (Json.Str "gossip-fault-cert/1"));
          check "augmented cycle certifies over the wire" true
            (Json.member "certified" cert = Some (Json.Bool true))
      | None -> Alcotest.fail "result lacks a certificate");
      match Json.member "hardening" j with
      | Some rep ->
          check "hardening report on the wire" true
            (Json.member "transform" rep = Some (Json.Str "augment"))
      | None -> Alcotest.fail "result lacks the hardening report")
  | Error (_, msg) -> Alcotest.failf "certify_faults failed: %s" msg);
  (* identical request: served from the context's fault_cert shelf *)
  let hits_before =
    match Dispatch.eval d Wire.Stats with
    | Ok s ->
        Option.value ~default:(-1)
          (Option.bind (Json.member "cache" s) (fun c ->
               Option.bind (Json.member "hits" c) Json.to_int_opt))
    | Error _ -> -1
  in
  (match Dispatch.eval d (op ~harden:"augment") with
  | Ok _ -> ()
  | Error (_, msg) -> Alcotest.failf "repeat certify_faults failed: %s" msg);
  let hits_after =
    match Dispatch.eval d Wire.Stats with
    | Ok s ->
        Option.value ~default:(-1)
          (Option.bind (Json.member "cache" s) (fun c ->
               Option.bind (Json.member "hits" c) Json.to_int_opt))
    | Error _ -> -1
  in
  check "repeat request is a cache hit" true (hits_after > hits_before);
  (* the unhardened scheme yields an uncertified verdict, not an error *)
  match Dispatch.eval d (op ~harden:"none") with
  | Ok j -> (
      match Json.member "certificate" j with
      | Some cert ->
          check "unhardened cycle fails over the wire" true
            (Json.member "certified" cert = Some (Json.Bool false));
          check "counterexample on the wire" true
            (match Json.member "counterexample" cert with
            | Some (Json.Obj _) -> true
            | _ -> false)
      | None -> Alcotest.fail "result lacks a certificate")
  | Error (_, msg) -> Alcotest.failf "unhardened certify_faults failed: %s" msg

(* --- metrics: golden JSON shapes on a hand-cranked clock --- *)

let test_metrics_json_shape () =
  let t_ref = ref 1_000_000_000L in
  let m =
    Metrics.create ~clock:(fun () -> !t_ref) ~workers:2 ~queue_capacity:8 ()
  in
  Metrics.conn_opened m;
  Metrics.set_queue_depth m 3;
  Metrics.observe m ~op:"ping" ~ok:true ~queue_wait_s:0.0001 ~service_s:0.001;
  Metrics.observe m ~op:"ping" ~ok:true ~queue_wait_s:0.0002 ~service_s:0.002;
  Metrics.observe m ~op:"bound" ~ok:false ~queue_wait_s:0.0 ~service_s:0.01;
  let j = Metrics.metrics_json m in
  check "schema" true (dig_str [ "schema" ] j = Some "gossip-metrics/1");
  check "version" true
    (dig_str [ "version" ] j = Some Core.Version.string);
  check "gauge queue_depth" true (dig_int [ "gauges"; "queue_depth" ] j = Some 3);
  check "gauge capacity" true (dig_int [ "gauges"; "queue_capacity" ] j = Some 8);
  check "gauge workers" true (dig_int [ "gauges"; "workers" ] j = Some 2);
  check "gauge connections" true (dig_int [ "gauges"; "connections" ] j = Some 1);
  check "totals ping" true
    (dig_int [ "totals"; "ops"; "ping"; "count" ] j = Some 2);
  check "totals ping errors" true
    (dig_int [ "totals"; "ops"; "ping"; "errors" ] j = Some 0);
  check "totals bound errors" true
    (dig_int [ "totals"; "ops"; "bound"; "errors" ] j = Some 1);
  List.iter
    (fun h ->
      check (h ^ " window counts ping") true
        (dig_int [ "windows"; h; "ops"; "ping"; "count" ] j = Some 2);
      check (h ^ " window has quantiles") true
        (match dig [ "windows"; h; "ops"; "ping"; "latency_ms"; "p95" ] j with
        | Some (Json.Float v) -> v > 0.0
        | _ -> false);
      check (h ^ " window has queue_wait summary") true
        (dig [ "windows"; h; "queue_wait_ms"; "p50" ] j <> None))
    [ "10s"; "1m"; "5m" ];
  (* six minutes later the 5m window has aged everything out; the
     cumulative totals have not *)
  t_ref := Int64.add !t_ref 360_000_000_000L;
  let j' = Metrics.metrics_json m in
  check "windows aged out" true
    (dig [ "windows"; "5m"; "ops"; "ping" ] j' = None);
  check "totals survive" true
    (dig_int [ "totals"; "ops"; "ping"; "count" ] j' = Some 2)

(* Metrics -> traces linkage: each op advertises the trace id of its
   worst-latency sampled request, and the exemplar ages out with the
   longest window rather than advertising a stale id forever. *)
let test_metrics_exemplar () =
  let t_ref = ref 1_000_000_000L in
  let m =
    Metrics.create ~clock:(fun () -> !t_ref) ~workers:1 ~queue_capacity:4 ()
  in
  (* untraced requests leave no exemplar *)
  Metrics.observe m ~op:"ping" ~ok:true ~queue_wait_s:0.0 ~service_s:0.001;
  check "no exemplar without a trace" true
    (dig [ "totals"; "ops"; "ping"; "exemplar" ] (Metrics.metrics_json m)
    = None);
  Metrics.observe m ~trace_id:"t-slow" ~op:"ping" ~ok:true ~queue_wait_s:0.001
    ~service_s:0.05;
  Metrics.observe m ~trace_id:"t-fast" ~op:"ping" ~ok:true ~queue_wait_s:0.0
    ~service_s:0.001;
  let j = Metrics.metrics_json m in
  check "exemplar is the worst latency" true
    (dig_str [ "totals"; "ops"; "ping"; "exemplar"; "trace_id" ] j
    = Some "t-slow");
  check "exemplar carries the latency" true
    (match dig [ "totals"; "ops"; "ping"; "exemplar"; "latency_ms" ] j with
    | Some (Json.Float v) -> Float.abs (v -. 51.0) < 1e-6
    | _ -> false);
  (* six minutes later the horizon has passed: a fresh traced request
     replaces the stale champion even though it is faster *)
  t_ref := Int64.add !t_ref 360_000_000_000L;
  check "stale exemplar not served" true
    (dig [ "totals"; "ops"; "ping"; "exemplar" ] (Metrics.metrics_json m)
    = None);
  Metrics.observe m ~trace_id:"t-new" ~op:"ping" ~ok:true ~queue_wait_s:0.0
    ~service_s:0.002;
  check "stale champion dethroned" true
    (dig_str
       [ "totals"; "ops"; "ping"; "exemplar"; "trace_id" ]
       (Metrics.metrics_json m)
    = Some "t-new")

let test_health_json_transitions () =
  let t_ref = ref 1_000_000_000L in
  let m =
    Metrics.create
      ~clock:(fun () -> !t_ref)
      ~wedge_ms:100 ~workers:2 ~queue_capacity:4 ()
  in
  let status () = dig_str [ "status" ] (Metrics.health_json m) in
  check "schema" true
    (dig_str [ "schema" ] (Metrics.health_json m) = Some "gossip-health/1");
  check "fresh server is ok" true (status () = Some "ok");
  check "healthy agrees" true (Metrics.healthy m);
  (* saturated queue degrades … *)
  Metrics.set_queue_depth m 4;
  check "saturated queue degrades" true (status () = Some "degraded");
  check "saturation reported" true
    (dig [ "queue"; "saturated" ] (Metrics.health_json m) = Some (Json.Bool true));
  Metrics.set_queue_depth m 1;
  check "drained queue recovers" true (status () = Some "ok");
  (* … and so does a worker stuck past the wedge threshold *)
  Metrics.worker_busy m 0;
  check "busy under threshold is ok" true (status () = Some "ok");
  t_ref := Int64.add !t_ref 200_000_000L;
  check "wedged worker degrades" true (status () = Some "degraded");
  check "wedged count" true
    (dig_int [ "wedged_workers" ] (Metrics.health_json m) = Some 1);
  Metrics.worker_idle m 0;
  check "idle worker recovers" true (status () = Some "ok")

let snapshot_with ~heap_mb ~minor_words =
  {
    Gossip_util.Resource.minor_words;
    promoted_words = 0.0;
    major_words = 0.0;
    minor_collections = 1;
    major_collections = 0;
    compactions = 0;
    forced_major_collections = 0;
    heap_words = int_of_float (heap_mb *. 1024.0 *. 1024.0 /. 8.0);
    heap_mb;
    rss_mb = Some (heap_mb +. 4.0);
  }

let test_metrics_resource_and_heap_health () =
  let t_ref = ref 1_000_000_000L in
  let m =
    Metrics.create
      ~clock:(fun () -> !t_ref)
      ~max_heap_mb:100.0 ~workers:2 ~queue_capacity:8 ()
  in
  let status () = dig_str [ "status" ] (Metrics.health_json m) in
  (* before any sample: resource is null, heap check cannot fire *)
  check "no sample yet" true
    (dig [ "resource" ] (Metrics.metrics_json m) = Some Json.Null);
  check "no sample is healthy" true (status () = Some "ok");
  (* a modest heap is healthy and visible in metrics and health *)
  Metrics.note_resource m (snapshot_with ~heap_mb:40.0 ~minor_words:1e6);
  check "sample stored" true (Metrics.last_resource m <> None);
  check "heap in metrics" true
    (dig [ "resource"; "heap_mb" ] (Metrics.metrics_json m)
    = Some (Json.Float 40.0));
  check "heap in health" true
    (dig [ "heap_mb" ] (Metrics.health_json m) = Some (Json.Float 40.0));
  check "modest heap is ok" true (status () = Some "ok");
  (* allocation rate appears once two samples straddle a clock delta *)
  t_ref := Int64.add !t_ref 2_000_000_000L;
  Metrics.note_resource m (snapshot_with ~heap_mb:50.0 ~minor_words:5e6);
  (match dig [ "resource"; "alloc_words_per_s" ] (Metrics.metrics_json m) with
  | Some (Json.Float r) ->
      check "alloc rate ~2e6 w/s" true (abs_float (r -. 2e6) < 1e3)
  | _ -> Alcotest.fail "alloc_words_per_s missing after two samples");
  (* a runaway heap degrades health with an explicit reason … *)
  Metrics.note_resource m (snapshot_with ~heap_mb:150.0 ~minor_words:6e6);
  check "runaway heap degrades" true (status () = Some "degraded");
  check "healthy agrees" false (Metrics.healthy m);
  (match dig [ "reasons" ] (Metrics.health_json m) with
  | Some (Json.List reasons) ->
      check "a reason mentions the heap" true
        (List.exists
           (function
             | Json.Str s ->
                 String.length s >= 4 && String.sub s 0 4 = "heap"
             | _ -> false)
           reasons)
  | _ -> Alcotest.fail "degraded health carries no reasons");
  (* … and recovers when the collector brings it back down *)
  Metrics.note_resource m (snapshot_with ~heap_mb:60.0 ~minor_words:7e6);
  check "shrunk heap recovers" true (status () = Some "ok")

(* --- offline trace analysis on a hand-built trace --- *)

let test_trace_alloc_aggregation () =
  (* a fully instrumented trace aggregates; a mixed one is flagged *)
  let full =
    Trace_analysis.of_lines
      [
        {|{"ev":"span_begin","name":"a.hot","ts":"t","mono_ns":1000,"dom":0}|};
        {|{"ev":"span_end","name":"a.hot","ts":"t","mono_ns":2000,"dom":0,"dur_ns":1000,"alloc_words":5000}|};
        {|{"ev":"span_begin","name":"a.hot","ts":"t","mono_ns":3000,"dom":0}|};
        {|{"ev":"span_end","name":"a.hot","ts":"t","mono_ns":4000,"dom":0,"dur_ns":1000,"alloc_words":3000}|};
        {|{"ev":"span_begin","name":"b.cold","ts":"t","mono_ns":5000,"dom":0}|};
        {|{"ev":"span_end","name":"b.cold","ts":"t","mono_ns":6000,"dom":0,"dur_ns":1000,"alloc_words":10}|};
      ]
  in
  check "instrumented trace has no problems" true
    (Trace_analysis.problems full = []);
  let j = Trace_analysis.to_json full in
  check "alloc instrumented" true
    (dig [ "alloc"; "instrumented" ] j = Some (Json.Bool true));
  check "alloc total words" true
    (dig [ "alloc"; "total_words" ] j = Some (Json.Float 8010.0));
  (match dig [ "alloc"; "top" ] j with
  | Some (Json.List (first :: _)) ->
      check "hottest allocator first" true
        (dig_str [ "name" ] first = Some "a.hot");
      check "words per call" true
        (dig [ "words_per_call" ] first = Some (Json.Float 4000.0))
  | _ -> Alcotest.fail "alloc.top missing or empty");
  let mixed =
    Trace_analysis.of_lines
      [
        {|{"ev":"span_begin","name":"a.hot","ts":"t","mono_ns":1000,"dom":0}|};
        {|{"ev":"span_end","name":"a.hot","ts":"t","mono_ns":2000,"dom":0,"dur_ns":1000,"alloc_words":5000}|};
        {|{"ev":"span_begin","name":"a.hot","ts":"t","mono_ns":3000,"dom":0}|};
        {|{"ev":"span_end","name":"a.hot","ts":"t","mono_ns":4000,"dom":0,"dur_ns":1000}|};
      ]
  in
  check "mixed trace is a problem" true
    (List.exists
       (fun p ->
         String.length p > 0
         &&
         let has_sub s sub =
           let ls = String.length s and lu = String.length sub in
           let found = ref false in
           for i = 0 to ls - lu do
             if String.sub s i lu = sub then found := true
           done;
           !found
         in
         has_sub p "alloc_words")
       (Trace_analysis.problems mixed));
  let legacy =
    Trace_analysis.of_lines
      [
        {|{"ev":"span_begin","name":"a.hot","ts":"t","mono_ns":1000,"dom":0}|};
        {|{"ev":"span_end","name":"a.hot","ts":"t","mono_ns":2000,"dom":0,"dur_ns":1000}|};
      ]
  in
  check "pre-alloc traces are not flagged" true
    (Trace_analysis.problems legacy = []);
  check "legacy trace not instrumented" true
    (dig [ "alloc"; "instrumented" ] (Trace_analysis.to_json legacy)
    = Some (Json.Bool false))

let test_trace_analysis () =
  let lines =
    [
      (* request 1: admitted, one child span, a cache hit *)
      {|{"ev":"point","name":"serve.admit","ts":"t","mono_ns":1000,"dom":0,"req_id":1,"op":"bound","conn":1}|};
      {|{"ev":"span_begin","name":"serve.request","ts":"t","mono_ns":2000,"dom":1,"req_id":1,"op":"bound","conn":1,"queue_wait_ns":1000}|};
      {|{"ev":"span_begin","name":"dispatch.bound","ts":"t","mono_ns":2100,"dom":1,"req_id":1}|};
      {|{"ev":"point","name":"context.lookup","ts":"t","mono_ns":2200,"dom":1,"req_id":1,"outcome":"hit"}|};
      {|{"ev":"span_end","name":"dispatch.bound","ts":"t","mono_ns":2700,"dom":1,"dur_ns":600,"req_id":1}|};
      {|{"ev":"span_end","name":"serve.request","ts":"t","mono_ns":3000,"dom":1,"dur_ns":1000,"req_id":1,"op":"bound","conn":1,"queue_wait_ns":1000}|};
      (* request 2: admitted but no spans ever tagged with it *)
      {|{"ev":"point","name":"serve.admit","ts":"t","mono_ns":4000,"dom":0,"req_id":2,"op":"ping","conn":1}|};
      (* request 3: rejected at admission *)
      {|{"ev":"point","name":"serve.reject","ts":"t","mono_ns":5000,"dom":0,"req_id":3,"op":"ping","conn":2,"code":"queue_full"}|};
      (* an unbalanced span on another domain *)
      {|{"ev":"span_begin","name":"wedged.op","ts":"t","mono_ns":6000,"dom":2}|};
      "this line is not JSON";
    ]
  in
  let t = Trace_analysis.of_lines lines in
  let j = Trace_analysis.to_json t in
  check "report schema" true
    (dig_str [ "schema" ] j = Some "gossip-trace-report/2");
  check "parse errors counted" true
    (dig_int [ "lines"; "parse_errors" ] j = Some 1);
  check "requests seen" true (dig_int [ "requests"; "seen" ] j = Some 3);
  (* "complete" covers answered AND rejected requests: both tell the
     whole story of their request id *)
  check "complete" true (dig_int [ "requests"; "complete" ] j = Some 2);
  check "rejected" true (dig_int [ "requests"; "rejected" ] j = Some 1);
  check "zero-span" true (dig_int [ "requests"; "zero_span" ] j = Some 1);
  (* request 1's waterfall: the child span sits 100 ns after the
     request span began *)
  (match dig [ "slowest" ] j with
  | Some (Json.List (first :: _)) ->
      check "slowest is req 1" true (dig_str [ "req_id" ] first = Some "1");
      check "queue wait threaded" true
        (match dig [ "queue_wait_ms" ] first with
        | Some (Json.Float v) -> Float.abs (v -. 0.001) < 1e-12
        | _ -> false);
      check "cache hit counted" true (dig_int [ "cache_hits" ] first = Some 1);
      (match dig [ "waterfall" ] first with
      | Some (Json.List [ span ]) ->
          check "child span name" true
            (dig_str [ "span" ] span = Some "dispatch.bound");
          check "child offset from request start" true
            (match dig [ "offset_ms" ] span with
            | Some (Json.Float v) -> Float.abs (v -. 1e-4) < 1e-12
            | _ -> false)
      | _ -> Alcotest.fail "expected one waterfall entry")
  | _ -> Alcotest.fail "expected a non-empty slowest list");
  (* problems: the zero-span request and the unbalanced span *)
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let problems = Trace_analysis.problems t in
  check "zero-span flagged" true
    (List.exists (fun p -> contains p "produced no serve.request span") problems);
  check "unbalanced flagged" true
    (List.exists (fun p -> contains p "unbalanced span") problems);
  (* a clean trace has none *)
  let clean =
    Trace_analysis.of_lines
      [
        {|{"ev":"point","name":"serve.admit","ts":"t","mono_ns":1,"dom":0,"req_id":1,"op":"ping","conn":1}|};
        {|{"ev":"span_begin","name":"serve.request","ts":"t","mono_ns":2,"dom":1,"req_id":1,"op":"ping","conn":1}|};
        {|{"ev":"span_end","name":"serve.request","ts":"t","mono_ns":9,"dom":1,"dur_ns":7,"req_id":1,"op":"ping","conn":1,"queue_wait_ns":1}|};
      ]
  in
  check "clean trace has no problems" true (Trace_analysis.problems clean = [])

(* --- end-to-end --- *)

let fresh_socket_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gserve-%d-%d.sock" (Unix.getpid ()) !counter)

let with_server ?dispatch ?(workers = 2) ?(queue_capacity = 16)
    ?(max_frame_bytes = Wire.default_max_frame_bytes) ?access_log
    ?(chaos = None) f =
  let path = fresh_socket_path () in
  let listen = Server.Unix_socket path in
  let config =
    {
      (Server.default_config ~listen) with
      Server.workers;
      queue_capacity;
      max_frame_bytes;
      access_log;
      chaos;
    }
  in
  let server = Server.create ?dispatch config in
  Server.start server;
  Fun.protect
    ~finally:(fun () -> Server.shutdown server)
    (fun () -> f server listen)

let expect_ok = function
  | Ok { Wire.outcome = Ok result; _ } -> result
  | Ok { Wire.outcome = Error (code, msg); _ } ->
      Alcotest.failf "server error %s: %s" (Wire.error_code_to_string code) msg
  | Error e -> Alcotest.failf "transport error: %s" e

(* The distributed stitch on a hand-built two-node fleet trace: the
   router's clock is the reference and the shard's monotonic clock runs
   exactly 1 ms behind, so every derived number is checkable by hand.

     router r1:  serve.request SR [0 .. 10000]ns
                   router.forward H (parent SR) [1000 .. 9000]
     shard  s1:  serve.request SS (parent H) [2000 .. 8000] router time,
                   i.e. [-998000 .. -992000] on its own clock
                   serve.eval (parent SS) [3000 .. 7000] router time

   Bracketing the shard request inside the hop yields the +1 ms offset;
   hop overhead is 8000 - 6000 = 2000 ns. *)
let test_trace_stitch () =
  let lines =
    [
      {|{"ev":"span_begin","name":"serve.request","ts":100.0,"mono_ns":0,"dom":1,"node":"r1","req_id":"r1-r1","op":"tables","conn":"r1-c1","trace_id":"TID","span_id":"aaaaaaaaaaaaaaaa"}|};
      {|{"ev":"span_begin","name":"router.forward","ts":100.0,"mono_ns":1000,"dom":1,"node":"r1","trace_id":"TID","span_id":"bbbbbbbbbbbbbbbb","parent_span_id":"aaaaaaaaaaaaaaaa"}|};
      {|{"ev":"span_begin","name":"serve.request","ts":100.0,"mono_ns":-998000,"dom":0,"node":"s1","req_id":"s1-r1","op":"tables","conn":"s1-c1","trace_id":"TID","span_id":"cccccccccccccccc","parent_span_id":"bbbbbbbbbbbbbbbb"}|};
      {|{"ev":"span_begin","name":"serve.eval","ts":100.0,"mono_ns":-997000,"dom":0,"node":"s1","trace_id":"TID","parent_span_id":"cccccccccccccccc"}|};
      {|{"ev":"span_end","name":"serve.eval","ts":100.0,"mono_ns":-993000,"dur_ns":4000,"dom":0,"node":"s1","trace_id":"TID","parent_span_id":"cccccccccccccccc"}|};
      {|{"ev":"span_end","name":"serve.request","ts":100.0,"mono_ns":-992000,"dur_ns":6000,"dom":0,"node":"s1","req_id":"s1-r1","op":"tables","conn":"s1-c1","queue_wait_ns":100,"trace_id":"TID","span_id":"cccccccccccccccc","parent_span_id":"bbbbbbbbbbbbbbbb"}|};
      {|{"ev":"span_end","name":"router.forward","ts":100.0,"mono_ns":9000,"dur_ns":8000,"dom":1,"node":"r1","trace_id":"TID","span_id":"bbbbbbbbbbbbbbbb","parent_span_id":"aaaaaaaaaaaaaaaa"}|};
      {|{"ev":"span_end","name":"serve.request","ts":100.0,"mono_ns":10000,"dur_ns":10000,"dom":1,"node":"r1","req_id":"r1-r1","op":"tables","conn":"r1-c1","queue_wait_ns":200,"trace_id":"TID","span_id":"aaaaaaaaaaaaaaaa"}|};
    ]
  in
  let t = Trace_analysis.of_lines lines in
  check "stitched trace is sound" true (Trace_analysis.problems t = []);
  check "full linkage" true (Trace_analysis.linkage_coverage t = 1.0);
  let j = Trace_analysis.to_json t in
  check "graph spans" true (dig_int [ "tracing"; "spans" ] j = Some 4);
  check "one trace" true (dig_int [ "tracing"; "traces" ] j = Some 1);
  check "all parents resolve" true
    (dig_int [ "tracing"; "linked" ] j = Some 3
    && dig_int [ "tracing"; "orphans" ] j = Some 0);
  check "no orphan hops" true
    (dig_int [ "tracing"; "orphan_router_hops" ] j = Some 0);
  (* the recovered clock offset: shard readings + 1 ms = router readings *)
  (match dig [ "tracing"; "clock_offsets" ] j with
  | Some (Json.List [ row ]) ->
      check "offset edge r1 -> s1" true
        (dig_str [ "parent_node" ] row = Some "r1"
        && dig_str [ "child_node" ] row = Some "s1");
      check "offset is +1 ms" true
        (match dig [ "offset_ms" ] row with
        | Some (Json.Float v) -> Float.abs (v -. 1.0) < 1e-9
        | _ -> false);
      check "one bracketing pair" true (dig_int [ "pairs" ] row = Some 1)
  | _ -> Alcotest.fail "expected exactly one clock-offset edge");
  (* hop overhead: 8000 ns forward minus 6000 ns downstream request *)
  check "one stitched hop" true
    (dig_int [ "tracing"; "hops"; "count" ] j = Some 1);
  check "hop overhead 0.002 ms" true
    (match dig [ "tracing"; "hops"; "overhead_ms"; "max" ] j with
    | Some (Json.Float v) -> Float.abs (v -. 0.002) < 1e-9
    | _ -> false);
  (* the cross-node waterfall, aligned onto the router's clock *)
  (match dig [ "tracing"; "slowest" ] j with
  | Some (Json.List [ tr ]) ->
      check "trace id" true (dig_str [ "trace_id" ] tr = Some "TID");
      check "root is the router request" true
        (dig_str [ "root_node" ] tr = Some "r1"
        && dig_str [ "root_span" ] tr = Some "serve.request");
      check "total is the root duration" true
        (match dig [ "total_ms" ] tr with
        | Some (Json.Float v) -> Float.abs (v -. 0.01) < 1e-9
        | _ -> false);
      (match dig [ "waterfall" ] tr with
      | Some (Json.List rows) ->
          let expect =
            [
              ("r1", "serve.request", 0.0);
              ("r1", "router.forward", 0.001);
              ("s1", "serve.request", 0.002);
              ("s1", "serve.eval", 0.003);
            ]
          in
          check "four spans in order" true (List.length rows = 4);
          List.iter2
            (fun row (node, span, off) ->
              check (Printf.sprintf "waterfall row %s/%s" node span) true
                (dig_str [ "node" ] row = Some node
                && dig_str [ "span" ] row = Some span
                &&
                match dig [ "offset_ms" ] row with
                | Some (Json.Float v) -> Float.abs (v -. off) < 1e-9
                | _ -> false);
              (* monotonic alignment covered both nodes: no wall-clock
                 fallback marker anywhere *)
              check "aligned on monotonic clocks" true
                (dig [ "clock" ] row = None))
            rows expect
      | _ -> Alcotest.fail "expected a waterfall list")
  | _ -> Alcotest.fail "expected exactly one stitched trace");
  (* a hop whose parent was never recorded arms both stitch gates *)
  let orphan =
    Trace_analysis.of_lines
      [
        {|{"ev":"span_begin","name":"router.forward","ts":1.0,"mono_ns":0,"dom":0,"node":"r1","trace_id":"T2","span_id":"eeeeeeeeeeeeeeee","parent_span_id":"ffffffffffffffff"}|};
        {|{"ev":"span_end","name":"router.forward","ts":1.0,"mono_ns":500,"dur_ns":500,"dom":0,"node":"r1","trace_id":"T2","span_id":"eeeeeeeeeeeeeeee","parent_span_id":"ffffffffffffffff"}|};
      ]
  in
  check "orphan linkage is zero" true
    (Trace_analysis.linkage_coverage orphan = 0.0);
  let contains hay needle =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let ps = Trace_analysis.problems orphan in
  check "low linkage flagged" true
    (List.exists (fun p -> contains p "trace linkage") ps);
  check "orphan hop flagged" true
    (List.exists (fun p -> contains p "orphan router.forward") ps)

let test_e2e_basic_ops () =
  with_server (fun server listen ->
      let c = Client.connect_retry listen in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let pong = expect_ok (Client.call c ~id:(Json.Int 1) Wire.Ping) in
          check "pong" true (Json.member "pong" pong = Some (Json.Bool true));
          let v = expect_ok (Client.call c Wire.Version) in
          check "version op" true
            (Json.member "version" v = Some (Json.Str Core.Version.string));
          (* tables over the wire = the direct library call *)
          let t =
            expect_ok
              (Client.call c (Wire.Tables { s_max = 8; ss = [ 3; 4; 5; 6; 7; 8 ] }))
          in
          check "tables = direct" true
            (t = Gossip_bounds.Tables.to_json ~s_max:8 ~ss:[ 3; 4; 5; 6; 7; 8 ] ());
          (* bound over the wire = the direct oracle *)
          let g = Gossip_topology.Families.hypercube 4 in
          let direct =
            Gossip_bounds.Oracle.lower_bounds g
              ~mode:Gossip_protocol.Protocol.Half_duplex ~s:(Some 4)
          in
          let b =
            expect_ok
              (Client.call c
                 (Wire.Bound
                    {
                      net = { Wire.family = "hypercube"; dim = 4; degree = 2 };
                      s = Some 4;
                      full_duplex = false;
                    }))
          in
          check "bound sound = direct" true
            (Json.member "sound" b = Some (Json.Int direct.Gossip_bounds.Oracle.sound));
          check "bound diameter = direct" true
            (Json.member "diameter" b
            = Some (Json.Int direct.Gossip_bounds.Oracle.diameter));
          (* the repeat is a cache hit *)
          let hits () =
            (Core.Context.stats (Dispatch.context (Server.dispatch server)))
              .Core.Context.hits
          in
          let stats0 = hits () in
          let _again =
            expect_ok
              (Client.call c
                 (Wire.Bound
                    {
                      net = { Wire.family = "hypercube"; dim = 4; degree = 2 };
                      s = Some 4;
                      full_duplex = false;
                    }))
          in
          check "repeat query hits the cache" true (hits () > stats0)))

let test_e2e_simulate_matches_direct () =
  with_server (fun _server listen ->
      let c = Client.connect_retry listen in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let result =
            expect_ok
              (Client.call c
                 (Wire.Simulate
                    {
                      net = { Wire.family = "hypercube"; dim = 3; degree = 2 };
                      full_duplex = false;
                    }))
          in
          let g = Gossip_topology.Families.hypercube 3 in
          let sys = Gossip_protocol.Builders.edge_coloring_half_duplex g in
          let direct = Core.Analysis.certify_protocol sys in
          let run = Gossip_simulate.Engine.gossip_run sys in
          check "simulate = direct library call" true
            (result
            = Core.Analysis.protocol_report_to_json
                ~coverage:run.Gossip_simulate.Engine.curve direct)))

let test_e2e_malformed_frame_connection_survives () =
  with_server (fun _server listen ->
      let c = Client.connect_retry listen in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.send_line c "this is not json";
          (match Client.recv c with
          | Ok { Wire.outcome = Error (Wire.Bad_request, _); _ } -> ()
          | _ -> Alcotest.fail "expected bad_request");
          (* unknown op: id still echoed *)
          Client.send_line c {|{"id":42,"op":"frobnicate"}|};
          (match Client.recv c with
          | Ok { Wire.resp_id = Json.Int 42; outcome = Error (Wire.Bad_request, _); _ } ->
              ()
          | _ -> Alcotest.fail "expected bad_request with echoed id");
          (* the connection survived both *)
          let pong = expect_ok (Client.call c Wire.Ping) in
          check "still alive" true
            (Json.member "pong" pong = Some (Json.Bool true))))

let test_e2e_oversized_frame_closes_connection () =
  with_server ~max_frame_bytes:128 (fun _server listen ->
      let c = Client.connect_retry listen in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          Client.send_line c (String.make 300 'x');
          (match Client.recv c with
          | Ok { Wire.outcome = Error (Wire.Oversized_frame, _); _ } -> ()
          | other ->
              Alcotest.failf "expected oversized_frame, got %s"
                (match other with
                | Ok _ -> "another reply"
                | Error e -> "transport: " ^ e));
          (* the stream is unframed from here: server closes *)
          match Client.recv c with
          | Error _ -> ()
          | Ok _ -> Alcotest.fail "connection should be closed"))

let test_e2e_deadline_exceeded () =
  with_server ~workers:1 (fun _server listen ->
      let a = Client.connect_retry listen in
      let b = Client.connect_retry listen in
      Fun.protect
        ~finally:(fun () ->
          Client.close a;
          Client.close b)
        (fun () ->
          (* occupy the only worker … *)
          Client.send_line a {|{"id":"slow","op":"sleep","params":{"ms":400}}|};
          Thread.delay 0.1;
          (* … so this deadline has long expired when a worker frees up *)
          match Client.call b ~id:(Json.Int 9) ~timeout_ms:1 Wire.Ping with
          | Ok { Wire.resp_id = Json.Int 9; outcome = Error (Wire.Deadline_exceeded, _); _ } ->
              (* the slow request itself still completed *)
              (match Client.recv a with
              | Ok { Wire.resp_id = Json.Str "slow"; outcome = Ok _; _ } -> ()
              | _ -> Alcotest.fail "sleep reply lost")
          | other ->
              Alcotest.failf "expected deadline_exceeded, got %s"
                (match other with
                | Ok { Wire.outcome = Ok _; _ } -> "success"
                | Ok { Wire.outcome = Error (c, _); _ } ->
                    Wire.error_code_to_string c
                | Error e -> "transport: " ^ e)))

let test_e2e_queue_full () =
  with_server ~workers:1 ~queue_capacity:1 (fun _server listen ->
      let c = Client.connect_retry listen in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* worker takes the first sleep; the second fills the queue *)
          Client.send_line c {|{"id":1,"op":"sleep","params":{"ms":400}}|};
          Thread.delay 0.1;
          Client.send_line c {|{"id":2,"op":"sleep","params":{"ms":10}}|};
          Thread.delay 0.05;
          Client.send_line c {|{"id":3,"op":"ping"}|};
          (* the rejection is written by the reader thread immediately,
             out of order w.r.t. the queued work *)
          match Client.recv c with
          | Ok { Wire.resp_id = Json.Int 3; outcome = Error (Wire.Queue_full, _); _ } ->
              (match Client.recv c with
              | Ok { Wire.resp_id = Json.Int 1; outcome = Ok _; _ } -> (
                  match Client.recv c with
                  | Ok { Wire.resp_id = Json.Int 2; outcome = Ok _; _ } -> ()
                  | _ -> Alcotest.fail "queued sleep reply lost")
              | _ -> Alcotest.fail "running sleep reply lost")
          | other ->
              Alcotest.failf "expected queue_full for id 3, got %s"
                (match other with
                | Ok { Wire.outcome = Ok _; _ } -> "a success"
                | Ok { Wire.outcome = Error (code, _); _ } ->
                    Wire.error_code_to_string code
                | Error e -> "transport: " ^ e)))

let test_e2e_concurrent_clients () =
  with_server ~workers:3 ~queue_capacity:64 (fun _server listen ->
      let clients = 4 and per_client = 20 in
      let failures = ref 0 in
      let mu = Mutex.create () in
      let ops i =
        match i mod 3 with
        | 0 -> Wire.Ping
        | 1 -> Wire.Tables { s_max = 8; ss = [ 3; 4; 5; 6; 7; 8 ] }
        | _ ->
            Wire.Bound
              {
                net = { Wire.family = "cycle"; dim = 16; degree = 2 };
                s = Some 4;
                full_duplex = false;
              }
      in
      let expected_tables =
        Gossip_bounds.Tables.to_json ~s_max:8 ~ss:[ 3; 4; 5; 6; 7; 8 ] ()
      in
      let worker cidx () =
        let c = Client.connect_retry listen in
        for i = 0 to per_client - 1 do
          let id = Json.Int ((cidx * 1000) + i) in
          match Client.call c ~id (ops i) with
          | Ok { Wire.resp_id; outcome = Ok result; _ } ->
              let good =
                resp_id = id
                && (i mod 3 <> 1 || result = expected_tables)
              in
              if not good then begin
                Mutex.lock mu;
                incr failures;
                Mutex.unlock mu
              end
          | _ ->
              Mutex.lock mu;
              incr failures;
              Mutex.unlock mu
        done;
        Client.close c
      in
      let ts = List.init clients (fun c -> Thread.create (worker c) ()) in
      List.iter Thread.join ts;
      check_int "no dropped or garbled replies" 0 !failures)

let test_e2e_metrics_ops () =
  (* span aggregates only accumulate while instrumentation is on *)
  let was = Gossip_util.Instrument.enabled () in
  Gossip_util.Instrument.set_enabled true;
  Fun.protect ~finally:(fun () -> Gossip_util.Instrument.set_enabled was)
  @@ fun () ->
  with_server (fun _server listen ->
      let c = Client.connect_retry listen in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* generate some traffic, then read the counters back *)
          for i = 1 to 5 do
            ignore (expect_ok (Client.call c ~id:(Json.Int i) Wire.Ping))
          done;
          let m = expect_ok (Client.call c Wire.Metrics) in
          check "metrics schema" true
            (dig_str [ "schema" ] m = Some "gossip-metrics/1");
          check "five pings counted" true
            (match dig_int [ "totals"; "ops"; "ping"; "count" ] m with
            | Some n -> n >= 5
            | None -> false);
          check "10s window sees them" true
            (match dig_int [ "windows"; "10s"; "ops"; "ping"; "count" ] m with
            | Some n -> n >= 5
            | None -> false);
          (* another round moves the totals *)
          ignore (expect_ok (Client.call c Wire.Ping));
          let m2 = expect_ok (Client.call c Wire.Metrics) in
          check "totals advance" true
            (dig_int [ "totals"; "ops"; "ping"; "count" ] m2
            > dig_int [ "totals"; "ops"; "ping"; "count" ] m);
          (* the metrics op itself is counted (answered inline) *)
          check "metrics op counted" true
            (match dig_int [ "totals"; "ops"; "metrics"; "count" ] m2 with
            | Some n -> n >= 1
            | None -> false);
          let h = expect_ok (Client.call c Wire.Health) in
          check "health schema" true
            (dig_str [ "schema" ] h = Some "gossip-health/1");
          check "idle server healthy" true (dig_str [ "status" ] h = Some "ok");
          let s = expect_ok (Client.call c Wire.Spans) in
          check "spans schema" true
            (dig_str [ "schema" ] s = Some "gossip-spans/1");
          check "serve.request span listed" true
            (match dig [ "spans" ] s with
            | Some (Json.List spans) ->
                List.exists
                  (fun sp -> dig_str [ "name" ] sp = Some "serve.request")
                  spans
            | _ -> false)))

let test_e2e_health_degrades_under_saturation () =
  (* one worker, one queue slot: a running sleep plus a queued sleep
     saturate the server.  The health probe must still be answered —
     inline, bypassing the full queue — and must say "degraded". *)
  with_server ~workers:1 ~queue_capacity:1 (fun _server listen ->
      let a = Client.connect_retry listen in
      let b = Client.connect_retry listen in
      Fun.protect
        ~finally:(fun () ->
          Client.close a;
          Client.close b)
        (fun () ->
          Client.send_line a {|{"id":1,"op":"sleep","params":{"ms":400}}|};
          Thread.delay 0.1;
          Client.send_line a {|{"id":2,"op":"sleep","params":{"ms":10}}|};
          Thread.delay 0.05;
          let h = expect_ok (Client.call b Wire.Health) in
          check "degraded under saturation" true
            (dig_str [ "status" ] h = Some "degraded");
          check "saturation is the reason" true
            (dig [ "queue"; "saturated" ] h = Some (Json.Bool true));
          (* after the backlog drains the same probe says ok *)
          (match (Client.recv a, Client.recv a) with
          | Ok _, Ok _ -> ()
          | _ -> Alcotest.fail "sleep replies lost");
          let h' = expect_ok (Client.call b Wire.Health) in
          check "recovers after drain" true
            (dig_str [ "status" ] h' = Some "ok")))

let test_e2e_access_log_shape () =
  let log = Filename.temp_file "gserve-access" ".jsonl" in
  with_server ~access_log:log (fun server listen ->
      let c = Client.connect_retry listen in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          ignore (expect_ok (Client.call c ~id:(Json.Int 1) Wire.Ping));
          ignore (expect_ok (Client.call c ~id:(Json.Str "v") Wire.Version));
          Client.send_line c {|{"id":42,"op":"frobnicate"}|};
          ignore (Client.recv c));
      (* shutdown flushes and closes the log *)
      Server.shutdown server;
      let ic = open_in log in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      Sys.remove log;
      let lines = List.rev !lines in
      check "one line per answered request" true (List.length lines >= 2);
      List.iter
        (fun line ->
          match Json.of_string line with
          | Error e -> Alcotest.failf "access log line not JSON (%s): %s" e line
          | Ok j ->
              check "ts" true
                (match dig [ "ts" ] j with
                | Some (Json.Float v) -> v > 0.0
                | _ -> false);
              (* ids are strings since the tracing PR: "r42", or
                 "s1-r42" when the server is a named cluster node *)
              check "req_id" true
                (match dig_str [ "req_id" ] j with
                | Some s -> String.length s > 1 && s.[0] = 'r'
                | None -> false);
              check "conn" true
                (match dig_str [ "conn" ] j with
                | Some s -> String.length s > 1 && s.[0] = 'c'
                | None -> false);
              check "op" true (dig_str [ "op" ] j <> None);
              check "status" true (dig_str [ "status" ] j <> None);
              check "queue_wait_ms" true (dig [ "queue_wait_ms" ] j <> None);
              check "service_ms" true (dig [ "service_ms" ] j <> None))
        lines;
      let status_of line =
        match Json.of_string line with
        | Ok j -> dig_str [ "status" ] j
        | Error _ -> None
      in
      check "ok statuses present" true
        (List.exists (fun l -> status_of l = Some "ok") lines);
      check "the bad request is logged too" true
        (List.exists (fun l -> status_of l = Some "bad_request") lines))

let test_e2e_shutdown_op () =
  with_server (fun server listen ->
      let c = Client.connect_retry listen in
      (match Client.call c ~id:(Json.Int 1) Wire.Shutdown with
      | Ok { Wire.outcome = Ok j; _ } ->
          check "ack" true (Json.member "stopping" j = Some (Json.Bool true))
      | _ -> Alcotest.fail "shutdown not acknowledged");
      Client.close c;
      check "stop requested" true (Server.stop_requested server);
      (* drain (idempotent with the with_server finally) *)
      Server.shutdown server;
      (* the socket is gone: new connections fail *)
      match Client.connect listen with
      | exception Unix.Unix_error _ -> ()
      | c2 ->
          Client.close c2;
          Alcotest.fail "connect after shutdown should fail")

(* --- robustness: chaos plans, supervision, resilient client --- *)

let test_chaos_plan_and_decisions () =
  check "all-zero plan compiles out" true (Chaos.make () = None);
  check "explicit zeros too" true
    (Chaos.make ~seed:9 ~drop:0.0 ~corrupt:0.0 ~delay:0.0 ~panic:0.0
       ~dispatch_latency:0.0 ()
    = None);
  let plan =
    match
      Chaos.make ~seed:7 ~drop:0.25 ~corrupt:0.2 ~delay:0.25 ~delay_ms:3
        ~panic:0.15 ~dispatch_latency:0.3 ~dispatch_latency_ms:2 ()
    with
    | Some p -> p
    | None -> Alcotest.fail "plan with nonzero probabilities must be Some"
  in
  (* pure in (seed, req_id): recomputing yields identical decisions *)
  for req_id = 1 to 200 do
    check "decision deterministic" true
      (Chaos.decide plan ~req_id = Chaos.decide plan ~req_id)
  done;
  (* over enough requests every configured fault appears, magnitudes are
     the configured ones, and reply faults are mutually exclusive by
     construction (the variant holds at most one) *)
  let drops = ref 0 and corrupts = ref 0 and delays = ref 0 in
  let panics = ref 0 and stalls = ref 0 and clean = ref 0 in
  for req_id = 1 to 2000 do
    let d = Chaos.decide plan ~req_id in
    (match d.Chaos.reply with
    | Some Chaos.Drop -> incr drops
    | Some Chaos.Corrupt -> incr corrupts
    | Some (Chaos.Delay_ms ms) ->
        incr delays;
        check_int "delay magnitude" 3 ms
    | None -> incr clean);
    if d.Chaos.panic then incr panics;
    if d.Chaos.dispatch_latency_ms > 0 then begin
      incr stalls;
      check_int "stall magnitude" 2 d.Chaos.dispatch_latency_ms
    end
  done;
  List.iter
    (fun (name, count) -> check (name ^ " occurs") true (!count > 0))
    [
      ("drop", drops);
      ("corrupt", corrupts);
      ("delay", delays);
      ("panic", panics);
      ("stall", stalls);
      ("clean request", clean);
    ];
  (* a different seed is a different plan *)
  let plan' =
    Option.get
      (Chaos.make ~seed:8 ~drop:0.25 ~corrupt:0.2 ~delay:0.25 ~delay_ms:3
         ~panic:0.15 ~dispatch_latency:0.3 ~dispatch_latency_ms:2 ())
  in
  let differs = ref false in
  for req_id = 1 to 200 do
    if Chaos.decide plan ~req_id <> Chaos.decide plan' ~req_id then
      differs := true
  done;
  check "seed matters" true !differs;
  let invalid label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
  in
  invalid "probability > 1" (fun () -> Chaos.make ~drop:1.5 ());
  invalid "negative probability" (fun () -> Chaos.make ~panic:(-0.1) ());
  invalid "reply faults sum > 1" (fun () ->
      Chaos.make ~drop:0.6 ~corrupt:0.3 ~delay:0.2 ());
  invalid "negative magnitude" (fun () ->
      Chaos.make ~delay:0.1 ~delay_ms:(-1) ())

let test_supervisor_respawns_crashed_workers () =
  let stopping = Atomic.make false in
  let crashes_left = Atomic.make 2 in
  let restarted = Atomic.make 0 in
  (* the first two bodies crash immediately; their replacements block
     like a well-behaved worker until told to stop *)
  let body _slot =
    if Atomic.fetch_and_add crashes_left (-1) > 0 then
      failwith "injected crash"
    else
      while not (Atomic.get stopping) do
        Thread.delay 0.005
      done
  in
  let sup =
    Supervisor.start ~workers:2 ~heartbeat_ms:10
      ~stopping:(fun () -> Atomic.get stopping)
      ~on_restart:(fun _slot -> Atomic.incr restarted)
      ~on_missing:(fun _ -> ())
      ~body ()
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while
    (Supervisor.restarts sup < 2 || Supervisor.alive sup < 2)
    && Unix.gettimeofday () < deadline
  do
    Thread.delay 0.01
  done;
  check "both crashes respawned" true (Supervisor.restarts sup >= 2);
  check_int "pool is whole again" 2 (Supervisor.alive sup);
  check_int "on_restart fired once per respawn" (Supervisor.restarts sup)
    (Atomic.get restarted);
  Atomic.set stopping true;
  Supervisor.shutdown sup

let test_queue_domain_shutdown_race () =
  (* Four pushing domains race a concurrent [close].  The contract under
     test: every push either returned [`Ok] and its item is drained
     after close, or was refused with [`Closed] — accepted work is never
     dropped, refused work is never admitted, and nothing hangs. *)
  for round = 0 to 4 do
    let q = Queue_.create ~capacity:8192 in
    let domains = 4 and per = 500 in
    let pushers =
      List.init domains (fun d ->
          Domain.spawn (fun () ->
              let accepted = ref [] in
              let fulls = ref 0 in
              for i = 0 to per - 1 do
                let item = (d * per) + i in
                match Queue_.try_push q item with
                | `Ok -> accepted := item :: !accepted
                | `Closed -> ()
                | `Full -> incr fulls
              done;
              (!accepted, !fulls)))
    in
    (* close somewhere in the middle of the pushing, at a slightly
       different point each round *)
    Thread.delay (0.0002 *. float_of_int round);
    Queue_.close q;
    let results = List.map Domain.join pushers in
    let accepted = List.concat_map fst results in
    let fulls = List.fold_left (fun a (_, f) -> a + f) 0 results in
    check_int "capacity was never the limiter" 0 fulls;
    let drained = ref [] in
    let rec drain () =
      match Queue_.pop q with
      | Some x ->
          drained := x :: !drained;
          drain ()
      | None -> ()
    in
    drain ();
    let sort = List.sort compare in
    check "accepted and drained agree exactly" true
      (sort accepted = sort !drained);
    check "closed for good" true (Queue_.try_push q (-1) = `Closed)
  done

let test_e2e_write_error_counted_worker_survives () =
  with_server (fun _server listen ->
      (* admit a slow job, then vanish before the reply can be written *)
      let doomed = Client.connect_retry listen in
      Client.send_line doomed {|{"id":1,"op":"sleep","params":{"ms":150}}|};
      Thread.delay 0.05;
      Client.close doomed;
      (* let the worker finish the sleep and hit the dead descriptor *)
      Thread.delay 0.4;
      let c = Client.connect_retry listen in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let pong = expect_ok (Client.call c Wire.Ping) in
          check "worker survived the failed write" true
            (Json.member "pong" pong = Some (Json.Bool true));
          let m = expect_ok (Client.call c Wire.Metrics) in
          check "write error counted" true
            (match dig_int [ "gauges"; "write_errors" ] m with
            | Some n -> n >= 1
            | None -> false);
          check "a write error is not a worker death" true
            (dig_int [ "gauges"; "worker_restarts" ] m = Some 0);
          (* health stays ok: a hung-up peer is the peer's problem *)
          let h = expect_ok (Client.call c Wire.Health) in
          check "healthy despite write error" true
            (dig_str [ "status" ] h = Some "ok")))

(* Poll health over a raw client until the pool reports ok, or fail. *)
let wait_healthy c ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let h = expect_ok (Client.call c Wire.Health) in
    if dig_str [ "status" ] h = Some "ok" then h
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "health did not recover: %s" (Json.to_string h)
    else begin
      Thread.delay 0.1;
      go ()
    end
  in
  go ()

let test_e2e_chaos_panic_respawn_and_recovery () =
  with_server
    ~chaos:(Chaos.make ~seed:1 ~panic:1.0 ())
    (fun _server listen ->
      let c = Client.connect_retry listen in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          (* every queued op panics its worker — yet every request is
             still answered, as internal_error, by the barrier *)
          for i = 1 to 4 do
            match Client.call c ~id:(Json.Int i) Wire.Ping with
            | Ok { Wire.resp_id = Json.Int j; outcome = Error (Wire.Internal, msg); _ }
              when j = i ->
                check "panic is named in the error" true
                  (String.length msg > 0)
            | other ->
                Alcotest.failf "expected internal_error for ping %d, got %s" i
                  (match other with
                  | Ok { Wire.outcome = Ok _; _ } -> "success"
                  | Ok { Wire.outcome = Error (code, _); _ } ->
                      Wire.error_code_to_string code
                  | Error e -> "transport: " ^ e)
          done;
          (* inline observability is exempt from chaos and keeps working
             mid-storm *)
          let m = expect_ok (Client.call c Wire.Metrics) in
          check "metrics op unfaulted" true
            (dig_str [ "schema" ] m = Some "gossip-metrics/1");
          (* the supervisor refills the pool; health returns to ok *)
          let h = wait_healthy c ~timeout_s:5.0 in
          check "health reports the restarts" true
            (match dig_int [ "worker_restarts" ] h with
            | Some n -> n >= 1
            | None -> false);
          check "no worker left missing" true
            (dig_int [ "workers_missing" ] h = Some 0);
          let m' = expect_ok (Client.call c Wire.Metrics) in
          check "restart gauge advanced" true
            (match dig_int [ "gauges"; "worker_restarts" ] m' with
            | Some n -> n >= 1
            | None -> false);
          check "panics counted as ping errors" true
            (match dig_int [ "totals"; "ops"; "ping"; "errors" ] m' with
            | Some n -> n >= 4
            | None -> false)))

let test_e2e_resilient_client_survives_drops () =
  with_server
    ~chaos:(Chaos.make ~seed:5 ~drop:0.4 ())
    (fun _server listen ->
      let policy =
        {
          Resilient.max_attempts = 10;
          base_backoff_ms = 2;
          max_backoff_ms = 20;
          attempt_timeout_ms = 250;
          call_budget_ms = 10_000;
          connect_timeout_ms = 1_000;
        }
      in
      let rc = Resilient.connect ~policy ~seed:3 listen in
      Fun.protect
        ~finally:(fun () -> Resilient.close rc)
        (fun () ->
          for i = 1 to 12 do
            match Resilient.call rc Wire.Ping with
            | Ok { Wire.outcome = Ok _; _ } -> ()
            | Ok _ -> Alcotest.failf "ping %d answered with an error" i
            | Error (Resilient.Fatal (code, msg)) ->
                Alcotest.failf "ping %d fatal %s: %s" i
                  (Wire.error_code_to_string code)
                  msg
            | Error (Resilient.Exhausted msg) ->
                Alcotest.failf "ping %d exhausted: %s" i msg
          done;
          let s = Resilient.stats rc in
          check_int "every call accounted" s.Resilient.calls
            (s.Resilient.ok + s.Resilient.fatal + s.Resilient.gave_up);
          check_int "all calls succeeded" 12 s.Resilient.ok;
          check "drops forced retries" true (s.Resilient.retries > 0);
          check "retries beyond firsts add up" true
            (s.Resilient.attempts = s.Resilient.calls + s.Resilient.retries)))

let test_e2e_resilient_client_gives_up_explicitly () =
  (* every reply dropped: the call must end in Exhausted — an explicit
     verdict, never a hang or a silent loss *)
  with_server
    ~chaos:(Chaos.make ~seed:2 ~drop:1.0 ())
    (fun _server listen ->
      let policy =
        {
          Resilient.max_attempts = 3;
          base_backoff_ms = 1;
          max_backoff_ms = 4;
          attempt_timeout_ms = 80;
          call_budget_ms = 2_000;
          connect_timeout_ms = 1_000;
        }
      in
      let rc = Resilient.connect ~policy listen in
      Fun.protect
        ~finally:(fun () -> Resilient.close rc)
        (fun () ->
          (match Resilient.call rc Wire.Ping with
          | Error (Resilient.Exhausted msg) ->
              check "last error is named" true (String.length msg > 0)
          | Ok _ -> Alcotest.fail "call must not succeed under drop=1"
          | Error (Resilient.Fatal _) ->
              Alcotest.fail "a dropped reply is not a rejection");
          let s = Resilient.stats rc in
          check_int "gave up once" 1 s.Resilient.gave_up;
          check_int "used every attempt" 3 s.Resilient.attempts);
      (* the raw client still sees inline ops answered: chaos never
         faults the observability plane *)
      let c = Client.connect_retry listen in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let h = expect_ok (Client.call c Wire.Health) in
          check "health exempt from chaos" true
            (dig_str [ "schema" ] h = Some "gossip-health/1")))

let test_e2e_resilient_client_tolerates_corruption () =
  with_server
    ~chaos:(Chaos.make ~seed:4 ~corrupt:1.0 ())
    (fun _server listen ->
      let policy =
        {
          Resilient.max_attempts = 3;
          base_backoff_ms = 1;
          max_backoff_ms = 4;
          attempt_timeout_ms = 200;
          call_budget_ms = 2_000;
          connect_timeout_ms = 1_000;
        }
      in
      let rc = Resilient.connect ~policy listen in
      Fun.protect
        ~finally:(fun () -> Resilient.close rc)
        (fun () ->
          (match Resilient.call rc Wire.Ping with
          | Error (Resilient.Exhausted _) -> ()
          | Ok _ -> Alcotest.fail "corrupt frames must not parse as success"
          | Error (Resilient.Fatal _) ->
              Alcotest.fail "corruption is retryable, not fatal");
          let s = Resilient.stats rc in
          check "garbled frames recognised" true (s.Resilient.garbled >= 3)))

let test_e2e_resilient_client_drops_stale_replies () =
  (* every reply delayed well past the attempt timeout: late answers to
     abandoned attempts must be discarded by id correlation, never
     returned as the answer to a newer attempt *)
  with_server
    ~chaos:(Chaos.make ~seed:6 ~delay:1.0 ~delay_ms:250 ())
    (fun _server listen ->
      let policy =
        {
          Resilient.max_attempts = 4;
          base_backoff_ms = 1;
          max_backoff_ms = 4;
          attempt_timeout_ms = 100;
          call_budget_ms = 3_000;
          connect_timeout_ms = 1_000;
        }
      in
      let rc = Resilient.connect ~policy listen in
      Fun.protect
        ~finally:(fun () -> Resilient.close rc)
        (fun () ->
          (match Resilient.call rc Wire.Ping with
          | Error (Resilient.Exhausted _) -> ()
          | Ok _ -> Alcotest.fail "no reply should beat the attempt timeout"
          | Error (Resilient.Fatal _) -> Alcotest.fail "lateness is not fatal");
          let s = Resilient.stats rc in
          check "stale replies were correlated away" true
            (s.Resilient.stale_dropped >= 1)))

let test_e2e_resilient_client_fatal_not_retried () =
  with_server (fun _server listen ->
      let rc = Resilient.connect listen in
      Fun.protect
        ~finally:(fun () -> Resilient.close rc)
        (fun () ->
          (match
             Resilient.call rc
               (Wire.Bound
                  {
                    net = { Wire.family = "nosuch"; dim = 4; degree = 2 };
                    s = Some 4;
                    full_duplex = false;
                  })
           with
          | Error (Resilient.Fatal (Wire.Bad_request, _)) -> ()
          | Ok _ -> Alcotest.fail "unknown family must not succeed"
          | Error (Resilient.Exhausted _) ->
              Alcotest.fail "a rejection must not be retried"
          | Error (Resilient.Fatal (code, _)) ->
              Alcotest.failf "wrong fatal code %s"
                (Wire.error_code_to_string code));
          let s = Resilient.stats rc in
          check_int "rejected on the first attempt" 1 s.Resilient.attempts;
          check_int "no retries of a rejection" 0 s.Resilient.retries))

(* Replies split across reads.  A stale reply shares a read with the
   head of a short reply whose tail arrives later, after the line
   buffer has moved the head to its front; then a large reply arrives
   61 bytes at a time, ending in "\r\n".  The client's line buffer
   must reassemble each reply exactly, with no attempt timing out. *)
let test_resilient_client_split_reply () =
  (* as [Server] does: a write to a client that has gone raises EPIPE
     in the fake server's thread instead of killing the test process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let path = Filename.temp_file "gossip-split" ".sock" in
  Sys.remove path;
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let large =
    Json.Obj
      [
        ("blob", Json.Str (String.make 9_000 'p'));
        ("xs", Json.List (List.init 400 (fun i -> Json.Float (float_of_int i /. 7.0))));
      ]
  in
  let small = Json.Obj [ ("pong", Json.Bool true) ] in
  let serve () =
    let fd, _ = Unix.accept ~cloexec:true lfd in
    let ic = Unix.in_channel_of_descr fd in
    let write_in_pieces s ~piece =
      let b = Bytes.unsafe_of_string s in
      let off = ref 0 in
      while !off < Bytes.length b do
        off := !off + Unix.write fd b !off (min piece (Bytes.length b - !off));
        Thread.delay 0.0002
      done
    in
    let reply ~id payload = Json.to_string (Wire.ok_response ~id payload) in
    let next_id () =
      match Wire.read_frame ic ~max_bytes:Wire.default_max_frame_bytes with
      | Ok line -> Option.get (Json.member "id" (Result.get_ok (Json.of_string line)))
      | Error _ -> Alcotest.fail "fake server: no request"
    in
    (* 12 400 bytes with its newline: the buffer (4 KiB, doubled when
       full) holds it in 16 KiB, so reading the short reply's tail
       needs the head moved to the front first *)
    let stale =
      let envelope = reply ~id:(Json.Int 999) (Json.Str "") in
      reply ~id:(Json.Int 999) (Json.Str (String.make (12_399 - String.length envelope) 'p'))
    in
    let id = next_id () in
    let short = reply ~id small ^ "\n" in
    let head = 10 in
    write_in_pieces ~piece:max_int (stale ^ "\n" ^ String.sub short 0 head);
    Thread.delay 0.05;
    write_in_pieces ~piece:max_int
      (String.sub short head (String.length short - head));
    let id = next_id () in
    write_in_pieces ~piece:61 (reply ~id large ^ "\r\n");
    Unix.close fd
  in
  let server = Thread.create serve () in
  Fun.protect
    ~finally:(fun () ->
      Thread.join server;
      Unix.close lfd;
      Sys.remove path)
    (fun () ->
      let rc = Resilient.connect (Server.Unix_socket path) in
      Fun.protect
        ~finally:(fun () -> Resilient.close rc)
        (fun () ->
          List.iteri
            (fun call payload ->
              match Resilient.call rc Wire.Ping with
              | Ok { Wire.outcome = Ok j; _ } ->
                  check (Printf.sprintf "reply %d reassembled" call) true (j = payload)
              | _ -> Alcotest.failf "call %d failed" call)
            [ small; large ];
          let s = Resilient.stats rc in
          check_int "stale reply dropped" 1 s.Resilient.stale_dropped;
          check_int "no retries" 0 s.Resilient.retries;
          check_int "nothing garbled" 0 s.Resilient.garbled))

let suite =
  [
    ("bounded queue basics", `Quick, test_queue_basic);
    ("bounded queue close drains", `Quick, test_queue_close_drains_backlog);
    ("bounded queue concurrent", `Quick, test_queue_concurrent);
    ("wire request roundtrip", `Quick, test_wire_request_roundtrip);
    ("wire golden requests", `Quick, test_wire_golden_requests);
    ("wire trace context forward-compat", `Quick, test_wire_trace_context);
    ("wire rejections", `Quick, test_wire_rejections);
    ("wire response roundtrip", `Quick, test_wire_response_roundtrip);
    ("wire framing", `Quick, test_wire_framing);
    QCheck_alcotest.to_alcotest prop_wire_framing_matches_char_reader;
    ("tables reply digest", `Quick, test_tables_reply_digest);
    ("dispatch direct", `Quick, test_dispatch_direct);
    ("dispatch simulate_implicit", `Quick, test_dispatch_simulate_implicit);
    ("dispatch certify_faults", `Quick, test_dispatch_certify_faults);
    ("metrics json shape", `Quick, test_metrics_json_shape);
    ("metrics trace exemplar", `Quick, test_metrics_exemplar);
    ("health json transitions", `Quick, test_health_json_transitions);
    ("metrics resource + heap health", `Quick, test_metrics_resource_and_heap_health);
    ("trace analysis", `Quick, test_trace_analysis);
    ("trace alloc aggregation", `Quick, test_trace_alloc_aggregation);
    ("trace stitch across nodes", `Quick, test_trace_stitch);
    ("e2e basic ops", `Quick, test_e2e_basic_ops);
    ("e2e simulate matches direct", `Quick, test_e2e_simulate_matches_direct);
    ("e2e malformed frame survives", `Quick, test_e2e_malformed_frame_connection_survives);
    ("e2e oversized frame closes", `Quick, test_e2e_oversized_frame_closes_connection);
    ("e2e deadline exceeded", `Quick, test_e2e_deadline_exceeded);
    ("e2e queue full", `Quick, test_e2e_queue_full);
    ("e2e concurrent clients", `Quick, test_e2e_concurrent_clients);
    ("e2e metrics/health/spans ops", `Quick, test_e2e_metrics_ops);
    ("e2e health degrades when saturated", `Quick, test_e2e_health_degrades_under_saturation);
    ("e2e access log shape", `Quick, test_e2e_access_log_shape);
    ("e2e shutdown op", `Quick, test_e2e_shutdown_op);
    ("chaos plan decisions", `Quick, test_chaos_plan_and_decisions);
    ("supervisor respawns crashes", `Quick, test_supervisor_respawns_crashed_workers);
    ("bounded queue domain shutdown race", `Quick, test_queue_domain_shutdown_race);
    ("e2e write error counted, worker survives", `Quick, test_e2e_write_error_counted_worker_survives);
    ("e2e chaos panic respawn + recovery", `Quick, test_e2e_chaos_panic_respawn_and_recovery);
    ("e2e resilient client survives drops", `Quick, test_e2e_resilient_client_survives_drops);
    ("e2e resilient client gives up explicitly", `Quick, test_e2e_resilient_client_gives_up_explicitly);
    ("e2e resilient client tolerates corruption", `Quick, test_e2e_resilient_client_tolerates_corruption);
    ("e2e resilient client drops stale replies", `Quick, test_e2e_resilient_client_drops_stale_replies);
    ("e2e resilient client does not retry rejections", `Quick, test_e2e_resilient_client_fatal_not_retried);
    ("resilient client reassembles a split reply", `Quick, test_resilient_client_split_reply);
  ]
