(* Telemetry layer: Util.Json emitter/parser, Instrument histograms,
   JSONL trace streams, and the machine-readable table export.

   The JSON tests are adversarial on purpose — control characters,
   quotes, backslashes, non-ASCII bytes, surrogate-pair escapes — since
   every trace line and every --json result flows through this printer
   and must survive the round trip through this parser. *)

module Json = Gossip_util.Json
module Instrument = Gossip_util.Instrument
module Parallel = Gossip_util.Parallel
module Tables = Gossip_bounds.Tables

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let checkf msg expected actual =
  Alcotest.(check (float 1e-9)) msg expected actual

(* --- Json: printing --- *)

let test_json_print () =
  check_str "compact object" {|{"a":1,"b":[true,null,"x"]}|}
    (Json.to_string
       (Json.Obj
          [
            ("a", Json.Int 1);
            ("b", Json.List [ Json.Bool true; Json.Null; Json.Str "x" ]);
          ]));
  check_str "empty containers" {|{"o":{},"l":[]}|}
    (Json.to_string (Json.Obj [ ("o", Json.Obj []); ("l", Json.List []) ]));
  check_str "negative int" "-42" (Json.to_string (Json.Int (-42)));
  (* floats must re-parse to the same value and always look like floats *)
  check_str "float keeps a point" "1.0" (Json.to_string (Json.Float 1.0));
  check_str "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  check_str "inf is null" "null" (Json.to_string (Json.Float Float.infinity))

let test_json_escaping () =
  check_str "quotes and backslashes" {|"a\"b\\c"|}
    (Json.to_string (Json.Str {|a"b\c|}));
  check_str "named escapes" {|"\n\t\r\b\f"|}
    (Json.to_string (Json.Str "\n\t\r\b\012"));
  check_str "other control chars as \\u" "\"\\u0000\\u001f\""
    (Json.to_string (Json.Str "\000\031"));
  (* non-ASCII bytes (UTF-8 payloads) pass through untouched *)
  check_str "utf8 passthrough" "\"\xc3\xa9\"" (Json.to_string (Json.Str "\xc3\xa9"))

(* --- Json: parsing and round trips --- *)

let roundtrip j =
  match Json.of_string (Json.to_string j) with
  | Ok j' -> j'
  | Error e -> Alcotest.failf "round trip failed: %s" e

let test_json_roundtrip_adversarial () =
  let strings =
    [
      "";
      "plain";
      {|quote " backslash \ slash /|};
      "newline\n tab\t cr\r";
      "\000\001\031\127";
      "\xe2\x88\x80x\xe2\x88\x83y";  (* ∀x∃y *)
      String.make 300 '\\';
      "ends with quote\"";
    ]
  in
  List.iter
    (fun s ->
      match roundtrip (Json.Str s) with
      | Json.Str s' -> check_str "string survives round trip" s s'
      | _ -> Alcotest.fail "string did not parse back to a string")
    strings;
  let deep =
    Json.Obj
      [
        ("xs", Json.List [ Json.Int 1; Json.Float 2.5; Json.Bool false ]);
        ("nested", Json.Obj [ ("k", Json.List [ Json.Obj []; Json.Null ]) ]);
      ]
  in
  check "structure survives round trip" true (roundtrip deep = deep)

let test_json_parse_escapes () =
  (* \uXXXX escapes, including a surrogate pair, decode to UTF-8 *)
  (match Json.of_string "\"A\\u00e9\\u2200\"" with
  | Ok (Json.Str s) -> check_str "unicode escapes" "A\xc3\xa9\xe2\x88\x80" s
  | _ -> Alcotest.fail "unicode escapes did not parse");
  (match Json.of_string "\"\\ud83d\\ude00\"" with
  | Ok (Json.Str s) -> check_str "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "surrogate pair did not parse");
  (match Json.of_string "[1, -2.5e3, true, null]" with
  | Ok (Json.List [ Json.Int 1; Json.Float f; Json.Bool true; Json.Null ]) ->
      checkf "exponent float" (-2500.0) f
  | _ -> Alcotest.fail "mixed list did not parse")

let prop_json_float_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json float round trip"
    QCheck.(float_range (-1e15) 1e15)
    (fun f ->
      match Json.of_string (Json.to_string (Json.Float f)) with
      | Ok (Json.Float f') -> f = f'
      | Ok (Json.Int i) -> float_of_int i = f
      | _ -> false)

let prop_json_string_roundtrip =
  QCheck.Test.make ~count:500 ~name:"json string round trip" QCheck.string
    (fun s ->
      match Json.of_string (Json.to_string (Json.Str s)) with
      | Ok (Json.Str s') -> s = s'
      | _ -> false)

(* --- Json: byte identity of the float printer --- *)

(* The printer as it was before it formatted through [caml_format_float]
   and tried 15 digits first: the first of %.12g / %.15g / %.17g that
   parses back to the same float.  The production printer must agree
   with it byte for byte — the wire goldens and every stored trace
   depend on that. *)
let ladder_float_repr f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else begin
    let try_fmt fmt =
      let s = Printf.sprintf fmt f in
      if float_of_string s = f then Some s else None
    in
    let s =
      match try_fmt "%.12g" with
      | Some s -> s
      | None -> (
          match try_fmt "%.15g" with
          | Some s -> s
          | None -> Printf.sprintf "%.17g" f)
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

let float_edge_cases =
  [
    0.0; -0.0; 1.0; -1.0; 0.1; 0.5; 1.5; 100.0; 1e12; 1e13; 1e14; 1e15;
    1e16; 1e17; 1e21; 1e22; -1e21; 123456789012.0; 1234567890123.0;
    12345678901234.0; 123456789012345.0; 0.0001; 0.00001; 1.1e-5;
    Float.max_float; -.Float.max_float; Float.min_float; -.Float.min_float;
    Int64.float_of_bits 1L; Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL;
    5e-324; 2.2250738585072009e-308; Float.epsilon; 1.0 /. 3.0; 2.0 /. 3.0;
    Float.pi; 0.30000000000000004; 9007199254740993.0; 4503599627370497.5;
    Float.nan; Float.infinity; Float.neg_infinity;
  ]

let gen_interesting_float =
  let open QCheck.Gen in
  frequency
    [
      (* any bit pattern: subnormals, huge exponents, NaNs *)
      (4, map Int64.float_of_bits ui64);
      (* short decimals, the 12-digit rung *)
      ( 3,
        map2
          (fun m k -> float_of_int m /. (10.0 ** float_of_int k))
          (int_range (-1_000_000) 1_000_000)
          (int_range 0 8) );
      (* 13-16 significant digits, the 15-digit rung and its edge *)
      ( 2,
        map2
          (fun m e -> float_of_string (Printf.sprintf "%.15ge%d" m e))
          (float_range 1.0 10.0) (int_range (-20) 25) );
      (* integers around the %g fixed/exponent switch (1e12 .. 1e21) *)
      (2, map2 (fun m e -> m *. (10.0 ** float_of_int e)) (float_range 1.0 10.0)
            (int_range 10 22));
      (1, oneofl float_edge_cases);
    ]

let test_json_float_edge_identity () =
  List.iter
    (fun f ->
      check_str
        (Printf.sprintf "float %h" f)
        (ladder_float_repr f)
        (Json.to_string (Json.Float f)))
    float_edge_cases

let prop_json_float_printer_identity =
  QCheck.Test.make ~count:20_000 ~name:"json float printer = 12/15/17 ladder"
    (QCheck.make ~print:(Printf.sprintf "%h") gen_interesting_float)
    (fun f -> Json.to_string (Json.Float f) = ladder_float_repr f)

(* --- Json: parser round trips and error strings --- *)

let gen_json =
  let open QCheck.Gen in
  let finite = map (fun f -> if Float.is_finite f then f else 0.5) float in
  let leaf =
    frequency
      [
        (1, return Json.Null);
        (1, map (fun b -> Json.Bool b) bool);
        (2, map (fun i -> Json.Int i) int);
        (2, map (fun f -> Json.Float f) finite);
        (3, map (fun s -> Json.Str s) (string_size ~gen:char (int_range 0 24)));
      ]
  in
  let key = string_size ~gen:char (int_range 0 8) in
  sized_size (int_range 0 40)
  @@ fix (fun self n ->
         if n <= 1 then leaf
         else
           frequency
             [
               (1, leaf);
               ( 2,
                 map (fun l -> Json.List l)
                   (list_size (int_range 0 5) (self (n / 3))) );
               ( 2,
                 map (fun l -> Json.Obj l)
                   (list_size (int_range 0 5) (pair key (self (n / 3)))) );
             ])

let prop_json_tree_roundtrip =
  QCheck.Test.make ~count:2_000 ~name:"json random trees round trip"
    (QCheck.make ~print:Json.to_string gen_json)
    (fun j ->
      Json.of_string (Json.to_string j) = Ok j
      && Json.of_string (Json.to_string_pretty j) = Ok j)

(* Each malformed input with its error message.  Apart from the
   leading-zero rows (RFC 8259: an integer part is "0" or starts with
   1-9) these are the messages of the byte-at-a-time parser the index
   scanner replaced; callers and logs see the same strings. *)
let malformed_corpus =
  [
    ("01", "at offset 1: leading zero in number");
    ("-01", "at offset 2: leading zero in number");
    ("00", "at offset 1: leading zero in number");
    ("01.5", "at offset 1: leading zero in number");
    ("[1,007]", "at offset 4: leading zero in number");
    ("{\"n\":-00e1}", "at offset 7: leading zero in number");
    ("", "at offset 0: unexpected end of input");
    ("   ", "at offset 3: unexpected end of input");
    ("{", "at offset 1: expected \", found end of input");
    ("[", "at offset 1: unexpected end of input");
    ("[1,]", "at offset 3: unexpected character ]");
    ("[1 2]", "at offset 3: expected ], found 2");
    ("{\"a\":}", "at offset 5: unexpected character }");
    ("{\"a\" 1}", "at offset 5: expected :, found 1");
    ("{\"a\":1,}", "at offset 7: expected \", found }");
    ("{\"a\":1 \"b\":2}", "at offset 7: expected }, found \"");
    ("{1:2}", "at offset 1: expected \", found 1");
    ("{\"a\"}", "at offset 4: expected :, found }");
    ("nulx", "at offset 0: invalid literal, expected null");
    ("tru", "at offset 0: invalid literal, expected true");
    ("fals", "at offset 0: invalid literal, expected false");
    ("@", "at offset 0: unexpected character @");
    ("1 2", "at offset 2: trailing garbage after value");
    ("[1] trailing", "at offset 4: trailing garbage after value");
    ("\"unterminated", "at offset 13: unterminated string");
    ("\"abc\\", "at offset 5: truncated escape");
    ("\"bad \\q escape\"", "at offset 6: invalid escape character");
    ("\"a\001b\"", "at offset 2: unescaped control character in string");
    ("\"tab\there\"", "at offset 4: unescaped control character in string");
    ("\"\\u12\"", "at offset 5: invalid hex digit in \\u escape");
    ("\"\\u12G4\"", "at offset 5: invalid hex digit in \\u escape");
    ("\"\\ud800\"", "at offset 7: unpaired surrogate");
    ("\"\\ud800\\u0041\"", "at offset 13: unpaired surrogate");
    ("\"\\udc00\"", "at offset 7: unpaired surrogate");
    ("\"\\ud800\\", "at offset 7: unpaired surrogate");
    ("\"x\\u00", "at offset 6: truncated \\u escape");
    ("-", "at offset 1: expected digit");
    ("-a", "at offset 1: expected digit");
    ("1.", "at offset 2: expected digit");
    ("1.e5", "at offset 2: expected digit");
    ("1e", "at offset 2: expected digit");
    ("1e+", "at offset 3: expected digit");
    (".5", "at offset 0: unexpected character .");
    ("+1", "at offset 0: unexpected character +");
    ("[-]", "at offset 2: expected digit");
    ("0x10", "at offset 1: trailing garbage after value");
    ("1.5.2", "at offset 3: trailing garbage after value");
    ("[\"a\",]", "at offset 5: unexpected character ]");
    ("{\"k\":[1,{\"z\":}]}", "at offset 13: unexpected character }");
    ("\"\\", "at offset 2: truncated escape");
  ]

let test_json_parse_rejects () =
  List.iter
    (fun (input, expected) ->
      match Json.of_string input with
      | Ok j -> Alcotest.failf "parser accepted %S as %s" input (Json.to_string j)
      | Error e -> check_str (Printf.sprintf "error for %S" input) expected e)
    malformed_corpus

(* Numbers the grammar accepts, at the edges of the leading-zero rule
   and of the [Int] range. *)
let test_json_number_grammar () =
  List.iter
    (fun (input, expected) ->
      check (Printf.sprintf "%S parses" input) true
        (Json.of_string input = Ok expected))
    [
      ("0", Json.Int 0);
      ("-0", Json.Int 0);
      ("10", Json.Int 10);
      ("0.25", Json.Float 0.25);
      ("-0.5e1", Json.Float (-5.0));
      ("0e5", Json.Float 0.0);
      ("1e01", Json.Float 10.0);
      ("123456789012345678", Json.Int 123456789012345678);
      ("4611686018427387903", Json.Int max_int);
      ("-4611686018427387904", Json.Int min_int);
      ("4611686018427387904", Json.Float 4611686018427387904.0);
    ]

(* --- Histograms --- *)

let test_histogram_known_inputs () =
  Instrument.reset ();
  let bounds = [| 1.0; 2.0; 4.0 |] in
  List.iter
    (Instrument.observe ~bounds "t.hist")
    [ 0.5; 1.5; 1.5; 3.0; 8.0 ];
  match Instrument.histogram "t.hist" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      check "edges fixed at creation" true (h.Instrument.upper_bounds = bounds);
      check "bucket counts" true
        (h.Instrument.bucket_counts = [| 1; 2; 1; 1 |]);
      check_int "count" 5 h.Instrument.count;
      checkf "sum" 14.5 h.Instrument.sum;
      checkf "min" 0.5 h.Instrument.min_value;
      checkf "max" 8.0 h.Instrument.max_value;
      (* p50: rank 2.5 falls in bucket (1, 2] after 1 below; 1.5 of the
         bucket's 2 observations -> 1 + 0.75 * (2 - 1) = 1.75 *)
      checkf "p50 interpolates" 1.75 (Instrument.quantile h 0.5);
      (* p95: rank 4.75 falls in the overflow bucket, whose range is
         (4, max = 8]; 0.75 through it -> 7.0 *)
      checkf "p95 in overflow bucket" 7.0 (Instrument.quantile h 0.95);
      checkf "q=0 clamps to min" 0.5 (Instrument.quantile h 0.0);
      checkf "q=1 clamps to max" 8.0 (Instrument.quantile h 1.0);
      Instrument.reset ()

let test_histogram_json_shape () =
  Instrument.reset ();
  Instrument.observe ~bounds:[| 1.0 |] "t.hist" 0.5;
  Instrument.observe "t.hist" 2.0;
  (* ignored bounds: fixed at creation *)
  (match Instrument.histogram "t.hist" with
  | Some h -> (
      match Instrument.histogram_json h with
      | Json.Obj fields ->
          check "has name" true
            (List.assoc "name" fields = Json.Str "t.hist");
          check "has p50 and p95" true
            (List.mem_assoc "p50" fields && List.mem_assoc "p95" fields);
          (match List.assoc "buckets" fields with
          | Json.List [ _; Json.Obj overflow ] ->
              check "overflow le is the string inf" true
                (List.assoc "le" overflow = Json.Str "inf")
          | _ -> Alcotest.fail "expected two buckets")
      | _ -> Alcotest.fail "histogram_json is not an object")
  | None -> Alcotest.fail "histogram missing");
  Instrument.reset ()

(* --- JSONL trace files --- *)

let read_lines path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  List.rev !lines

(* Every line parses; span_begin/span_end balance per (dom, name). *)
let well_formed_trace lines =
  let opened = Hashtbl.create 16 in
  List.iter
    (fun line ->
      match Json.of_string line with
      | Error e -> Alcotest.failf "trace line %S: %s" line e
      | Ok j -> (
          let field name = Json.member name j in
          check "line is an object with ev" true
            (match field "ev" with Some (Json.Str _) -> true | _ -> false);
          check "line carries mono_ns" true
            (match field "mono_ns" with Some (Json.Int _) -> true | _ -> false);
          let dom =
            match field "dom" with Some (Json.Int d) -> d | _ -> -1
          in
          let name =
            match field "name" with Some (Json.Str s) -> s | _ -> ""
          in
          let key = (dom, name) in
          let count = try Hashtbl.find opened key with Not_found -> 0 in
          match field "ev" with
          | Some (Json.Str "span_begin") -> Hashtbl.replace opened key (count + 1)
          | Some (Json.Str "span_end") ->
              if count = 0 then
                Alcotest.failf "span_end %S without begin" name
              else Hashtbl.replace opened key (count - 1)
          | _ -> ()))
    lines;
  Hashtbl.iter
    (fun (_, name) count ->
      if count <> 0 then Alcotest.failf "span %S left %d open" name count)
    opened

let trace_workload ~domains () =
  (* spans (some nested, one raising), point events, and a parallel map
     whose worker events are stamped from inside each domain *)
  Instrument.span "t.outer" ~attrs:[ ("k", Json.Str "v\"esc") ] (fun () ->
      Instrument.span "t.inner" (fun () -> ignore (Sys.opaque_identity 1)));
  (try Instrument.span "t.raise" (fun () -> raise Exit) with Exit -> ());
  Instrument.event "t.point" ~attrs:[ ("i", Json.Int 3) ];
  ignore (Parallel.init ~domains 64 (fun i -> i * i))

let test_trace_jsonl ~domains () =
  let path = Filename.temp_file "gossip_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Instrument.set_trace_file None;
      Instrument.reset ();
      Sys.remove path)
    (fun () ->
      Instrument.reset ();
      Instrument.set_trace_file (Some path);
      trace_workload ~domains ();
      Instrument.set_trace_file None;
      let lines = read_lines path in
      check "trace is non-empty" true (List.length lines > 0);
      well_formed_trace lines;
      (* the parallel workload streams one event per worker domain *)
      let worker_events =
        List.filter
          (fun l ->
            match Json.of_string l with
            | Ok j -> Json.member "name" j = Some (Json.Str "parallel.worker")
            | Error _ -> false)
          lines
      in
      if domains > 1 then
        check_int "one event per worker" domains (List.length worker_events))

let test_trace_single_domain () = test_trace_jsonl ~domains:1 ()
let test_trace_multi_domain () = test_trace_jsonl ~domains:4 ()

let test_engine_round_events () =
  let path = Filename.temp_file "gossip_engine" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Instrument.set_trace_file None;
      Instrument.reset ();
      Sys.remove path)
    (fun () ->
      Instrument.reset ();
      Instrument.set_trace_file (Some path);
      let sys =
        Gossip_protocol.Builders.edge_coloring_half_duplex
          (Gossip_topology.Families.cycle 8)
      in
      let run = Gossip_simulate.Engine.gossip_run sys in
      Instrument.set_trace_file None;
      let lines = read_lines path in
      well_formed_trace lines;
      let rounds =
        List.filter
          (fun l ->
            match Json.of_string l with
            | Ok j -> Json.member "name" j = Some (Json.Str "engine.round")
            | Error _ -> false)
          lines
      in
      check_int "one event per simulated round"
        (Array.length run.Gossip_simulate.Engine.curve)
        (List.length rounds);
      (match run.Gossip_simulate.Engine.time with
      | Some t ->
          check_int "curve covers the whole run" t
            (Array.length run.Gossip_simulate.Engine.curve)
      | None -> Alcotest.fail "gossip did not complete");
      check "curve ends complete" true
        (run.Gossip_simulate.Engine.curve.(Array.length
                                             run.Gossip_simulate.Engine.curve
                                           - 1)
        = 1.0))

(* --- distributed trace context: ids, sampling, ring, suppression --- *)

module Trace = Gossip_util.Trace

let test_trace_context () =
  let a = Trace.mint () and b = Trace.mint () in
  check "trace ids unique" true (a.Trace.trace_id <> b.Trace.trace_id);
  check_int "trace id is 32 hex chars" 32 (String.length a.Trace.trace_id);
  String.iter
    (fun c ->
      check "trace id lowercase hex" true
        ((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')))
    a.Trace.trace_id;
  check "root has no parent" true (a.Trace.parent_span_id = None);
  check "default rate keeps everything" true a.Trace.sampled;
  let sid = Trace.fresh_span_id () in
  check_int "span id is 16 hex chars" 16 (String.length sid);
  let c = Trace.child a ~span_id:sid in
  check_str "child keeps the trace id" a.Trace.trace_id c.Trace.trace_id;
  check "child re-parents" true (c.Trace.parent_span_id = Some sid);
  check "child keeps the verdict" true (c.Trace.sampled = a.Trace.sampled);
  (* the head-sampling verdict is pure in the id: same id, same rate,
     same answer — that is what lets every node agree without talking *)
  let id = Trace.fresh_trace_id () in
  check "verdict deterministic" true
    (Trace.sample_decision ~rate:0.37 id = Trace.sample_decision ~rate:0.37 id);
  check "rate 1 keeps all" true (Trace.sample_decision ~rate:1.0 id);
  check "rate 0 drops all" false (Trace.sample_decision ~rate:0.0 id);
  (* at rate r the kept fraction over many fresh ids approaches r *)
  let n = 2000 in
  let kept = ref 0 in
  for _ = 1 to n do
    if Trace.sample_decision ~rate:0.25 (Trace.fresh_trace_id ()) then
      incr kept
  done;
  let frac = float_of_int !kept /. float_of_int n in
  check "sampled fraction near the rate" true (frac > 0.15 && frac < 0.35)

let test_trace_ring () =
  Fun.protect
    ~finally:(fun () ->
      Instrument.set_ring_capacity 0;
      Instrument.reset ())
    (fun () ->
      Instrument.reset ();
      Instrument.set_ring_capacity 4;
      check "ring turns tracing on" true (Instrument.tracing ());
      for i = 1 to 6 do
        Instrument.event "ring.tick" ~attrs:[ ("i", Json.Int i) ]
      done;
      let events, dropped = Instrument.ring_drain () in
      (* capacity 4, six events: the two oldest fell off *)
      check_int "ring keeps the newest" 4 (List.length events);
      check_int "ring counts what it dropped" 2 dropped;
      let is =
        List.filter_map
          (fun e -> Option.bind (Json.member "i" e) Json.to_int_opt)
          events
      in
      check "oldest-first, newest retained" true (is = [ 3; 4; 5; 6 ]);
      let again, dropped' = Instrument.ring_drain () in
      check "drain is destructive" true (again = [] && dropped' = 0);
      (* ~max bounds the reply: the newest [max] events are handed out,
         the older remainder is counted dropped — never silently lost *)
      for i = 1 to 3 do
        Instrument.event "ring.tick" ~attrs:[ ("i", Json.Int i) ]
      done;
      let first, dropped'' = Instrument.ring_drain ~max:2 () in
      let is' =
        List.filter_map
          (fun e -> Option.bind (Json.member "i" e) Json.to_int_opt)
          first
      in
      check "max keeps the newest" true (is' = [ 2; 3 ]);
      check_int "truncation counted as dropped" 1 dropped'';
      check "drain empties even when truncated" true
        (fst (Instrument.ring_drain ()) = []))

let test_sampled_out () =
  Fun.protect
    ~finally:(fun () ->
      Instrument.set_ring_capacity 0;
      Instrument.set_global_attrs [];
      Instrument.reset ())
    (fun () ->
      Instrument.reset ();
      Instrument.set_ring_capacity 16;
      Instrument.set_global_attrs [ ("node", Json.Str "t9") ];
      check "not sampled out by default" false (Instrument.sampled_out ());
      Instrument.with_sampled_out (fun () ->
          check "suppressed inside" true (Instrument.sampled_out ());
          check "tracing off inside" false (Instrument.tracing ());
          Instrument.event "quiet.point";
          Instrument.span "quiet.span" (fun () -> ()));
      check "suppression ends with the thunk" false (Instrument.sampled_out ());
      Instrument.event "loud.point";
      let events, _ = Instrument.ring_drain () in
      let names =
        List.filter_map
          (fun e -> Option.bind (Json.member "name" e) Json.to_string_opt)
          events
      in
      check "suppressed events never reached the ring" true
        (names = [ "loud.point" ]);
      (* every recorded line carries the process-wide attrs *)
      check "global attrs stamped" true
        (List.for_all
           (fun e -> Json.member "node" e = Some (Json.Str "t9"))
           events))

(* --- Golden: the machine-readable tables --- *)

let test_tables_json_golden () =
  (* Corollary 4.4 (Fig. 4): the e(s) values the paper states. *)
  let expected = [ (3, 2.8808); (4, 1.8133); (5, 1.6502); (8, 1.4721) ] in
  let j = roundtrip (Tables.to_json ~s_max:8 ()) in
  let fig4 =
    match Json.member "fig4" j with
    | Some f -> f
    | None -> Alcotest.fail "no fig4 key"
  in
  let rows =
    match Json.member "rows" fig4 with
    | Some (Json.List rows) -> rows
    | _ -> Alcotest.fail "no fig4 rows"
  in
  let e_of s =
    match
      List.find_opt (fun r -> Json.member "s" r = Some (Json.Int s)) rows
    with
    | Some r -> (
        match Json.member "e" r with
        | Some j -> Option.get (Json.to_float_opt j)
        | None -> Alcotest.fail "row lacks e")
    | None -> Alcotest.failf "no row for s=%d" s
  in
  List.iter
    (fun (s, paper) ->
      Alcotest.(check (float 5e-4))
        (Printf.sprintf "e(%d) matches Corollary 4.4" s)
        paper (e_of s))
    expected;
  match Json.member "inf" fig4 with
  | Some inf ->
      Alcotest.(check (float 5e-4))
        "e(inf) = 1.4404" 1.4404
        (Option.get (Json.to_float_opt (Option.get (Json.member "e" inf))))
  | None -> Alcotest.fail "no fig4 inf row"

let suite =
  let q = QCheck_alcotest.to_alcotest in
  [
    ("json printing", `Quick, test_json_print);
    ("json escaping", `Quick, test_json_escaping);
    ("json adversarial round trip", `Quick, test_json_roundtrip_adversarial);
    ("json parse escapes", `Quick, test_json_parse_escapes);
    ("json parse rejects garbage", `Quick, test_json_parse_rejects);
    ("histogram known inputs", `Quick, test_histogram_known_inputs);
    ("histogram json shape", `Quick, test_histogram_json_shape);
    ("trace jsonl, 1 domain", `Quick, test_trace_single_domain);
    ("trace jsonl, 4 domains", `Quick, test_trace_multi_domain);
    ("trace context and head sampling", `Quick, test_trace_context);
    ("trace ring buffer", `Quick, test_trace_ring);
    ("sampled-out suppression", `Quick, test_sampled_out);
    ("engine round events", `Quick, test_engine_round_events);
    ("tables json golden (Cor 4.4)", `Quick, test_tables_json_golden);
    ("json float printer edge cases", `Quick, test_json_float_edge_identity);
    ("json number grammar", `Quick, test_json_number_grammar);
    q prop_json_float_roundtrip;
    q prop_json_string_roundtrip;
    q prop_json_float_printer_identity;
    q prop_json_tree_roundtrip;
  ]
