module Json = Gossip_util.Json
module Instrument = Gossip_util.Instrument
module Prng = Gossip_util.Prng

type policy = {
  max_attempts : int;
  base_backoff_ms : int;
  max_backoff_ms : int;
  attempt_timeout_ms : int;
  call_budget_ms : int;
  connect_timeout_ms : int;
}

let default_policy =
  {
    max_attempts = 6;
    base_backoff_ms = 10;
    max_backoff_ms = 500;
    attempt_timeout_ms = 1_000;
    call_budget_ms = 10_000;
    connect_timeout_ms = 1_000;
  }

type failure =
  | Fatal of Wire.error_code * string
  | Exhausted of string

type stats = {
  calls : int;
  ok : int;
  fatal : int;
  gave_up : int;
  attempts : int;
  retries : int;
  reconnects : int;
  stale_dropped : int;
  garbled : int;
}

type t = {
  listen : Server.listen;
  policy : policy;
  rng : Prng.t;  (* backoff jitter only; determinism aids replay *)
  mutable conn : Client.t option;
  mutable rbuf : Bytes.t;
      (* [rbuf[rpos, rlen)] are bytes read past the last consumed line;
         [rbuf[rpos, scanned)] are known to hold no newline *)
  mutable rpos : int;
  mutable rlen : int;
  mutable scanned : int;
  mutable token : int;  (* client-unique id for the next attempt *)
  mutable s_calls : int;
  mutable s_ok : int;
  mutable s_fatal : int;
  mutable s_gave_up : int;
  mutable s_attempts : int;
  mutable s_retries : int;
  mutable s_reconnects : int;
  mutable s_stale : int;
  mutable s_garbled : int;
}

let now_ns () = Instrument.now_ns ()

let validate_policy p =
  if p.max_attempts < 1 then
    invalid_arg "Resilient_client: max_attempts must be >= 1";
  if p.base_backoff_ms < 0 || p.max_backoff_ms < p.base_backoff_ms then
    invalid_arg "Resilient_client: backoff range is invalid";
  if p.attempt_timeout_ms < 1 || p.call_budget_ms < 1 then
    invalid_arg "Resilient_client: timeouts must be >= 1 ms";
  if p.connect_timeout_ms < 1 then
    invalid_arg "Resilient_client: connect_timeout_ms must be >= 1 ms"

let connect ?(policy = default_policy) ?(seed = 0) listen =
  validate_policy policy;
  {
    listen;
    policy;
    rng = Prng.create seed;
    conn =
      Some
        (Client.connect_retry ~connect_timeout_ms:policy.connect_timeout_ms
           listen);
    rbuf = Bytes.create 4096;
    rpos = 0;
    rlen = 0;
    scanned = 0;
    token = 1;
    s_calls = 0;
    s_ok = 0;
    s_fatal = 0;
    s_gave_up = 0;
    s_attempts = 0;
    s_retries = 0;
    s_reconnects = 0;
    s_stale = 0;
    s_garbled = 0;
  }

let reset_rbuf t =
  t.rpos <- 0;
  t.rlen <- 0;
  t.scanned <- 0

let drop_conn t =
  match t.conn with
  | None -> ()
  | Some c ->
      Client.close c;
      t.conn <- None;
      reset_rbuf t

let close t = drop_conn t

(* A new connection's stream starts fresh: leftover bytes from the old
   one belong to a conversation that no longer exists. *)
let ensure_conn t =
  match t.conn with
  | Some c -> Ok c
  | None -> (
      match
        Client.connect ~connect_timeout_ms:t.policy.connect_timeout_ms
          t.listen
      with
      | c ->
          reset_rbuf t;
          t.conn <- Some c;
          t.s_reconnects <- t.s_reconnects + 1;
          Ok c
      | exception Unix.Unix_error (e, _, _) ->
          Error (Printf.sprintf "connect: %s" (Unix.error_message e))
      | exception Sys_error e -> Error (Printf.sprintf "connect: %s" e))

(* Pull one complete line out of [rbuf], if any.  Only bytes not
   scanned by an earlier call are searched, and the remainder after the
   line stays where it is. *)
let take_line t =
  let rec newline i =
    if i >= t.rlen then None
    else if Bytes.unsafe_get t.rbuf i = '\n' then Some i
    else newline (i + 1)
  in
  match newline t.scanned with
  | None ->
      t.scanned <- t.rlen;
      None
  | Some i ->
      let stop = if i > t.rpos && Bytes.get t.rbuf (i - 1) = '\r' then i - 1 else i in
      let line = Bytes.sub_string t.rbuf t.rpos (stop - t.rpos) in
      if i + 1 = t.rlen then reset_rbuf t
      else begin
        t.rpos <- i + 1;
        t.scanned <- i + 1
      end;
      Some line

(* Room for at least [want] more bytes after [rlen]: the unconsumed
   bytes move to the front, and the buffer doubles only if they fill
   it. *)
let make_room t ~want =
  if t.rlen + want > Bytes.length t.rbuf then begin
    let live = t.rlen - t.rpos in
    let dst =
      if live + want <= Bytes.length t.rbuf then t.rbuf
      else Bytes.create (max (live + want) (2 * Bytes.length t.rbuf))
    in
    Bytes.blit t.rbuf t.rpos dst 0 live;
    t.rbuf <- dst;
    t.scanned <- t.scanned - t.rpos;
    t.rpos <- 0;
    t.rlen <- live
  end

(* One reply line from the raw fd, or a verdict that none will come in
   time.  [select] + [read] keeps the buffered channel out of the read
   path entirely, so the deadline is exact and no bytes are stranded in
   a channel buffer across attempts. *)
let read_line_deadline t c ~deadline_ns =
  let fd = Client.fd c in
  let rec loop () =
    match take_line t with
    | Some line -> `Line line
    | None ->
        let remaining_s =
          Int64.to_float (Int64.sub deadline_ns (now_ns ())) /. 1e9
        in
        if remaining_s <= 0.0 then `Timeout
        else begin
          match Unix.select [ fd ] [] [] remaining_s with
          | [], _, _ -> loop () (* raced the deadline; re-check above *)
          | _ -> (
              make_room t ~want:4096;
              match Unix.read fd t.rbuf t.rlen (Bytes.length t.rbuf - t.rlen) with
              | 0 -> `Eof
              | n ->
                  t.rlen <- t.rlen + n;
                  loop ()
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
              | exception Unix.Unix_error _ -> `Lost)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | exception Unix.Unix_error _ -> `Lost
        end
  in
  loop ()

let retryable_code = function
  | Wire.Queue_full | Wire.Deadline_exceeded | Wire.Internal -> true
  | Wire.Bad_request | Wire.Oversized_frame | Wire.Shutting_down -> false

(* Exponential backoff with "equal jitter": half the step is
   deterministic growth, half is seeded noise — retries from many
   clients spread out instead of thundering back together. *)
let backoff t ~failures ~budget_deadline_ns =
  let p = t.policy in
  let step =
    min p.max_backoff_ms (p.base_backoff_ms * (1 lsl min failures 16))
  in
  if step > 0 then begin
    let jittered = (step / 2) + Prng.int t.rng (step / 2 + 1) in
    let remaining_ms =
      Int64.to_float (Int64.sub budget_deadline_ns (now_ns ())) /. 1e6
    in
    let sleep_ms = min (float_of_int jittered) (max 0.0 remaining_ms) in
    if sleep_ms > 0.0 then Thread.delay (sleep_ms /. 1000.0)
  end

let call t ?timeout_ms ?trace op =
  t.s_calls <- t.s_calls + 1;
  let p = t.policy in
  let budget_deadline_ns =
    Int64.add (now_ns ()) (Int64.of_int (p.call_budget_ms * 1_000_000))
  in
  let finish result =
    (match result with
    | Ok _ -> t.s_ok <- t.s_ok + 1
    | Error (Fatal _) -> t.s_fatal <- t.s_fatal + 1
    | Error (Exhausted _) -> t.s_gave_up <- t.s_gave_up + 1);
    result
  in
  (* [attempt] is 1-based; [last_err] travels so the Exhausted message
     names the actual failure, not just "ran out". *)
  let rec go ~attempt ~last_err =
    if attempt > p.max_attempts then
      finish
        (Error (Exhausted (Printf.sprintf "retries exhausted: %s" last_err)))
    else if Int64.compare (now_ns ()) budget_deadline_ns >= 0 then
      finish
        (Error (Exhausted (Printf.sprintf "call budget spent: %s" last_err)))
    else begin
      t.s_attempts <- t.s_attempts + 1;
      if attempt > 1 then t.s_retries <- t.s_retries + 1;
      match ensure_conn t with
      | Error msg -> retry ~attempt ~err:msg
      | Ok c -> (
          let token = t.token in
          t.token <- t.token + 1;
          let req = { Wire.id = Json.Int token; op; timeout_ms; trace } in
          match Client.send_line c (Json.to_string (Wire.request_to_json req)) with
          | exception (Sys_error _ | Unix.Unix_error _) ->
              drop_conn t;
              retry ~attempt ~err:"write failed: connection lost"
          | () -> await_reply c ~attempt ~token)
    end
  and await_reply c ~attempt ~token =
    let attempt_deadline_ns =
      let d =
        Int64.add (now_ns ())
          (Int64.of_int (t.policy.attempt_timeout_ms * 1_000_000))
      in
      if Int64.compare d budget_deadline_ns < 0 then d else budget_deadline_ns
    in
    let rec read_one () =
      match read_line_deadline t c ~deadline_ns:attempt_deadline_ns with
      | `Timeout ->
          (* keep the connection: the reply may still arrive and will be
             discarded as stale by the token check of a later attempt *)
          retry ~attempt ~err:"attempt timed out waiting for reply"
      | `Eof ->
          drop_conn t;
          retry ~attempt ~err:"connection closed by server"
      | `Lost ->
          drop_conn t;
          retry ~attempt ~err:"connection lost"
      | `Line "" -> read_one ()
      | `Line line -> (
          match Json.of_string line with
          | Error _ ->
              (* a corrupted frame; framing itself survived, so the
                 connection is still usable for the retry *)
              t.s_garbled <- t.s_garbled + 1;
              retry ~attempt ~err:"garbled reply frame"
          | Ok j -> (
              match Wire.parse_response j with
              | Error e ->
                  t.s_garbled <- t.s_garbled + 1;
                  retry ~attempt ~err:(Printf.sprintf "invalid response: %s" e)
              | Ok resp when resp.Wire.resp_id <> Json.Int token ->
                  (* an answer to a past attempt we stopped waiting for *)
                  t.s_stale <- t.s_stale + 1;
                  read_one ()
              | Ok resp -> (
                  match resp.Wire.outcome with
                  | Ok _ -> finish (Ok resp)
                  | Error (code, msg) ->
                      if retryable_code code then
                        retry ~attempt
                          ~err:
                            (Printf.sprintf "%s: %s"
                               (Wire.error_code_to_string code)
                               msg)
                      else finish (Error (Fatal (code, msg))))))
    in
    read_one ()
  and retry ~attempt ~err =
    backoff t ~failures:attempt ~budget_deadline_ns;
    go ~attempt:(attempt + 1) ~last_err:err
  in
  go ~attempt:1 ~last_err:"no attempt made"

let stats t =
  {
    calls = t.s_calls;
    ok = t.s_ok;
    fatal = t.s_fatal;
    gave_up = t.s_gave_up;
    attempts = t.s_attempts;
    retries = t.s_retries;
    reconnects = t.s_reconnects;
    stale_dropped = t.s_stale;
    garbled = t.s_garbled;
  }
