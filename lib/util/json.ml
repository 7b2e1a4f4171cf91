type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* {2 Printing} *)

(* Runs of bytes that need no escaping are copied with one
   [add_substring]; a string with nothing to escape is copied whole. *)
let escape_into buf s =
  let n = String.length s in
  let flush from upto =
    if upto > from then Buffer.add_substring buf s from (upto - from)
  in
  let rec go from i =
    if i = n then flush from i
    else
      match String.unsafe_get s i with
      | '"' | '\\' | '\000' .. '\031' as c ->
          flush from i;
          (match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\b' -> Buffer.add_string buf "\\b"
          | '\012' -> Buffer.add_string buf "\\f"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\r' -> Buffer.add_string buf "\\r"
          | '\t' -> Buffer.add_string buf "\\t"
          | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
          go (i + 1) (i + 1)
      | _ -> go from (i + 1)
  in
  go 0 0

(* The same C primitive [Printf.sprintf "%.Ng"] ends in, without the
   format interpretation around it: identical bytes. *)
external format_float : string -> float -> string = "caml_format_float"

(* The first of [%.12g], [%.15g], [%.17g] that parses back to the same
   float; forced to contain '.' or an exponent so the reader can tell
   floats from ints.  Tried from 15 digits: no decimal of up to 15
   digits, 12-digit ones included, is nearer [f] than the 15-digit one,
   so if 12 digits parse back to [f] 15 do too, and a float that fails
   at 15 digits goes straight to 17. *)
let float_repr f =
  if Float.is_nan f || Float.abs f = Float.infinity then "null"
  else begin
    let s15 = format_float "%.15g" f in
    let s =
      if float_of_string s15 <> f then format_float "%.17g" f
      else
        let s12 = format_float "%.12g" f in
        if float_of_string s12 = f then s12 else s15
    in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"
  end

let rec write ~indent ~level buf j =
  let pad n = Buffer.add_string buf (String.make (n * 2) ' ') in
  let sep_items items f =
    match indent with
    | false ->
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            f x)
          items
    | true ->
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            Buffer.add_char buf '\n';
            pad (level + 1);
            f x)
          items;
        Buffer.add_char buf '\n';
        pad level
  in
  match j with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
      Buffer.add_char buf '"';
      escape_into buf s;
      Buffer.add_char buf '"'
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      Buffer.add_char buf '[';
      sep_items items (write ~indent ~level:(level + 1) buf);
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      Buffer.add_char buf '{';
      sep_items fields (fun (k, v) ->
          Buffer.add_char buf '"';
          escape_into buf k;
          Buffer.add_string buf "\":";
          if indent then Buffer.add_char buf ' ';
          write ~indent ~level:(level + 1) buf v);
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write ~indent:false ~level:0 buf j;
  Buffer.contents buf

let to_string_pretty j =
  let buf = Buffer.create 256 in
  write ~indent:true ~level:0 buf j;
  Buffer.contents buf

let pp ppf j = Format.pp_print_string ppf (to_string_pretty j)

(* {2 Parsing} *)

exception Parse_error of int * string

let fail pos msg = raise (Parse_error (pos, msg))

type cursor = { src : string; mutable pos : int }

(* Scanning is by index; [peek] and its option are left to the escape
   decoder, the one place that still walks a byte at a time. *)
let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let looking_at c ch =
  c.pos < String.length c.src && String.unsafe_get c.src c.pos = ch

let skip_ws c =
  let s = c.src in
  let n = String.length s in
  let i = ref c.pos in
  while
    !i < n
    && match String.unsafe_get s !i with
       | ' ' | '\t' | '\n' | '\r' -> true
       | _ -> false
  do
    incr i
  done;
  c.pos <- !i

let expect c ch =
  if c.pos >= String.length c.src then
    fail c.pos (Printf.sprintf "expected %c, found end of input" ch)
  else
    let x = String.unsafe_get c.src c.pos in
    if x = ch then advance c
    else fail c.pos (Printf.sprintf "expected %c, found %c" ch x)

let literal c word value =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then begin
    c.pos <- c.pos + n;
    value
  end
  else fail c.pos (Printf.sprintf "invalid literal, expected %s" word)

let utf8_of_code buf u =
  if u < 0x80 then Buffer.add_char buf (Char.chr u)
  else if u < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (u lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else if u < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (u lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (u lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (u land 0x3F)))
  end

let hex4 c =
  let digit ch =
    match ch with
    | '0' .. '9' -> Char.code ch - Char.code '0'
    | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
    | _ -> fail c.pos "invalid hex digit in \\u escape"
  in
  let v = ref 0 in
  for _ = 1 to 4 do
    (match peek c with
    | Some ch -> v := (!v * 16) + digit ch
    | None -> fail c.pos "truncated \\u escape");
    advance c
  done;
  !v

(* The rest of a string after its first escape (or its end, or a
   control character: the errors are raised here), a byte at a time. *)
let parse_escaped c buf =
  let rec go () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail c.pos "truncated escape"
        | Some ch ->
            advance c;
            (match ch with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let u = hex4 c in
                if u >= 0xD800 && u <= 0xDBFF then begin
                  (* high surrogate: a low surrogate must follow *)
                  (match (peek c, c.pos + 1 < String.length c.src) with
                  | Some '\\', true when c.src.[c.pos + 1] = 'u' ->
                      advance c;
                      advance c;
                      let lo = hex4 c in
                      if lo >= 0xDC00 && lo <= 0xDFFF then
                        utf8_of_code buf
                          (0x10000
                          + ((u - 0xD800) lsl 10)
                          + (lo - 0xDC00))
                      else fail c.pos "unpaired surrogate"
                  | _ -> fail c.pos "unpaired surrogate")
                end
                else if u >= 0xDC00 && u <= 0xDFFF then
                  fail c.pos "unpaired surrogate"
                else utf8_of_code buf u
            | _ -> fail (c.pos - 1) "invalid escape character");
            go ())
    | Some ch when Char.code ch < 0x20 ->
        fail c.pos "unescaped control character in string"
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

(* An escape-free string is one [String.sub]; otherwise the plain
   prefix is copied and the rest decoded a byte at a time. *)
let parse_string c =
  expect c '"';
  let s = c.src and start = c.pos in
  let n = String.length s in
  let i = ref start in
  while
    !i < n
    && match String.unsafe_get s !i with
       | '"' | '\\' | '\000' .. '\031' -> false
       | _ -> true
  do
    incr i
  done;
  if !i < n && String.unsafe_get s !i = '"' then begin
    c.pos <- !i + 1;
    String.sub s start (!i - start)
  end
  else begin
    c.pos <- !i;
    let buf = Buffer.create (!i - start + 16) in
    Buffer.add_substring buf s start (!i - start);
    parse_escaped c buf
  end

let is_digit = function '0' .. '9' -> true | _ -> false

(* RFC 8259 numbers: the integer part is "0" or starts with 1-9.  A
   number without fraction or exponent is an [Int] when it fits. *)
let parse_number c =
  let s = c.src and start = c.pos in
  let n = String.length s in
  let digits from =
    let i = ref from in
    while !i < n && is_digit (String.unsafe_get s !i) do
      incr i
    done;
    if !i = from then fail from "expected digit";
    !i
  in
  let int_start = if s.[start] = '-' then start + 1 else start in
  let int_end = digits int_start in
  if s.[int_start] = '0' && int_end > int_start + 1 then
    fail (int_start + 1) "leading zero in number";
  let frac_end =
    if int_end < n && s.[int_end] = '.' then digits (int_end + 1) else int_end
  in
  let stop =
    if frac_end < n && (s.[frac_end] = 'e' || s.[frac_end] = 'E') then
      let i = frac_end + 1 in
      digits (if i < n && (s.[i] = '+' || s.[i] = '-') then i + 1 else i)
    else frac_end
  in
  c.pos <- stop;
  let text = String.sub s start (stop - start) in
  if stop > int_end then Float (float_of_string text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> Float (float_of_string text)

let rec parse_value c =
  skip_ws c;
  if c.pos >= String.length c.src then fail c.pos "unexpected end of input";
  match String.unsafe_get c.src c.pos with
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '"' -> Str (parse_string c)
  | '-' | '0' .. '9' -> parse_number c
  | '[' ->
      advance c;
      skip_ws c;
      if looking_at c ']' then begin
        advance c;
        List []
      end
      else begin
        let items = ref [ parse_value c ] in
        skip_ws c;
        while looking_at c ',' do
          advance c;
          items := parse_value c :: !items;
          skip_ws c
        done;
        expect c ']';
        List (List.rev !items)
      end
  | '{' ->
      advance c;
      skip_ws c;
      if looking_at c '}' then begin
        advance c;
        Obj []
      end
      else begin
        let field () =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws c;
        while looking_at c ',' do
          advance c;
          fields := field () :: !fields;
          skip_ws c
        done;
        expect c '}';
        Obj (List.rev !fields)
      end
  | ch -> fail c.pos (Printf.sprintf "unexpected character %c" ch)

let of_string s =
  let c = { src = s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> String.length s then fail c.pos "trailing garbage after value";
    v
  with
  | v -> Ok v
  | exception Parse_error (pos, msg) ->
      Error (Printf.sprintf "at offset %d: %s" pos msg)

(* {2 Accessors} *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None

let to_list_opt = function List l -> Some l | _ -> None
