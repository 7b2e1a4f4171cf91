(** Zero-dependency JSON values, printing and parsing.

    The telemetry layer ({!Instrument}, the JSONL trace export, the
    [--json] modes of [gossip_lab] and the benchmark report) needs a
    small, deterministic JSON representation with no external package.
    This module provides exactly that: a value type, escaped compact and
    pretty printers, and a strict recursive-descent parser used by the
    tests and the CI lint to validate everything the tools emit.

    Numbers are split into {!Int} and {!Float}.  The printer renders a
    float with the first of [%.12g], [%.15g] and [%.17g] that parses
    back to the same float (not the shortest round-tripping precision:
    a float that needs 13 or 14 digits prints 15), always containing
    ['.'], ['e'] or ['E'], so [of_string (to_string j)] reconstructs
    [j] exactly; NaN and infinities — which JSON cannot represent —
    print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [to_string j] — compact rendering, no whitespace.  One line, fit for
    JSONL streams. *)
val to_string : t -> string

(** [to_string_pretty j] — 2-space-indented rendering for humans. *)
val to_string_pretty : t -> string

(** [pp ppf j] prints the pretty rendering. *)
val pp : Format.formatter -> t -> unit

(** [of_string s] parses one JSON value occupying the whole string
    (surrounding whitespace allowed).  Strict: rejects trailing garbage,
    unescaped control characters, unpaired surrogates and malformed
    numbers, leading zeros included ([01], [-01], [00]; RFC 8259).
    [\uXXXX] escapes (including surrogate pairs) decode to UTF-8.
    Numbers with a fraction or exponent parse as {!Float}, others as
    {!Int} — or as {!Float} when they overflow [int].  An error reads
    ["at offset N: reason"], [N] the byte offset of the offending
    character. *)
val of_string : string -> (t, string) result

(** {1 Accessors} *)

(** [member key j] — the field [key] of an object, [None] on a missing
    key or a non-object. *)
val member : string -> t -> t option

(** [to_float_opt j] — the numeric value of an {!Int} or {!Float}. *)
val to_float_opt : t -> float option

val to_int_opt : t -> int option

val to_string_opt : t -> string option

val to_list_opt : t -> t list option
