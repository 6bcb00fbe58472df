(** Minimal JSON reading and writing shared by the trace and metrics
    emitters and the server wire protocol.

    The repo deliberately carries no JSON dependency; every document we
    emit is assembled from these primitives, and every document we accept
    (server requests, batch replay files) is read back through {!parse}.
    The emitter and parser roundtrip: [parse (to_string v)] equals [v] for
    any value built from finite floats (QCheck-verified in [test_obs]). *)

(** Raised by {!float} and {!to_string} on NaN or infinite floats, which
    JSON cannot represent.  Telemetry documents never contain them (phase
    timers are finite by construction); a request that would smuggle one
    onto the wire is rejected with this typed error instead of silently
    emitting a placeholder. *)
exception Non_finite of float

(** Position is a 0-based byte offset into the parsed string. *)
exception Parse_error of { pos : int; message : string }

(** A parsed JSON document.  Numbers without a fraction or exponent that
    fit in an OCaml [int] parse as [Int]; everything else parses as
    [Float].  Object member order is preserved. *)
type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(** Escape a string's contents for inclusion inside JSON quotes: every
    control character (U+0000–U+001F) plus the quote and backslash. *)
val escape : string -> string

(** [quote s] is [s] escaped and wrapped in double quotes. *)
val quote : string -> string

(** Render a finite float as a JSON number.
    @raise Non_finite on NaN and infinities. *)
val float : float -> string

(** Compact single-line rendering (no spaces after separators).  [Float]
    leaves are printed with 17 significant digits so they roundtrip
    bit-exactly through {!parse}.
    @raise Non_finite on NaN / infinite [Float] leaves. *)
val to_string : t -> string

(** [parse s] parses exactly one JSON document (surrounding whitespace
    allowed, trailing garbage rejected).
    @raise Parse_error on malformed input. *)
val parse : string -> t

(** {2 Accessors} — total lookups for picking requests apart. *)

(** [member name v] is the value of field [name] when [v] is an object
    that has it. *)
val member : string -> t -> t option

(** [get_int], [get_float], [get_bool], [get_str] project a leaf; [Int]
    converts to float for [get_float]. *)
val get_int : t -> int option

val get_float : t -> float option
val get_bool : t -> bool option
val get_str : t -> string option
val get_arr : t -> t list option
