(** Wire protocol of the ATPG service daemon (DESIGN.md §11).

    Frames are length-prefixed: a 4-byte big-endian unsigned payload
    length followed by exactly that many bytes of UTF-8 JSON.  One frame
    carries one request or one response.  Responses reference their
    request's [id]; the daemon may answer out of order (workers finish
    when they finish), so clients must correlate by id, never by arrival
    position.

    The {!decoder} is a pure incremental byte-stream reassembler: feed it
    whatever chunks [read(2)] produced — one byte at a time, a frame and
    a half, three frames at once — and pull complete frames out.  That
    keeps the framing testable without sockets and makes short/split
    reads a non-event. *)

(** {1 Framing} *)

(** Hard ceiling a decoder enforces on the announced payload length
    (16 MiB) — a corrupt or hostile length prefix must not make the
    daemon allocate unboundedly. *)
val max_frame_default : int

exception Frame_too_large of { announced : int; max : int }

type decoder

val decoder : ?max_frame:int -> unit -> decoder

(** [feed d buf off len] appends bytes into the reassembly buffer. *)
val feed : decoder -> bytes -> int -> int -> unit

(** [next d] pops the next complete frame payload, or [None] when more
    bytes are needed.
    @raise Frame_too_large as soon as an oversized length prefix is seen
    (before any payload is buffered). *)
val next : decoder -> string option

(** Bytes buffered beyond the last complete frame.  Non-zero after the
    peer hangs up means it died mid-frame — the daemon counts that under
    [server.bad_request] / [server.conn_aborted]. *)
val pending : decoder -> int

(** [encode_frame payload] is the prefix + payload, ready to write. *)
val encode_frame : string -> string

(** Blocking helpers over a file descriptor (used by client and tests;
    the daemon feeds its decoders from the select loop instead).
    [read_frame] reads exact byte counts — it never consumes bytes past
    the frame it returns — and returns [None] on a clean EOF at a frame
    boundary.  Both sides restart on EINTR and loop over short
    reads/writes, so signals and slow peers are not protocol events. *)
val write_frame : Unix.file_descr -> string -> unit

val read_frame : ?max_frame:int -> Unix.file_descr -> string option

(** What one {!pump} left the connection as. *)
type pumped =
  | Open  (** still readable (including an EINTR/EAGAIN wake-up) *)
  | Eof  (** the peer hung up; ECONNRESET and EPIPE count as EOF *)
  | Oversized of { announced : int; max : int }
      (** a length prefix past the decoder's ceiling; the stream cannot
          be resynchronised *)

(** [pump d fd buf ~on_frame] is one readable tick of a select loop:
    one [read(2)] of [fd] into [buf], fed to [d], then [on_frame] on
    every frame it completed, in order.  Frames before an oversized
    prefix are still delivered. *)
val pump :
  decoder -> Unix.file_descr -> bytes -> on_frame:(string -> unit) -> pumped

(** {1 Requests} *)

exception Bad_request of string

type circuit_src =
  | Catalog of string  (** a catalog name, e.g. ["s298"] *)
  | Bench of string  (** inline [.bench] netlist text (content-addressed) *)

(** Common compute parameters; defaults mirror the CLI. *)
type compute = {
  src : circuit_src;
  scale : Circuits.Profiles.scale;
  seed : int64;
  chains : int;
  sim_jobs : int;
  compact_jobs : int;
  deadline_s : float option;
  max_backtracks : int option;
}

type op =
  | Ping
  | Stats of { prom : bool }
      (** [prom] (request field ["format": "prometheus"]) asks for the
          Prometheus text exposition instead of the JSON document *)
  | Shutdown
  | Chaos of { spec : string option }
      (** reconfigure the daemon's fault-injection sites at runtime
          ({!Obs.Failpoint} spec grammar; [None] queries, ["off"]
          clears); answered inline like the other admin ops *)
  | Generate of {
      c : compute;
      compact : bool;
      return_sequence : bool;
    }
  | Compact of {
      c : compute;
      sequence : string list;  (** one 01x vector per entry *)
    }
  | Table of { c : compute }

type request = {
  id : int;
  op : op;
}

val op_name : op -> string

(** Parse one request payload.
    @raise Bad_request on JSON errors, unknown ops or missing fields. *)
val request_of_string : string -> request

(** [canonical_of_request ?id ?drop_jobs req] re-renders a parsed
    request in the canonical wire form: [id] first, [op] second, every
    compute field explicit with the parser's defaults applied, keys in a
    fixed order.  The rendering round-trips —
    [request_of_string (canonical_of_request ~id req)] parses back to
    [req] under [id] — so a router may forward the canonical form to a
    backend in place of the client's original bytes.

    [drop_jobs] additionally omits [sim_jobs]/[compact_jobs], the two
    knobs the determinism contract (DESIGN.md §11) proves
    payload-invisible; with it the rendering is a valid content-address
    for whole-response memoization: requests differing only in
    parallelism share one key. *)
val canonical_of_request : ?id:int -> ?drop_jobs:bool -> request -> string

(** {1 Responses} *)

(** The request's [id] when [payload] parses as a JSON object with an
    integer [id], else 0: the id a typed error for a malformed request
    is answered under, so a pipelining client can still correlate it. *)
val salvage_id : string -> int

(** [error_response ~id kind message] renders the typed error payload
    [{"id":id,"status":kind,"error":message}]; [kind] is ["error"],
    ["overloaded"] or ["internal_error"]. *)
val error_response : id:int -> string -> string -> string

(** {1 Admin replies}

    Rendered once here for the daemon and the router, so both answer
    with the same document shapes.  These payloads report live state and
    are the documented exception to byte-determinism (except [ping]). *)

(** [ok_response ~id op] is the bare acknowledgement
    [{"id":id,"op":op,"status":"ok"}] — the [ping] and [shutdown] reply. *)
val ok_response : id:int -> string -> string

(** [stats_response ~id ~prom ~extra m] renders the [stats] reply from
    the metrics document [m]: with [prom], its Prometheus text under
    ["text"]; otherwise ["counters"], ["phases"] and ["histograms"] (each
    with [count], [sum] and [p50]/[p90]/[p95]/[p99]) followed by the
    caller's own [extra] sections. *)
val stats_response :
  id:int -> prom:bool -> extra:(string * Obs.Json.t) list -> Obs.Metrics.t ->
  string

(** [chaos_response ~id fp] is the [chaos] reply: the installed spec
    under ["active"] and the per-site fire counts under ["fires"]. *)
val chaos_response : id:int -> Obs.Failpoint.t -> string
