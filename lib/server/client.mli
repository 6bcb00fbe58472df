(** Blocking client for the service daemon, and the `scanatpg batch`
    runner built on top of it. *)

type conn

val connect : Daemon.addr -> conn
val close : conn -> unit

(** The raw descriptor, for callers that pipeline frames themselves
    (e.g. the bench harness) via {!Protocol.write_frame} /
    {!Protocol.read_frame}. *)
val fd : conn -> Unix.file_descr

(** [call conn payload] sends one request frame and blocks for one
    response frame.  Raises [Failure] if the daemon hangs up first. *)
val call : conn -> string -> string

(** [pipeline conn ~write ~on_response] calls [write send] on the
    calling domain, where [send] writes one request frame, while a
    reader domain passes each response frame to [on_response]; then it
    half-closes [conn] and returns, once every sent frame is answered or
    the peer hangs up, the number of frames sent and of responses read.
    A transport failure on either side just ends that side early. *)
val pipeline :
  conn -> write:((string -> unit) -> unit) -> on_response:(string -> unit) ->
  int * int

(** The non-blank lines of a JSONL file.
    @raise Failure when it cannot be read. *)
val read_lines : string -> string list

(** [object_fields ~what idx line] parses the JSONL line at 0-based
    position [idx] into an object's fields.
    @raise Failure naming [what] and [idx + 1] when it is not one. *)
val object_fields : what:string -> int -> string -> (string * Obs.Json.t) list

(** The ["status"] of a response payload, ["error"] when it has none. *)
val status_of_payload : string -> string

(** Outcome of one batch request, in input-file order. *)
type outcome = {
  id : int;
  status : string;
      (** ok | degraded | error | overloaded | internal_error | lost *)
  payload : string option;  (** [None] when no response was ever seen *)
}

(** [run_batch ~addr ~input ()] pipelines every JSONL line of [input] as
    a request frame (assigning sequential ids to lines that lack one),
    collects responses by id, and writes the response payloads in request
    order — one per line — to [output] (through {!Obs.Fileio}) or stdout.

    [retries] (default 0) makes the batch idempotently survive dropped
    connections: after a transport failure the client reconnects and
    replays only the still-unanswered requests, up to [retries] extra
    attempts, backing off exponentially from [backoff_ms] (default 100)
    with deterministic jitter.  A request that already has a typed
    response is final and never resent; replay is safe because compute
    payloads are pure functions of their requests (DESIGN.md §10), so a
    retried batch is byte-identical to an uninterrupted one.  A refused
    initial connection still raises — nothing was ever sent.

    Returns the outcomes in request order.  A response never delivered
    (daemon drained away mid-batch, retries exhausted) reports status
    ["lost"].
    @raise Failure, before connecting, when [input] is unreadable, a
    line is not a JSON object, or two requests share an id. *)
val run_batch :
  addr:Daemon.addr ->
  input:string ->
  ?output:string ->
  ?retries:int ->
  ?backoff_ms:int ->
  unit ->
  outcome list
