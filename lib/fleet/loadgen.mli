(** Open-loop load harness (`scanatpg batch --rate R --duration S`).

    Arrival [i] of [ceil (rate * duration)] goes on the wire at
    [t0 + i/rate] whether or not earlier responses have returned — the
    sender never self-throttles, so overload shows up in the measured
    tail instead of silently stretching the run.  The schedule is fully
    deterministic: uniform spacing, template per arrival drawn by an
    FNV-1a hash of [(seed, i)].  Latency for each request is measured
    from its {e scheduled} arrival time, charging the server for
    queueing even when the sender fell behind.

    All requests pipeline over one connection through the batch
    client's {!Server.Client.pipeline}, whose reader domain feeds an
    {!Obs.Hist}.  There are no retries — the harness is a
    measurement instrument, not a delivery mechanism. *)

type report = {
  offered_rps : float;
  duration_s : float;
  sent : int;  (** frames actually written (short on transport failure) *)
  completed : int;  (** responses collected *)
  lost : int;  (** [sent - completed] *)
  achieved_rps : float;
  by_status : (string * int) list;  (** response [status] tallies, sorted *)
  p50_ms : float;
  p90_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;  (** upper bound of the hottest histogram bucket *)
}

(** [run ~addr ~templates ~rate ~duration_s ~seed ()] replays the
    deterministic schedule against [addr].  [templates] are JSONL
    request lines; any [id] field is stripped and restamped per
    arrival.
    @raise Invalid_argument on a non-positive rate/duration or an empty
    template list; [Failure] on an unparsable template. *)
val run :
  addr:Server.Daemon.addr ->
  templates:string list ->
  rate:float ->
  duration_s:float ->
  seed:int ->
  unit ->
  report

(** The deterministic template draw for arrival [i]: FNV-1a over
    [(seed, i)] mod [n].  Exposed for tests. *)
val pick : seed:int -> n:int -> int -> int

(** Machine-readable report, schema [scanatpg-load/1]. *)
val report_json : report -> Obs.Json.t

(** Human-readable summary on stderr. *)
val print_report : report -> unit
