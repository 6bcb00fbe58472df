(** The `scanatpg serve` daemon (DESIGN.md §11).

    One accept/read loop on the calling domain multiplexes every client
    connection with [select]; [jobs] worker domains execute compute
    requests from a bounded queue.  Admission control is strict: when the
    queue is full a request is answered immediately with a typed
    [overloaded] payload instead of queueing unboundedly.  Admin requests
    ([ping], [stats], [shutdown], [chaos]) are answered inline by the
    accept loop — they stay responsive while every worker is busy.

    Hardening (DESIGN.md §13): worker domains contain crashes — an
    exception escaping a job becomes a typed [internal_error] response
    plus a [server.worker_restarts] bump and the worker loops on, never
    a dead domain starving the queue.  A dead or injected-faulty
    response write poisons only its connection ([server.conn_aborted]).
    Connections are swept for read-deadline (mid-frame stall, slowloris)
    and idle-timeout breaches each select tick, and a per-connection
    in-flight cap keeps one pipelining client from monopolising the
    queue.  Fault-injection sites ([accept], [queue], [worker],
    [cache.compile], [writer]) are compiled in permanently and armed via
    [--chaos] or the [chaos] op — unarmed they cost one atomic load.

    Graceful drain (SIGTERM, SIGINT or a [shutdown] request): the
    listening socket closes, no further requests are admitted, queued and
    in-flight work runs to completion — and is budget-tripped once
    [drain_grace_s] elapses, so every admitted request is answered with
    its result or a typed [degraded] response, never cut off mid-frame.
    After the workers join, final metrics and the request trace are
    written through {!Obs.Fileio} and [run] returns 0.

    Observability plane (DESIGN.md §12): every request gets a
    deterministic trace id ([c<cid>-r<n>], stable per connection); when
    [trace_path] or [slow_ms] is set, workers record per-request span
    trees ([request] → [generate]/[compact] → [flow.*]) into
    single-domain collectors folded into a global one at completion.
    Queue-wait, service, end-to-end and per-op latencies feed shared
    power-of-two histograms, exposed with percentiles by the [stats] op
    (JSON or Prometheus text).  The access log streams one enriched line
    per request ([trace_id], [queue_wait_ns], [service_ns], [bytes_in],
    [bytes_out], [cache]) and is flushed per line so [tail -f] follows a
    live daemon — the one deliberate exception to the {!Obs.Fileio}
    atomic-write convention.  All of this is timing-derived and stays
    out of compute response payloads, which remain byte-deterministic. *)

type addr =
  | Unix_sock of string  (** path of a Unix-domain socket (created) *)
  | Tcp of string * int  (** opt-in TCP, e.g. ("127.0.0.1", 7227) *)

type trace_format =
  | Jsonl  (** one span object per line (the CLI's [--trace] format) *)
  | Chrome  (** Chrome trace-event array, loadable in Perfetto *)

type config = {
  addr : addr;
  jobs : int;  (** worker domains executing compute requests *)
  queue_depth : int;  (** admission bound on waiting requests *)
  cache_capacity : int;  (** compiled circuits kept resident *)
  default_scale : Circuits.Profiles.scale;
  access_log : string option;
      (** JSONL, one line per request, flushed per line (tail-able) *)
  metrics_path : string option;  (** final metrics document, at drain *)
  trace_path : string option;  (** merged request spans, at drain *)
  trace_format : trace_format;
  slow_ms : int option;
      (** requests over this end-to-end threshold log their span tree *)
  drain_grace_s : float;  (** seconds before a drain trips in-flight budgets *)
  idle_timeout_s : float option;
      (** close a connection with no traffic, no partial frame and no
          in-flight requests after this long (counted under
          [server.conn_idle_closed]); [None] (default) keeps idle
          connections forever *)
  read_deadline_s : float option;
      (** slowloris defence: a started frame must complete within this
          deadline or the connection is cut (counted under
          [server.bad_request] and [server.conn_aborted]); default 30s,
          [None] disables *)
  max_inflight : int;
      (** per-connection in-flight cap — a pipelining client exceeding
          it gets a typed [overloaded] rejection, so one connection
          cannot claim the whole queue (default 64) *)
  chaos : string option;
      (** initial {!Obs.Failpoint} spec ([--chaos]); sites [accept],
          [queue], [worker], [cache.compile], [writer].  The registry is
          always live and reconfigurable at runtime via the [chaos] op;
          @raise Invalid_argument from [run] on a malformed spec *)
  install_signals : bool;  (** SIGTERM/SIGINT → drain (off in tests) *)
  verbose : bool;  (** lifecycle messages on stderr *)
}

val default_config : addr -> config

(** [run config] serves until drained; returns the process exit code
    (0 after a clean drain).  Blocks the calling domain. *)
val run : config -> int
