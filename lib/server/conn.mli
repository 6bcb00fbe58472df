(** One accepted client connection of a front end — the daemon
    ({!Daemon}) or the sharding router — and the one policy both apply
    to it (DESIGN.md §13): how bytes become frames, how a connection is
    accepted, written and closed, and how a lost frame is counted.

    The front end's counters are reached through the [count] hook given
    to {!accept}: [count k] adds one to its [<prefix>.k] counter, [k]
    being ["bad_request"] or ["conn_aborted"]. *)

type t = private {
  fd : Unix.file_descr;
  cid : int;  (** connection serial, for trace ids *)
  peer : string;  (** ["unix"] or ["<ip>:<port>"] *)
  dec : Protocol.decoder;
  wmu : Mutex.t;  (** guards [inflight], [closed] and every write *)
  fp : Obs.Failpoint.t;  (** its [writer] site faults {!send} *)
  count : string -> unit;
  mutable frames : int;  (** frames read so far *)
  mutable inflight : int;
  mutable eof : bool;
  mutable closed : bool;
  mutable last_ns : int;  (** last byte received (idle clock) *)
  mutable partial_ns : int;  (** first byte of an incomplete frame, or 0 *)
}

(** [accept ~fp ~count ~cid listen_fd] accepts one pending connection,
    close-on-exec, with a 30 s send timeout and, over TCP,
    [SO_KEEPALIVE]; [None] when [accept(2)] fails. *)
val accept :
  fp:Obs.Failpoint.t -> count:(string -> unit) -> cid:int ->
  Unix.file_descr -> t option

(** [send c payload] writes one response frame, unless [c] is closed.  A
    failed write or an injected [writer] fault closes [c] and counts
    [conn_aborted]. *)
val send : t -> string -> unit

(** [read c buf ~on_frame] is one readable tick of the select loop: it
    passes every completed frame to [on_frame] and stamps [last_ns] and
    [partial_ns].  A hang-up mid-frame counts [bad_request] and
    [conn_aborted]; an oversized length prefix counts the same pair,
    is answered with a typed [{"id":0,"status":"error"}] and is hung
    up on.  A connection at EOF or closed is left alone. *)
val read : t -> bytes -> on_frame:(string -> unit) -> unit

(** [admit c] counts one more request in flight on [c]; [finish c]
    settles one, closing [c] once it is at EOF with none left. *)
val admit : t -> unit

val finish : t -> unit

(** In-flight count, read under the write lock. *)
val inflight : t -> int

val alive : t -> bool

(** Idempotent close. *)
val close : t -> unit

(** [abort c] counts a lost frame ([bad_request] and [conn_aborted])
    and closes [c]: the read-deadline cut. *)
val abort : t -> unit
