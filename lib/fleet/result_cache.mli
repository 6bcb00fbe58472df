(** Content-addressed whole-response memoization (DESIGN.md §15).

    The determinism contract (DESIGN.md §11) makes compute responses
    pure functions of their canonical request — byte-identical at any
    worker count or cache state — so the router may answer a repeated
    request from memory without consulting a shard at all.  The cache maps a canonical request rendering
    ({!Server.Protocol.canonical_of_request} with [id = 0] and
    [drop_jobs], so requests differing only in parallelism share a key)
    to the response payload bytes with the [id] field stripped; a hit
    re-addresses the stored bytes to the asking request's id.

    Validity boundary: only [ok] responses to compute ops are inserted.
    [stats] reports live counters, [chaos]/[shutdown] mutate the daemon,
    [degraded] depends on how much budget was left, [overloaded] /
    [internal_error] on transient state — none are functions of the
    request alone.  The router enforces that boundary; this module just
    stores what it is given.

    Bounded LRU, single-owner (the router loop); no internal locking. *)

type t

type stats = {
  hits : int;
  misses : int;
  insertions : int;
  evictions : int;
}

val create : capacity:int -> t
val capacity : t -> int

(** Resident entry count. *)
val length : t -> int

val stats : t -> stats

(** [split_id payload] splits a response payload rendered with the [id]
    field first — [{"id":N,...}] — into [(N, suffix)] where [suffix] is
    everything after the id digits.  [None] when the payload does not
    have that shape (such a payload is simply not cacheable). *)
val split_id : string -> (int * string) option

(** [splice_id ~id suffix] is the payload [{"id":id<suffix>] — the
    inverse of {!split_id} under a new id. *)
val splice_id : id:int -> string -> string

(** [find t ~key] returns the stored suffix and bumps the entry to most
    recently used; counts a hit or a miss either way. *)
val find : t -> key:string -> string option

(** [add t ~key ~suffix] inserts (evicting least recently used beyond
    capacity).  A key already present keeps its existing suffix — by
    purity both renderings are identical anyway. *)
val add : t -> key:string -> suffix:string -> unit

(** Membership without touching hit/miss accounting or LRU order. *)
val mem : t -> key:string -> bool
