(** Content-addressed LRU cache of compiled circuits.

    Parsing a netlist, inserting the scan chain, elaborating the fault
    model (levelization, fault collapsing, SCOAP) is the fixed cost every
    ATPG request pays before any real work starts; for a service it is
    pure setup that depends only on the netlist text and the chain count.
    The cache keys that setup by an FNV-1a 64 hash of a canonical key
    string — for inline netlists the raw [.bench] text (content
    addressing: byte-identical text hits regardless of file name), for
    catalog circuits the name/scale pair — plus the chain count, and
    keeps the [capacity] most recently used compiled entries resident.

    Thread safety: a single internal mutex guards the LRU list {e and}
    stays held across a miss's compile callback.  Concurrent requests for
    the same new circuit therefore compile it exactly once (the loser of
    the race hits), at the price of serializing compiles of distinct new
    circuits — the right trade for a cache whose hit path is the whole
    point. *)

type compiled = {
  circuit : Netlist.Circuit.t;  (** the original (pre-scan) circuit *)
  scan : Scanins.Scan.t;
  model : Faultmodel.Model.t;
  (** of [scan.circuit]: levelized, collapsed fault list, SCOAP *)
  sk : Atpg.Scan_knowledge.t;
}

type entry = {
  key : string;
  hash : int64;  (** FNV-1a 64 of [key] *)
  compiled : compiled;
}

type t

val create : capacity:int -> t
val capacity : t -> int

(** Resident entry count (for the [stats] response). *)
val length : t -> int

(** Canonical cache key of a request's circuit source. *)
val key_of :
  Protocol.circuit_src -> scale:Circuits.Profiles.scale -> chains:int -> string

(** [find_or_compile t ~key ~compile] returns the resident entry for
    [key] ([`Hit]) or runs [compile], inserts the result (evicting the
    least recently used entry beyond capacity) and returns it ([`Miss]).
    Exceptions from [compile] (parse errors, invalid netlists) propagate
    and leave the cache unchanged. *)
val find_or_compile :
  t -> key:string -> compile:(unit -> compiled) -> entry * [ `Hit | `Miss ]
