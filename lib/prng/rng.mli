(** Deterministic pseudo-random number generation (SplitMix64).

    All randomness in the project flows through named streams derived from a
    root seed, so circuit generation, random vector fill and the bench
    harness are fully reproducible. *)

type t

val create : int64 -> t

(** [fnv1a64 s] is the 64-bit FNV-1a hash of [s] — the one content hash
    of the project: stream labels, cache and routing keys, failpoint
    draws and checkpoint checksums. *)
val fnv1a64 : string -> int64

(** [of_string seed label] derives a stream from a textual label — used to
    give every (circuit, phase) pair an independent, stable stream. *)
val of_string : int64 -> string -> t

(** [split t] derives an independent child stream, advancing [t]. *)
val split : t -> t

(** Snapshot of the stream position, for checkpointing.  [of_state
    (state t)] continues exactly where [t] stood. *)
val state : t -> int64

val of_state : int64 -> t

(** Next raw 64-bit value. *)
val next : t -> int64

(** [int t n] draws uniformly from [\[0, n)].  @raise Invalid_argument if
    [n <= 0]. *)
val int : t -> int -> int

val bool : t -> bool

(** [choose t arr] picks a uniform element.  @raise Invalid_argument on an
    empty array. *)
val choose : t -> 'a array -> 'a
