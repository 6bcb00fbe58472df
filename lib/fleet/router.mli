(** Sharding front-end router (DESIGN.md §15).

    One single-domain select loop accepts the daemon wire protocol
    ({!Server.Protocol}), answers admin ops itself, and routes every
    compute request to one of [shards] backend daemons it spawns and
    supervises.  Shard selection hashes the request's circuit content —
    the same FNV-1a key the compiled-circuit cache uses
    ({!Server.Cache.key_of}) — so a circuit's requests pin to one shard
    and keep that shard's LRU slice hot.

    In front of dispatch sits a content-addressed result cache
    ({!Result_cache}): a repeated compute request (keyed on its
    canonical rendering, parallelism knobs excluded) is answered from
    memory, byte-identical to a computed response by the determinism
    contract.  [stats], [chaos], [ping] and [shutdown] bypass it.

    Supervision: a shard that exits, hangs past its health-probe
    timeout, or drops its connection is killed, its in-flight requests
    are requeued (redelivery is safe by purity; a bounded attempts cap
    converts a crash-looping request into a typed [internal_error]), and
    the shard is respawned with exponential backoff — reset once a
    health probe round-trips.  Health is the [stats] op over the same
    persistent per-shard connection that carries requests.

    Drain (SIGTERM, SIGINT or a [shutdown] request): the listener
    closes, in-flight requests run down inside [drain_grace_s] (typed
    [internal_error] past it), then a shutdown frame fans out to every
    shard and every shard process is collected before [run] returns.

    Failpoint sites ([Obs.Failpoint], armed via [chaos] or the chaos
    op): [shard] — kill the dispatch target's process, modelling a
    shard crash; [writer] — fault a client response write, poisoning
    that connection only. *)

type config = {
  addr : Server.Daemon.addr;  (** front-end listen address *)
  shards : int;
  launcher : Shard.launcher;
      (** argv of shard [i], which listens on [<base>.shard<i>] *)
  result_cache_capacity : int;
  drain_grace_s : float;
  chaos : string option;  (** initial failpoint spec (sites above) *)
  metrics_path : string option;  (** router metrics document, at drain *)
  install_signals : bool;
  verbose : bool;
}

(** Defaults: result cache 256, drain grace 5 s, no chaos, no metrics
    file, signal handlers on, quiet.  The supervision parameters are
    constants of the router, listed in DESIGN.md §15. *)
val default_config :
  Server.Daemon.addr -> shards:int -> launcher:Shard.launcher -> config

(** [run config] routes until drained; returns the process exit code
    (0 after a clean fanned-out drain).  Blocks the calling domain.
    @raise Invalid_argument on a malformed [chaos] spec. *)
val run : config -> int
