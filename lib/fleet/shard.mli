(** Backend shard lifecycle: spawn, liveness, forced stop (DESIGN.md §15).

    A shard is one `scanatpg serve` daemon process owned by the router,
    forked from an argv template (the `scanatpg router` subcommand
    re-execs its own binary).  Liveness is a WNOHANG [waitpid] — which
    also reaps the zombie — and a forced stop is SIGKILL, so injected
    shard crashes exercise the genuine process-death path.  The router
    restarts a shard whose [alive] turns false, with backoff. *)

(** [argv_of idx socket]: argv for shard [idx] listening on [socket];
    [argv.(0)] is the executable path. *)
type launcher = int -> string -> string array

type proc

(** @raise Invalid_argument on an empty argv. *)
val spawn : launcher -> idx:int -> socket:string -> proc

(** Liveness probe; also reaps an exited child. *)
val alive : proc -> bool

(** Forced stop (SIGKILL). *)
val kill : proc -> unit

(** Blocking [waitpid]; idempotent. *)
val reap : proc -> unit

val pid : proc -> int
