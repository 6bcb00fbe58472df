(** Worker domains that outlive one parallel round.

    The fault simulator's block fan-out and compaction's speculative
    [Spec.map] both split one round of work into [jobs] {e shares} and run
    them on separate domains.  Spawning and joining a domain per round
    costs more than a short round does, and a fresh domain also starts
    without the simulator's per-domain scratch.  A {e scope} keeps a fixed
    set of worker domains alive for a whole compaction run instead, so
    every round, wave and advance inside it reuses the same domains and
    their [Domain.DLS] state.  Scopes stay short because an idle worker
    is not free: OCaml 5's stop-the-world minor collections wait for every
    domain, so open a scope around the code that posts rounds, not
    around sequential work.

    Scopes are per calling domain: two domains may each hold their own at
    the same time.  A scope has at most [Domain.recommended_domain_count ()]
    domains, the caller included; shares beyond that run in turn on the
    same domains.  Since the users' results never depend on which domain
    ran a share, the cap changes timing only. *)

(** [scoped ~jobs f] runs [f ()] with a scope of width [jobs] open on the
    calling domain: [jobs − 1] workers (capped as above) are spawned
    first and joined when [f] returns or raises.  Width 1 opens nothing,
    and so does a call already inside an idle scope at least [jobs] wide;
    both just run [f ()]. *)
val scoped : jobs:int -> (unit -> 'a) -> 'a

(** [run ~jobs f] calls [f 0 .. f (jobs − 1)], each share at most once,
    and returns when all are done.  Share 0 runs on the calling domain;
    share [w] runs on worker [w − 1] of the calling domain's scope.  A
    call with no scope, one wider than its scope, or one made from inside
    a share (nested on the caller, or on a worker domain) opens a
    temporary scope for just this call.  [run ~jobs:1 f] is [f 0].

    [f] must be safe to call concurrently on distinct shares.  If any
    share raises, every share still runs to completion before the first
    error in share order (the caller's share first, then worker order) is
    re-raised on the caller with its backtrace; the scope stays usable. *)
val run : jobs:int -> (int -> unit) -> unit
