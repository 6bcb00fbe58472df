(** Speculative-evaluation machinery shared by omission and restoration.

    Both compaction procedures speculate: they evaluate several trial
    outcomes concurrently against a frozen session snapshot and then
    commit the results left to right, so the committed trace is exactly
    the one a sequential run would have produced.  This module provides
    the pieces that machinery needs — a deterministic parallel [map]
    over trial indices and the telemetry counters that account for every
    dispatched speculation. *)

(** Accounting of speculative work.  [dispatched] counts evaluations
    beyond the first of each round/wave (the ones that are speculative);
    every dispatched evaluation is eventually either [committed] (its
    assumed context turned out exact, or it survived revalidation — the
    latter also counts into [revalidated]) or [discarded].  The invariant
    [dispatched = committed + discarded] holds after every round. *)
type counters = {
  mutable dispatched : int;
  mutable committed : int;
  mutable discarded : int;
  mutable revalidated : int;
}

val make : unit -> counters

(** [record c counters] adds [c] into the observability counter set under
    [compaction.speculative.{dispatched,committed,discarded,revalidated}]. *)
val record : counters -> Obs.Counters.t -> unit

(** Accounting of the cost-cutting heuristics wrapped around
    speculation: omission width-controller [shrinks]/[widens] and the
    speculative trials a narrowed width avoided dispatching
    ([trials_saved]), snapshot captures served from an arena
    ([arena_reuses]), and restoration revalidations skipped because the
    keep mask was unchanged since the wave froze ([replay_skipped]).
    Like [compaction.speculative.*], these reflect the actual dispatch
    schedule, so they are the documented exception to the
    jobs-invariant-counters contract. *)
type adaptive = {
  mutable shrinks : int;
  mutable widens : int;
  mutable trials_saved : int;
  mutable arena_reuses : int;
  mutable replay_skipped : int;
}

val make_adaptive : unit -> adaptive

(** [record_adaptive a counters] adds [a] under
    [compaction.adaptive.{shrinks,widens,trials_saved,arena_reuses,
    replay_skipped}]. *)
val record_adaptive : adaptive -> Obs.Counters.t -> unit

(** [map ~jobs n f] evaluates [f 0 .. f (n-1)] and returns the results in
    index order.  Indices are dealt round-robin across [jobs] domains
    (index [k] runs on domain [k mod jobs]; domain 0 is the calling
    domain), so [f] must be thread-safe for concurrent calls on distinct
    indices — in practice, pure up to thread-confined scratch state.
    Results are independent of [jobs] whenever each [f k] is
    deterministic.  If any call raises, every domain is joined before the
    first error (calling domain first, then spawn order) is re-raised. *)
val map : jobs:int -> int -> (int -> 'a) -> 'a array
