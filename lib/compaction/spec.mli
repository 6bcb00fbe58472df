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

(** Snapshot captures served from omission's buffer arena
    ([arena_reuses]).  Like [compaction.speculative.*], it reflects the
    actual dispatch schedule, so it is the documented exception to the
    jobs-invariant-counters contract. *)
type adaptive = { mutable arena_reuses : int }

val make_adaptive : unit -> adaptive

(** [record_adaptive a counters] adds [a] under
    [compaction.adaptive.arena_reuses]. *)
val record_adaptive : adaptive -> Obs.Counters.t -> unit

(** [jobs_dependent name] holds for the counters {!record} and
    {!record_adaptive} write: the one family of counter names that may
    differ between runs at different [compact_jobs]. *)
val jobs_dependent : string -> bool

(** [map ~jobs n f] evaluates [f 0 .. f (n-1)] and returns the results in
    index order.  Indices are dealt round-robin across the shares of one
    {!Logicsim.Workers.run} of width [min jobs n] (index [k] runs in share
    [k mod jobs]; share 0 runs on the calling domain), so [f] must be
    thread-safe for concurrent calls on distinct indices — in practice,
    pure up to domain-confined scratch state.  Inside a
    {!Logicsim.Workers.scoped} region, such as a whole omission or
    restoration run, every round reuses the scope's domains; outside one,
    each call spawns and joins its own.  Results are independent of
    [jobs] whenever each [f k] is deterministic.  If any call raises,
    every share finishes before the first error (calling domain's share
    first, then worker order) is re-raised with its backtrace. *)
val map : jobs:int -> int -> (int -> 'a) -> 'a array
