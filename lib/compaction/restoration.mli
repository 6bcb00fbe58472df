(** Vector-restoration static compaction ([23], ICCD-97).

    Starting from an empty selection, faults are processed in order of
    decreasing first-detection time; whenever the restored subsequence does
    not yet detect the current fault, vectors are restored one by one,
    walking backwards from the fault's detection time, until it does.
    Vectors never restored are dropped.  Because the procedure treats the
    sequence as an ordinary non-scan test sequence, it freely drops
    [scan_sel = 1] cycles — turning complete scan operations into limited
    ones.

    Restore searches run speculatively in fixed-width waves: each wave
    member's backward search is evaluated as a pure function of a frozen
    copy of the selection, the evaluations run concurrently across [jobs]
    domains, and results are committed in wave order; every member after
    the first that is still undetected, whose frozen context may have
    gone stale, is revalidated with one simulation (see DESIGN.md §10).
    The wave structure does not depend on [jobs], so the restored
    subsequence and every counter are bit-identical at any [jobs]
    setting. *)

(** Work telemetry, accumulated across {!run} calls that were handed the
    same record: vectors restored into the selection, single-fault probe
    simulations (search probes and revalidations), and whole-batch
    parallel simulations. *)
type stats = {
  mutable restored : int;
  mutable probes : int;
  mutable batch_sims : int;
}

val make_stats : unit -> stats

(** [run model seq targets] returns the restored subsequence (original
    vector order; a subset of [seq]'s vectors).  The result is guaranteed to
    detect every target.  [stats], when given, accumulates the run's work
    counters; [spec] accumulates the speculative-dispatch counters;
    [jobs] (default 1) bounds the domains used for wave evaluation and
    batch simulation without affecting any result; the run holds one
    {!Logicsim.Workers} scope of width [jobs] for its duration (or reuses
    the caller's).  [adaptive] is accepted and ignored: restoration feeds
    no [compaction.adaptive.*] counter.  The parameter goes once the end-to-end benchmark's replay
    driver runs through [Core.Pipeline.compact].

    When [budget] trips mid-run the procedure degrades gracefully: probing
    stops and every unfinished fault restores its whole prefix [[0..dt]],
    which reproduces the original simulation.  The output is then less
    compact but still detects every target. *)
val run :
  ?stats:stats ->
  ?budget:Obs.Budget.t ->
  ?jobs:int ->
  ?spec:Spec.counters ->
  ?adaptive:Spec.adaptive ->
  Faultmodel.Model.t -> Logicsim.Vectors.t -> Target.t -> Logicsim.Vectors.t
