(** Vector-omission static compaction ([22], DAC-96).

    Every vector is tried for removal, left to right; a removal is accepted
    when every target fault is still detected by the shortened sequence.
    Passes repeat until a fixpoint (or the pass budget).  Like restoration,
    the procedure sees scan shift cycles as ordinary vectors, so it shortens
    scan operations wherever the fault coverage allows.

    The implementation keeps a live fault-simulation session positioned just
    before the trial vector, so each trial only re-simulates the faults
    whose detection could be affected (those detected at or after the trial
    position) over the suffix, with a small-window pre-check that rejects
    most failing trials cheaply.

    With [jobs > 1] trials are evaluated speculatively: each round
    dispatches the next [jobs] candidate positions to worker domains, every
    worker probing against one shared {!Logicsim.Faultsim.snapshot} of the
    main session, and results are committed left to right — the leftmost
    acceptance wins, results beyond it are discarded (see DESIGN.md §10).
    The committed trace replays the sequential one verbatim, so the final
    sequence, detection times and {!stats} are bit-identical at any [jobs]
    setting; only the [compaction.speculative.*] counters reflect the
    actual dispatch.  The run holds one {!Logicsim.Workers} scope of
    width [jobs] for its duration (or reuses the caller's), so its rounds
    share one set of worker domains.

    Every round dispatches [min jobs remaining] trials (capped by the
    remaining trial budget); snapshot buffers are arena-reused across
    rounds.  The pass schedule (chunks 16 and 4, then single-vector
    passes, five in all), the 48-fault pre-check window and the 128-frame
    re-detection horizon are fixed constants. *)

type config = {
  max_trials : int option;  (** overall trial budget, [None] = unlimited *)
  jobs : int;
  (** compaction parallelism, end to end: the number of speculative
      trials dispatched per round, the main replay session's simulation
      domains, and (on the sequential path) the domains of each probe
      session.  Results are schedule-independent. *)
}

val default_config : config

(** Outcome telemetry of one {!run}: omission trials attempted, accepted
    and rejected, total vectors removed, passes executed, and the removal
    count of each pass in order. *)
type stats = {
  trials : int;
  accepted : int;
  rejected : int;
  removed_vectors : int;
  passes : int;
  removed_per_pass : int array;
}

(** [run model seq targets config] returns the compacted sequence together
    with the targets' detection times in it and the run's trial
    statistics.  [budget] (default {!Obs.Budget.unlimited}) is polled at
    every round boundary: a trip ends the run with the best sequence found
    so far, which is always a valid test for every target.  [metrics]
    (with optional [trace]) records one [omit.pass<n>] span per executed
    pass; [spec], when given, accumulates the speculative-dispatch
    counters (see {!Spec.counters}); [adaptive] accumulates the
    arena-reuse counter (see {!Spec.adaptive}). *)
val run :
  ?budget:Obs.Budget.t ->
  ?metrics:Obs.Metrics.t ->
  ?trace:Obs.Trace.t ->
  ?spec:Spec.counters ->
  ?adaptive:Spec.adaptive ->
  Faultmodel.Model.t ->
  Logicsim.Vectors.t ->
  Target.t ->
  config ->
  Logicsim.Vectors.t * Target.t * stats
