(** Per-circuit experiment pipeline: everything the paper's Tables 5–7
    report for one benchmark circuit.

    The pipeline builds the circuit (exact or synthetic substitute), inserts
    the scan chain, elaborates the fault model, runs the Section-2 unified
    generation flow, compacts with restoration [23] then omission [22],
    runs the [26]-style baseline for the comparison column, and translates
    + compacts the baseline's test set for Table 7. *)

type lengths = {
  total : int;  (** sequence length = tester clock cycles *)
  scan : int;  (** vectors with [scan_sel = 1] *)
}

type table5_row = {
  name : string;
  inp : int;  (** primary inputs of [C_scan], scan inputs included *)
  stvr : int;
  faults : int;  (** targeted faults (proven-redundant excluded) *)
  detected : int;
  fcov : float;
  funct : int;  (** detections owed to scan functional knowledge (drains) *)
}

type table6_row = {
  name : string;
  test_len : lengths;
  restor_len : lengths;
  omit_len : lengths;
  ext_det : int;  (** extra faults detected after compaction *)
  baseline_cycles : int;  (** the "[26] cyc" column *)
}

type table7_row = {
  name : string;
  test_len : lengths;
  restor_len : lengths;
  omit_len : lengths;
  baseline_cycles : int;
}

type result = {
  circuit : string;
  row5 : table5_row;
  row6 : table6_row;
  row7 : table7_row option;  (** [None] when the baseline detected nothing *)
  flow : Flow.stats;
  degraded : bool;
  (** the budget tripped somewhere: every phase after the trip was replaced
      by its cheapest sound stand-in (compaction returns the sequence
      unchanged, the baseline and Table 7 are skipped); the
      [budget.tripped.<phase>] counter names the phase *)
  runtime_s : float;  (** monotonic wall-clock seconds *)
  metrics : Obs.Metrics.t;
  (** per-phase wall-clock seconds ([scan-insert], [model-build],
      [generate], [restore], [omit], [extra-detect], [baseline],
      [translate]) plus the [atpg.*] / [sim.*] / [restore.*] / [omit.*]
      counters; every counter is independent of [Config.sim_jobs] *)
  omit_stats : Compaction.Omission.stats;
  (** the main flow's (row-6) omission trial statistics *)
}

(** Raised by {!run} right after the named phase's checkpoint was written,
    when [halt_after] asked for it — the testing hook behind
    [scanatpg run --halt-after]. *)
exception Halted of string

(** [run ?scale ?config ?metrics ?trace name] executes the full pipeline on
    a catalog circuit.  [config] defaults to {!Config.for_circuit};
    [metrics] defaults to a fresh document (either way it is returned in
    the result); [trace] (default: the null sink) receives one span per
    phase.

    Resilience (DESIGN.md §8): [budget] makes the run anytime — each phase
    winds down at its next safe point once the budget trips and the result
    is flagged [degraded].  [checkpoint] names a file that receives an
    atomically-written {!Checkpoint} after every phase and, during
    generation, after every [checkpoint_every] committed subsequences
    (default 25).  [resume] is a loaded checkpoint of the same run
    (circuit, scale, seed, chains — @raise Checkpoint.Corrupt on a
    fingerprint mismatch); completed phases are restored verbatim, so the
    resumed run's table rows and jobs-invariant counters are bit-identical
    to an uninterrupted one.  [halt_after] raises {!Halted} just after the
    named phase ([generate], [compact], [extra-detect], [baseline])
    checkpoints — an induced crash for resume tests. *)
val run :
  ?scale:Circuits.Profiles.scale ->
  ?config:Config.t ->
  ?metrics:Obs.Metrics.t ->
  ?trace:Obs.Trace.t ->
  ?budget:Obs.Budget.t ->
  ?checkpoint:string ->
  ?resume:Checkpoint.file ->
  ?checkpoint_every:int ->
  ?halt_after:string ->
  string ->
  result

(** [compact ~metrics cfg model seq targets] is the paper's static
    compaction, the one routine behind [run], the daemon and the CLI:
    restoration [23] under [budget] (default unlimited), the targets'
    detection times in the restored sequence, then omission [22] capped
    at [4 * restored length + 2000] trials unless
    [cfg.omission.max_trials] sets a cap.  It returns the restored
    sequence, the omitted (final) sequence and omission's statistics.

    [metrics] receives one [restore] and one [omit] phase (spans in
    [trace], with omission's [omit.pass<n>] spans nested under [omit])
    and the jobs-dependent [compaction.speculative.*] /
    [compaction.adaptive.*] counters; [rstats] accumulates restoration's
    work counters.  The [omit.*] counters are left to the caller. *)
val compact :
  ?budget:Obs.Budget.t ->
  ?rstats:Compaction.Restoration.stats ->
  ?trace:Obs.Trace.t ->
  metrics:Obs.Metrics.t ->
  Config.t ->
  Faultmodel.Model.t ->
  Logicsim.Vectors.t ->
  Compaction.Target.t ->
  Logicsim.Vectors.t * Logicsim.Vectors.t * Compaction.Omission.stats

(** [scan_count scan seq] counts the [scan_sel = 1] vectors of a sequence. *)
val scan_count : Scanins.Scan.t -> Logicsim.Vectors.t -> int
