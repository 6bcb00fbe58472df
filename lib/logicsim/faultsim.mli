(** Parallel-fault sequential fault simulation.

    Faults are simulated in groups of up to 62 per native machine word: a
    signal's value across the group is a pair of bit-words [(zero, one)]
    (two-rail three-valued encoding, [X] = neither bit).  Each group carries
    its own flip-flop state words across time frames; a fault is injected by
    forcing the faulty node's output bits for the owning machine — branch
    faults were turned into node-output faults by {!Faultmodel.Model}.

    The kernel is event-driven (HOPE-style) selective trace: the fault-free
    machine is simulated once per frame as two-rail broadcast words, a
    group's words are treated as {e differences} against that broadcast,
    and only fanout cones reached from state divergences and injection
    sites are re-evaluated through a per-level event queue.  Everything
    structural — gate opcodes, fanin/fanout CSR arrays, flip-flop maps,
    levels — comes from the model's {!Netlist.Plan}, compiled once per
    model, so starting a session builds only its fault groups.  The
    node-sized evaluation state lives in one scratch per domain, lent to
    one {!advance} at a time.  Since groups are independent given the
    good trace, sessions created with [jobs > 1] deal blocks of groups
    round-robin across the shares of one {!Workers.run}, each replaying
    the good machine from a copy of the pre-advance state on its own
    domain's scratch.  Inside a {!Workers.scoped} region (omission and
    restoration each run in one) those domains, and so their scratch,
    persist from one advance to the next.  Results (detection times,
    states, counts) are bit-identical to the sequential schedule.  Its cross-validation oracle is a scalar
    single-fault simulator that lives with the tests, outside this
    representation.

    A {!t} is a *session*: it holds the good machine's state, every
    group's faulty state, and per-fault first-detection times.  Sequences are fed
    incrementally with {!advance} (or zero-copy views with
    {!advance_view}), which is what makes the generation flow's repeated
    "append a subsequence, then drop newly-detected faults" cheap.

    Detection is strict: a fault is detected at a frame when some primary
    output (including [scan_out]) has a binary good value and the opposite
    binary faulty value. *)

type t

(** Session telemetry, accumulated across {!advance} calls.  The simulation
    kernel counters ([frames] consumed, [gframes] (group, frame) pairs
    simulated, [events] gate evaluations, [wakeups] dirty flip-flops
    seeded, [kills] machines masked out on detection, [repacks]
    group-repack operations) are defined per fixed repack block —
    a jobs-independent partition of the group array — so their totals are
    bit-identical at any [jobs] setting.  [toggles] and [wsa] (weighted
    switching activity: each good-machine binary toggle weighted by
    [1 + fanouts]) are only counted when the session was created with
    [~observe:true], by the session domain's good machine. *)
type stats = {
  mutable frames : int;
  mutable gframes : int;
  mutable events : int;
  mutable wakeups : int;
  mutable kills : int;
  mutable repacks : int;
  mutable toggles : int;
  mutable wsa : int;
}

(** [create model ~fault_ids] starts a session over the given target faults
    (indices into [model.faults]) at time 0.

    [good_state] (default all-[X]) initializes the flip-flop state,
    indexed like [Circuit.dffs]; [faulty_states] (default: same as the good
    state) gives a per-fault initial state, enabling sessions that continue
    from the middle of another simulation.  [jobs] (default 1) bounds the
    number of domains the session may schedule fault groups across;
    [observe] (default [false]) additionally counts good-machine toggle /
    switching activity into {!stats} and {!frame_toggles}.

    [budget] (default {!Obs.Budget.unlimited}) is polled once per frame:
    when it trips mid-{!advance}, fault machines freeze at the current
    frame while the session's good machine still steps through the whole
    view.  Degradation is sound — detections recorded before the trip are
    exact, and frozen faults simply remain undetected.

    @raise Invalid_argument on a duplicate fault id or on a state whose
    length is not the flip-flop count. *)
val create :
  ?good_state:Netlist.Logic.t array ->
  ?faulty_states:(int -> Netlist.Logic.t array) ->
  ?jobs:int ->
  ?observe:bool ->
  ?budget:Obs.Budget.t ->
  Faultmodel.Model.t ->
  fault_ids:int array ->
  t

(** Frames consumed so far. *)
val time : t -> int

(** [advance t seq] simulates the next [Array.length seq] frames.
    @raise Invalid_argument when a vector does not cover every primary
    input. *)
val advance : t -> Vectors.t -> unit

(** [advance_view t v] simulates the frames visible through [v] without
    materializing them. *)
val advance_view : t -> Vectors.View.t -> unit

(** First detection time of a fault (a frame index), if any.
    @raise Invalid_argument if the fault is not targeted by this session. *)
val detection_time : t -> int -> int option

val detected_count : t -> int

(** The session's telemetry record (the live record, not a copy). *)
val stats : t -> stats

(** Per-frame good-machine toggle counts; only populated when the session
    was created with [~observe:true]. *)
val frame_toggles : t -> Obs.Hist.t

(** Target faults still undetected, in target order. *)
val undetected : t -> int array

(** Current good-machine flip-flop state (fresh array). *)
val good_state : t -> Netlist.Logic.t array

(** [faulty_state t fault] is the fault's machine state (fresh array).
    Meaningful for undetected faults (detected machines stop being
    updated). *)
val faulty_state : t -> int -> Netlist.Logic.t array

(** Flip-flop indices currently holding a strict fault effect for [fault]:
    good value binary, faulty value the opposite binary. *)
val ff_effects : t -> int -> int list

(** Total number of (undetected fault, flip-flop) pairs currently holding a
    strict fault effect — a cheap word-parallel progress measure for
    simulation-based test generation. *)
val effect_bits : t -> int

(** Branch-free SWAR population count, valid for non-negative values below
    [2^62] (every group word).  Exposed for cross-validation. *)
val popcount : int -> int

(** {1 Snapshots}

    A snapshot is an immutable capture of a session's position: the good
    flip-flop state plus every captured fault's machine state, kept in
    the packed 62-faults-per-word group representation so the capture
    costs a small fraction of materializing per-fault arrays;
    {!of_snapshot} moves each targeted fault's bits straight from its
    captured word into its new slot.  Because {!of_snapshot} copies
    states on read, a snapshot may be shared read-only across domains:
    each worker builds its own thread-confined probe session and
    simulates independently.  This is what makes speculative compaction
    trials cheap — one state capture per round, [K] concurrent probes
    against it. *)

type snapshot

(** A reusable buffer set for repeated captures.  Speculative compaction
    snapshots the same session once per round; an arena lets round [r+1]
    overwrite round [r]'s packed buffers in place instead of
    reallocating them.  {b Taking a new snapshot from an arena
    invalidates every earlier snapshot taken from it} — callers must
    finish all probes against the previous capture first (the
    speculative [map]'s join is that barrier). *)
type snapshot_arena

val arena : unit -> snapshot_arena

(** Number of captures that reused at least one arena buffer — feeds the
    [compaction.adaptive.arena_reuses] counter. *)
val arena_hits : snapshot_arena -> int

(** [snapshot t] captures the current good and per-fault states for
    [fault_ids] (default: every target of [t]).  The snapshot is
    positioned at [time t]; fault states of already-detected faults
    equal the good state.  With [arena], buffers of a previous capture
    of compatible shape are reused (see {!snapshot_arena}). *)
val snapshot : ?arena:snapshot_arena -> ?fault_ids:int array -> t -> snapshot

(** [of_snapshot snap ~fault_ids] starts a fresh session continuing from
    the snapshot's position, over a subset of the captured faults.
    @raise Invalid_argument if a fault was not captured. *)
val of_snapshot :
  ?jobs:int ->
  ?budget:Obs.Budget.t ->
  snapshot ->
  fault_ids:int array ->
  t

(** {1 One-shot conveniences} *)

(** [detection_times model ~fault_ids seq] simulates [seq] from power-up and
    returns first-detection times aligned with [fault_ids] ([-1] when
    undetected). *)
val detection_times :
  ?jobs:int ->
  ?budget:Obs.Budget.t ->
  Faultmodel.Model.t ->
  fault_ids:int array ->
  Vectors.t ->
  int array

val detection_times_view :
  ?jobs:int ->
  ?budget:Obs.Budget.t ->
  Faultmodel.Model.t ->
  fault_ids:int array ->
  Vectors.View.t ->
  int array

(** [detects_single model ~fault ?start seq] simulates one fault, optionally
    from a [(good_state, faulty_state)] pair, and returns its detection time
    within [seq]. *)
val detects_single :
  ?budget:Obs.Budget.t ->
  Faultmodel.Model.t ->
  fault:int ->
  ?start:Netlist.Logic.t array * Netlist.Logic.t array ->
  Vectors.t ->
  int option

val detects_single_view :
  ?budget:Obs.Budget.t ->
  Faultmodel.Model.t ->
  fault:int ->
  ?start:Netlist.Logic.t array * Netlist.Logic.t array ->
  Vectors.View.t ->
  int option

(** {1 Fault-injection test instrumentation}

    [set_block_hook f] installs a callback invoked once per {!advance} per
    scheduled repack block with the block's canonical id, from whichever
    domain owns the block.  A hook that raises exercises the parallel
    error path: every other share finishes before the first error is
    re-raised (the session domain's share first, then worker order).
    Not for production use — reset with [clear_block_hook]. *)
val set_block_hook : (int -> unit) -> unit
val clear_block_hook : unit -> unit
