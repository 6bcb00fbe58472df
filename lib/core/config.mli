(** Configuration of the unified generation/compaction flow. *)

type t = {
  seed : int64;  (** root of every random stream used by the flow *)
  atpg : Atpg.Seq_atpg.config;
  random_phase : Atpg.Random_phase.config option;
  (** [None] disables the randomized opening phase *)
  use_drain : bool;
  (** Section-2 functional knowledge: accept latching a fault effect into a
      flip-flop and drain it to [scan_out] with a [scan_sel = 1] run *)
  use_justify : bool;
  (** scan-in justification: tests found with a free initial state get an
      [N_SV]-cycle load prefix *)
  prune_redundant : bool;
  (** exclude faults proven combinationally untestable (full state control
      and observation) from the target list — see DESIGN.md §3 *)
  redundancy_budget : int;  (** PODEM backtracks allowed per proof *)
  omission : Compaction.Omission.config;
  chains : int;  (** scan chains inserted *)
  sim_jobs : int;
  (** domains the fault simulator may schedule fault groups across
      (default 1 = sequential; results are identical at any value) *)
  compact_jobs : int;
  (** domains static compaction may speculate trial evaluations across —
      omission rounds and restoration waves (default 1 = sequential;
      results are identical at any value, see DESIGN.md §10) *)
  observe : bool;
  (** count good-machine toggle / switching activity in the flow's main
      simulation session (default [false]; small extra per-frame cost) *)
}

val default : t

(** Default tuned to the circuit: ATPG depths grow with the combinational
    depth. *)
val for_circuit : Netlist.Circuit.t -> t

(** [with_sim_jobs n cfg] sets the simulation parallelism knob: the flow's
    main session and target bookkeeping.  Compaction parallelism is a
    separate knob — see {!with_compact_jobs}. *)
val with_sim_jobs : int -> t -> t

(** [with_compact_jobs n cfg] sets the compaction parallelism knob
    everywhere it matters: speculative omission rounds (including the main
    replay session and probe sessions, via [omission.jobs]) and
    restoration's wave evaluation. *)
val with_compact_jobs : int -> t -> t
