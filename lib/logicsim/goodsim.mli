(** Fault-free (good machine) sequential simulation.

    Levelized three-valued simulation of one machine.  The simulator owns a
    running flip-flop state (initially all [X], matching an unreset
    power-up); each {!step} applies one input vector, evaluates the
    combinational logic, exposes the frame's primary-output and node values,
    and latches the next state.  Gates are evaluated by {!Netlist.Plan.eval}
    over a compiled plan, the same opcodes the fault simulator and PODEM
    read. *)

type t

(** [of_plan ?force plan] is a simulator over [plan] (typically a model's
    [plan]) at the all-[X] power-up state.  With [force = (n, v)] node [n]
    holds [v] in every frame, whatever drives it: the faulty machine of a
    stuck-at fault on [n]'s output. *)
val of_plan : ?force:int * Netlist.Logic.t -> Netlist.Plan.t -> t

(** [create c] is [of_plan] over a plan compiled from [c]. *)
val create : Netlist.Circuit.t -> t

(** Back to the all-[X] power-up state. *)
val reset : t -> unit

(** [set_state t s] forces the flip-flop state ([s] indexed like
    [Circuit.dffs]).  @raise Invalid_argument on a length mismatch. *)
val set_state : t -> Netlist.Logic.t array -> unit

(** Copy of the current flip-flop state. *)
val state : t -> Netlist.Logic.t array

(** [step t vec] simulates one clock cycle.  @raise Invalid_argument when
    [vec] does not cover every primary input. *)
val step : t -> Netlist.Logic.t array -> unit

(** Primary-output values of the last stepped frame (fresh array). *)
val po_values : t -> Netlist.Logic.t array

(** Value of an arbitrary node in the last stepped frame. *)
val value : t -> int -> Netlist.Logic.t

(** [run t seq] steps through [seq] and returns the per-frame primary output
    matrix.  The state carries over from the current state; call {!reset}
    first for a fresh run. *)
val run : t -> Vectors.t -> Netlist.Logic.t array array
