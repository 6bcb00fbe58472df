(** Fault-free (good machine) sequential simulation.

    Levelized three-valued simulation of one machine.  The simulator owns a
    running flip-flop state (initially all [X], matching an unreset
    power-up); each {!step} applies one input vector, evaluates the
    combinational logic, exposes the frame's primary-output and node values,
    and latches the next state. *)

type t

(** A simulator at the all-[X] power-up state. *)
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

(** [eval_node c values id] evaluates combinational gate [id] over the node
    values in [values] — shared with the ATPG implication engine.
    @raise Invalid_argument on [Input] or [Dff] nodes. *)
val eval_node : Netlist.Circuit.t -> Netlist.Logic.t array -> int -> Netlist.Logic.t
