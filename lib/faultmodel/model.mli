(** Elaborated fault-simulation model.

    The simulators inject a fault by forcing one node's output value, so
    every fault must live on a node output.  [build] inserts an explicit
    buffer node on every fanin pin whose driver has electrical fanout
    greater than one; branch faults then map to the buffer's output and stem
    faults map to the original node.  All original signal names are
    preserved (buffers get fresh [__br_*] names), inputs and outputs keep
    their order and positions. *)

type t = private {
  base : Netlist.Circuit.t;
  circuit : Netlist.Circuit.t;  (** elaborated circuit the simulators run on *)
  levelize : Netlist.Levelize.t;  (** of [circuit] *)
  plan : Netlist.Plan.t;
  (** flat simulation plan of [circuit], shared by every fault-simulation
      session *)
  scoap : Netlist.Scoap.t;  (** SCOAP measures of [circuit], for ATPG guidance *)
  faults : Fault.t array;  (** collapsed representatives, expressed on [base] *)
  fault_node : int array;  (** per fault: node id in [circuit] to force *)
  fault_stuck : bool array;
  node_of_base : int array;  (** base node id -> id in [circuit] *)
  universe_size : int;  (** uncollapsed fault count, for reporting *)
}

val build : Netlist.Circuit.t -> t

val fault_count : t -> int
val fault_name : t -> int -> string

(** Map a node id of the base circuit into the elaborated circuit. *)
val map_node : t -> int -> int

(** [node_for_site t site] is the elaborated node that carries faults at
    [site] — the stem's own node, or the branch's inserted buffer.  This
    also works for collapsed-away (non-representative) faults, e.g. to
    simulate any member of an equivalence class. *)
val node_for_site : t -> Fault.site -> int
