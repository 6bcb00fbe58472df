(** Flat simulation plan of a circuit.

    The one compiled form every simulator reads — packed fault
    simulation, good-machine simulation, PODEM's implication and
    diagnosis: gates as int opcodes with the output inversion folded in,
    fanins and combinational fanouts as CSR arrays, and the flip-flop
    maps the latch step needs.  Built once per elaborated circuit (by
    [Faultmodel.Model.build]) and shared read-only by every session and
    domain; [order] and [level] are the {!Levelize.t}'s own arrays, not
    copies.  {!eval} is the scalar three-valued reading of the opcodes. *)

(** {1 Opcodes}

    [op lsr 1] is the gate function — 0 AND, 1 OR, 2 XOR, 3 MUX (fanins
    [[sel; a; b]]) — and [op land 1] the output inversion: NAND is 1,
    NOR 3, XNOR 5.  [Buf] compiles to a one-input AND, [Not] to a
    one-input NAND.  Sources carry the two opcodes below and are never
    evaluated. *)

val op_input : int
val op_dff : int

type t = private {
  nodes : int;  (** node count *)
  op : int array;  (** per node *)
  fanin_off : int array;  (** node -> range into [fanin]; length [nodes + 1] *)
  fanin : int array;  (** driver ids, in pin order *)
  fanout_off : int array;  (** node -> range into [fanout]; length [nodes + 1] *)
  fanout : int array;
  (** combinational sinks (flip-flops excluded), in {!Circuit.fanout}
      order *)
  order : int array;  (** {!Levelize.t}'s evaluation order *)
  level : int array;  (** {!Levelize.t}'s per-node level *)
  depth : int;
  level_off : int array;
  (** per level [0..depth+1]: prefix sums of {!Levelize.t}'s
      [level_counts], so level [l]'s gates fit in
      [[level_off.(l), level_off.(l+1))] of one flat event queue *)
  inputs : int array;  (** {!Circuit.inputs} *)
  outputs : int array;  (** {!Circuit.outputs} *)
  dffs : int array;  (** {!Circuit.dffs} *)
  dff_fanin : int array;  (** per flip-flop slot: its data input node *)
  dff_feed_off : int array;  (** node -> range into [dff_feed]; length [nodes + 1] *)
  dff_feed : int array;  (** flip-flop slots latched from that node *)
  dff_index : int array;  (** node -> flip-flop slot, [-1] for other nodes *)
}

(** [compile c lv] builds the plan; [lv] must be [c]'s levelization. *)
val compile : Circuit.t -> Levelize.t -> t

(** [eval p values id] evaluates combinational node [id] over the
    three-valued node values in [values], by its opcode and CSR fanins.
    @raise Invalid_argument on [Input] and [Dff] nodes. *)
val eval : t -> Logic.t array -> int -> Logic.t
