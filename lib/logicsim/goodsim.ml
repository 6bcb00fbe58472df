module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Logic = Netlist.Logic
module Levelize = Netlist.Levelize

type t = {
  circuit : Circuit.t;
  order : int array;
  inputs : int array;
  outputs : int array;
  dffs : int array;
  dff_fanin : int array;
  values : Logic.t array;
  state : Logic.t array;
}

let create c =
  let lv = Levelize.of_circuit c in
  let dffs = Circuit.dffs c in
  {
    circuit = c;
    order = lv.Levelize.order;
    inputs = Circuit.inputs c;
    outputs = Circuit.outputs c;
    dffs;
    dff_fanin = Array.map (fun ff -> (Circuit.node c ff).Circuit.fanins.(0)) dffs;
    values = Array.make (Circuit.node_count c) Logic.X;
    state = Array.make (Array.length dffs) Logic.X;
  }

let reset t =
  Array.fill t.state 0 (Array.length t.state) Logic.X;
  Array.fill t.values 0 (Array.length t.values) Logic.X

let set_state t s =
  if Array.length s <> Array.length t.state then
    invalid_arg "Goodsim.set_state: state length mismatch";
  Array.blit s 0 t.state 0 (Array.length s)

let state t = Array.copy t.state

let eval_node c values id =
  let nd = Circuit.node c id in
  let f = nd.Circuit.fanins in
  match nd.Circuit.kind with
  | Gate.Buf -> values.(f.(0))
  | Gate.Not -> Logic.bnot values.(f.(0))
  | Gate.And ->
    let acc = ref values.(f.(0)) in
    for i = 1 to Array.length f - 1 do
      acc := Logic.band !acc values.(f.(i))
    done;
    !acc
  | Gate.Nand ->
    let acc = ref values.(f.(0)) in
    for i = 1 to Array.length f - 1 do
      acc := Logic.band !acc values.(f.(i))
    done;
    Logic.bnot !acc
  | Gate.Or ->
    let acc = ref values.(f.(0)) in
    for i = 1 to Array.length f - 1 do
      acc := Logic.bor !acc values.(f.(i))
    done;
    !acc
  | Gate.Nor ->
    let acc = ref values.(f.(0)) in
    for i = 1 to Array.length f - 1 do
      acc := Logic.bor !acc values.(f.(i))
    done;
    Logic.bnot !acc
  | Gate.Xor ->
    let acc = ref values.(f.(0)) in
    for i = 1 to Array.length f - 1 do
      acc := Logic.bxor !acc values.(f.(i))
    done;
    !acc
  | Gate.Xnor ->
    let acc = ref values.(f.(0)) in
    for i = 1 to Array.length f - 1 do
      acc := Logic.bxor !acc values.(f.(i))
    done;
    Logic.bnot !acc
  | Gate.Mux -> Logic.mux values.(f.(0)) values.(f.(1)) values.(f.(2))
  | Gate.Input | Gate.Dff -> invalid_arg "Goodsim.eval_node: source node"

let step t vec =
  if Array.length vec <> Array.length t.inputs then
    invalid_arg "Goodsim.step: vector length mismatch";
  Array.iteri (fun i id -> t.values.(id) <- vec.(i)) t.inputs;
  Array.iteri (fun k id -> t.values.(id) <- t.state.(k)) t.dffs;
  Array.iter (fun id -> t.values.(id) <- eval_node t.circuit t.values id) t.order;
  Array.iteri (fun k d -> t.state.(k) <- t.values.(d)) t.dff_fanin

let po_values t = Array.map (fun o -> t.values.(o)) t.outputs
let value t id = t.values.(id)

let run t seq =
  Array.map
    (fun vec ->
      step t vec;
      po_values t)
    seq
