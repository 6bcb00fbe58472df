module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Levelize = Netlist.Levelize

type t = {
  base : Circuit.t;
  circuit : Circuit.t;
  levelize : Levelize.t;
  plan : Netlist.Plan.t;
  scoap : Netlist.Scoap.t;
  faults : Fault.t array;
  fault_node : int array;
  fault_stuck : bool array;
  node_of_base : int array;
  universe_size : int;
}

let branch_name c sink pin =
  Printf.sprintf "__br_%s_%d" (Circuit.node c sink).Circuit.name pin

let elaborate c =
  let b = Circuit.Builder.create ~name:(Circuit.name c) () in
  let node_name i = (Circuit.node c i).Circuit.name in
  Array.iter (fun i -> Circuit.Builder.add_input b (node_name i)) (Circuit.inputs c);
  Array.iter
    (fun nd ->
      match nd.Circuit.kind with
      | Gate.Input -> ()
      | k ->
        let fanins =
          List.mapi
            (fun pin f ->
              if Circuit.fanout_count c f > 1 then begin
                let bn = branch_name c nd.Circuit.id pin in
                Circuit.Builder.add_gate b bn Gate.Buf [ node_name f ];
                bn
              end
              else node_name f)
            (Array.to_list nd.Circuit.fanins)
        in
        Circuit.Builder.add_gate b nd.Circuit.name k fanins)
    (Circuit.nodes c);
  Array.iter (fun o -> Circuit.Builder.add_output b (node_name o)) (Circuit.outputs c);
  Circuit.Builder.build b

let build base =
  let collapsed = Collapse.run base in
  let circuit = elaborate base in
  let node_of_base =
    Array.map
      (fun nd -> Circuit.id_of_name_exn circuit nd.Circuit.name)
      (Circuit.nodes base)
  in
  let faults = collapsed.Collapse.representatives in
  let fault_node =
    Array.map
      (fun f ->
        match f.Fault.site with
        | Fault.Stem n -> node_of_base.(n)
        | Fault.Branch { sink; pin } ->
          Circuit.id_of_name_exn circuit (branch_name base sink pin))
      faults
  in
  let fault_stuck = Array.map (fun f -> f.Fault.stuck) faults in
  let levelize = Levelize.of_circuit circuit in
  {
    base;
    circuit;
    levelize;
    plan = Netlist.Plan.compile circuit levelize;
    scoap = Netlist.Scoap.compute circuit;
    faults;
    fault_node;
    fault_stuck;
    node_of_base;
    universe_size = Array.length collapsed.Collapse.universe;
  }

let fault_count t = Array.length t.faults

let node_for_site t site =
  match site with
  | Fault.Stem n -> t.node_of_base.(n)
  | Fault.Branch { sink; pin } ->
    Circuit.id_of_name_exn t.circuit (branch_name t.base sink pin)
let fault_name t i = Fault.name t.base t.faults.(i)
let map_node t i = t.node_of_base.(i)
