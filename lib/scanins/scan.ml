module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

type t = {
  circuit : Circuit.t;
  original : Circuit.t;
  sel : int;
  chains : Chain.t array;
  original_pi_count : int;
}

let fresh_name c base =
  if Circuit.find c base = None then base
  else begin
    let rec go i =
      let candidate = Printf.sprintf "%s_%d" base i in
      if Circuit.find c candidate = None then candidate else go (i + 1)
    in
    go 0
  end

let insert ?(chains = 1) c =
  let nff = Circuit.dff_count c in
  if chains < 1 then invalid_arg "Scan.insert: chains must be >= 1";
  if nff = 0 then invalid_arg "Scan.insert: circuit has no flip-flops";
  if chains > nff then invalid_arg "Scan.insert: more chains than flip-flops";
  let sel_name = fresh_name c "scan_sel" in
  let inp_names =
    Array.init chains (fun j ->
        if chains = 1 then fresh_name c "scan_inp"
        else fresh_name c (Printf.sprintf "scan_inp%d" j))
  in
  let b = Circuit.Builder.create ~name:(Circuit.name c ^ "_scan") () in
  let node_name i = (Circuit.node c i).Circuit.name in
  (* Original inputs first (preserving order), then scan_sel, then the scan
     inputs — this fixed layout is relied upon by sel/inp_position. *)
  Array.iter (fun i -> Circuit.Builder.add_input b (node_name i)) (Circuit.inputs c);
  Circuit.Builder.add_input b sel_name;
  Array.iter (fun n -> Circuit.Builder.add_input b n) inp_names;
  (* Chains: contiguous chunks of the declaration-order flip-flop list.  A
     chain starts early enough to leave one flip-flop for every later
     chain, so ceiling-sized chunks never run out before the last chain. *)
  let ffs = Circuit.dffs c in
  let chunk = (nff + chains - 1) / chains in
  let start j = min (j * chunk) (nff - chains + j) in
  let chain_ffs =
    Array.init chains (fun j -> Array.sub ffs (start j) (start (j + 1) - start j))
  in
  let mux_name = Hashtbl.create nff in
  Array.iteri
    (fun _j cffs ->
      Array.iter
        (fun ff -> Hashtbl.replace mux_name ff (fresh_name c ("scanmux_" ^ node_name ff)))
        cffs)
    chain_ffs;
  (* Copy all nodes, redirecting each DFF's data input through its mux. *)
  Array.iter
    (fun nd ->
      match nd.Circuit.kind with
      | Gate.Input -> ()
      | Gate.Dff ->
        Circuit.Builder.add_gate b nd.Circuit.name Gate.Dff
          [ Hashtbl.find mux_name nd.Circuit.id ]
      | k ->
        Circuit.Builder.add_gate b nd.Circuit.name k
          (List.map node_name (Array.to_list nd.Circuit.fanins)))
    (Circuit.nodes c);
  (* The muxes: MUX(scan_sel, original_d, scan_path). *)
  Array.iteri
    (fun j cffs ->
      Array.iteri
        (fun pos ff ->
          let orig_d = node_name (Circuit.node c ff).Circuit.fanins.(0) in
          let scan_path =
            if pos = 0 then inp_names.(j) else node_name cffs.(pos - 1)
          in
          Circuit.Builder.add_gate b
            (Hashtbl.find mux_name ff)
            Gate.Mux
            [ sel_name; orig_d; scan_path ])
        cffs)
    chain_ffs;
  Array.iter (fun o -> Circuit.Builder.add_output b (node_name o)) (Circuit.outputs c);
  (* scan_out per chain: observe the last flip-flop (unless the original
     circuit already observes it). *)
  Array.iter
    (fun cffs ->
      let last = cffs.(Array.length cffs - 1) in
      if not (Circuit.is_output c last) then
        Circuit.Builder.add_output b (node_name last))
    chain_ffs;
  let circuit = Circuit.Builder.build b in
  let resolve name = Circuit.id_of_name_exn circuit name in
  let chains_meta =
    Array.mapi
      (fun j cffs ->
        {
          Chain.index = j;
          inp = resolve inp_names.(j);
          ffs = Array.map (fun ff -> resolve (node_name ff)) cffs;
        })
      chain_ffs
  in
  {
    circuit;
    original = c;
    sel = resolve sel_name;
    chains = chains_meta;
    original_pi_count = Circuit.input_count c;
  }

let nsv t = Array.fold_left (fun acc ch -> max acc (Chain.length ch)) 0 t.chains
let sel_position t = t.original_pi_count
let inp_position t ~chain = t.original_pi_count + 1 + chain

let chain_of_ff t ff =
  let found = ref None in
  Array.iter
    (fun ch ->
      if !found = None then
        match Chain.position ch ff with
        | pos -> found := Some (ch.Chain.index, pos)
        | exception Not_found -> ())
    t.chains;
  match !found with
  | Some r -> r
  | None -> raise Not_found

let sel_name t = (Circuit.node t.circuit t.sel).Circuit.name

let inp_name t ~chain =
  (Circuit.node t.circuit t.chains.(chain).Chain.inp).Circuit.name
