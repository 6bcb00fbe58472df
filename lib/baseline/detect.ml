module Circuit = Netlist.Circuit
module Logic = Netlist.Logic
module Scan = Scanins.Scan
module Scan_test = Scanins.Scan_test
module Faultsim = Logicsim.Faultsim

(* Widen a test's primary-input vectors to C_scan's input space with
   scan_sel = 0 and scan_inp unspecified. *)
let widen scan vectors =
  let width = Circuit.input_count scan.Scan.circuit in
  Array.map
    (fun pi_vec ->
      let v = Array.make width Logic.X in
      Array.blit pi_vec 0 v 0 (Array.length pi_vec);
      v.(Scan.sel_position scan) <- Logic.Zero;
      v)
    vectors

let test scan model ~fault_ids t =
  if Array.length fault_ids = 0 then [||]
  else begin
    let session =
      Faultsim.create ~good_state:t.Scan_test.scan_in model ~fault_ids
    in
    Faultsim.advance session (widen scan t.Scan_test.vectors);
    let detected = ref [] in
    Array.iter
      (fun fid ->
        let po_hit = Faultsim.detection_time session fid <> None in
        let state_hit = (not po_hit) && Faultsim.ff_effects session fid <> [] in
        if po_hit || state_hit then detected := fid :: !detected)
      fault_ids;
    Array.of_list (List.rev !detected)
  end

let set scan model ~fault_ids tests =
  let remaining = ref fault_ids in
  let all = ref [] in
  List.iter
    (fun t ->
      if Array.length !remaining > 0 then begin
        let d = test scan model ~fault_ids:!remaining t in
        all := d :: !all;
        let dset = Hashtbl.create (Array.length d) in
        Array.iter (fun fid -> Hashtbl.replace dset fid ()) d;
        remaining :=
          Array.of_list
            (List.filter
               (fun fid -> not (Hashtbl.mem dset fid))
               (Array.to_list !remaining))
      end)
    tests;
  Array.concat (List.rev !all)
