(* Scan insertion and classical scan-test representation: structure of
   C_scan, chain shift semantics checked by simulation, multi-chain
   insertion, tester cycle accounting. *)

module C = Netlist.Circuit
module L = Netlist.Logic
module Scan = Scanins.Scan
module Chain = Scanins.Chain
module Scan_test = Scanins.Scan_test

let s27_scan () = Scan.insert (Circuits.Iscas.s27 ())

(* ----------------------------------------------------------- structure *)

let test_insert_structure () =
  let s = s27_scan () in
  let cs = s.Scan.circuit in
  Alcotest.(check int) "inputs +2" 6 (C.input_count cs);
  Alcotest.(check int) "outputs +1" 2 (C.output_count cs);
  Alcotest.(check int) "same dffs" 3 (C.dff_count cs);
  Alcotest.(check int) "one mux per ff" (10 + 3) (C.gate_count cs);
  Alcotest.(check int) "nsv" 3 (Scan.nsv s);
  Alcotest.(check string) "sel name" "scan_sel" (Scan.sel_name s);
  Alcotest.(check string) "inp name" "scan_inp" (Scan.inp_name s ~chain:0)

let test_insert_positions () =
  let s = s27_scan () in
  Alcotest.(check int) "sel after orig PIs" 4 (Scan.sel_position s);
  Alcotest.(check int) "inp after sel" 5 (Scan.inp_position s ~chain:0)

let test_insert_preserves_names () =
  let s = s27_scan () in
  Array.iter
    (fun nd ->
      Alcotest.(check bool) ("kept " ^ nd.C.name) true
        (C.find s.Scan.circuit nd.C.name <> None))
    (C.nodes s.Scan.original)

let test_insert_chain_order () =
  (* Chain order must follow declaration order of the flip-flops. *)
  let s = s27_scan () in
  let names =
    Array.to_list
      (Array.map
         (fun ff -> (C.node s.Scan.circuit ff).C.name)
         s.Scan.chains.(0).Chain.ffs)
  in
  Alcotest.(check (list string)) "order" [ "G5"; "G6"; "G7" ] names

let test_insert_errors () =
  let inv f =
    Alcotest.(check bool) "rejects" true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  let c = Circuits.Iscas.s27 () in
  inv (fun () -> Scan.insert ~chains:0 c);
  inv (fun () -> Scan.insert ~chains:4 c);
  let comb =
    Netlist.Bench_format.parse_string ~name:"comb" "INPUT(a)\nOUTPUT(g)\ng = NOT(a)\n"
  in
  inv (fun () -> Scan.insert comb)

let test_insert_name_clash () =
  (* A design already using "scan_sel" forces a fresh name. *)
  let b = C.Builder.create ~name:"clash" () in
  C.Builder.add_input b "scan_sel";
  C.Builder.add_gate b "q" Netlist.Gate.Dff [ "d" ];
  C.Builder.add_gate b "d" Netlist.Gate.Not [ "q" ];
  C.Builder.add_gate b "o" Netlist.Gate.And [ "scan_sel"; "q" ];
  C.Builder.add_output b "o";
  let s = Scan.insert (C.Builder.build b) in
  Alcotest.(check bool) "fresh sel name" true (Scan.sel_name s <> "scan_sel")

(* ----------------------------------------- shift semantics (simulation) *)

let functional_mode_vector s ~sel ~inp =
  let cs = s.Scan.circuit in
  let v = Array.make (C.input_count cs) L.Zero in
  v.(Scan.sel_position s) <- sel;
  v.(Scan.inp_position s ~chain:0) <- inp;
  v

let test_shift_behaviour () =
  let s = s27_scan () in
  let sim = Logicsim.Goodsim.create s.Scan.circuit in
  (* Shift 1,0,1 in: state must become [1;0;1] along the chain. *)
  List.iter
    (fun bit -> Logicsim.Goodsim.step sim (functional_mode_vector s ~sel:L.One ~inp:bit))
    [ L.One; L.Zero; L.One ];
  (* Chain position p of the state: dffs order = chain order here. *)
  let st = Logicsim.Goodsim.state sim in
  Alcotest.(check bool) "pos0 = last fed" true (L.equal st.(0) L.One);
  Alcotest.(check bool) "pos1" true (L.equal st.(1) L.Zero);
  Alcotest.(check bool) "pos2 = first fed" true (L.equal st.(2) L.One)

let test_scan_out_observes_last_ff () =
  let s = s27_scan () in
  let sim = Logicsim.Goodsim.create s.Scan.circuit in
  (* Load all ones, then check scan_out over successive shifts of zeros. *)
  for _ = 1 to 3 do
    Logicsim.Goodsim.step sim (functional_mode_vector s ~sel:L.One ~inp:L.One)
  done;
  let out_node = Chain.out_node s.Scan.chains.(0) in
  (* scan_out equals the last flip-flop's current value each cycle. *)
  Logicsim.Goodsim.step sim (functional_mode_vector s ~sel:L.One ~inp:L.Zero);
  Alcotest.(check bool) "sees 1" true
    (L.equal (Logicsim.Goodsim.value sim out_node) L.One)

let test_functional_mode_matches_original () =
  (* With scan_sel = 0, C_scan behaves exactly like C. *)
  let c = Circuits.Iscas.s27 () in
  let s = Scan.insert c in
  let rng = Prng.Rng.create 77L in
  let sim_c = Logicsim.Goodsim.create c in
  let sim_s = Logicsim.Goodsim.create s.Scan.circuit in
  for _ = 1 to 100 do
    let pi = Logicsim.Vectors.random rng ~width:4 in
    let wide = Array.make 6 L.Zero in
    Array.blit pi 0 wide 0 4;
    wide.(4) <- L.Zero;
    wide.(5) <- L.of_bool (Prng.Rng.bool rng);
    Logicsim.Goodsim.step sim_c pi;
    Logicsim.Goodsim.step sim_s wide;
    let o_c = Logicsim.Goodsim.po_values sim_c in
    let o_s = Logicsim.Goodsim.po_values sim_s in
    (* First output of C_scan is G17, same as C's only output. *)
    Alcotest.(check bool) "same PO" true (L.equal o_c.(0) o_s.(0))
  done

(* ---------------------------------------------------------- multichain *)

let test_multichain_structure () =
  let c = Circuits.Catalog.circuit "s298" in
  let s = Scan.insert ~chains:3 c in
  Alcotest.(check int) "three chains" 3 (Array.length s.Scan.chains);
  let total =
    Array.fold_left (fun acc ch -> acc + Chain.length ch) 0 s.Scan.chains
  in
  Alcotest.(check int) "all ffs chained" (C.dff_count c) total;
  Alcotest.(check int) "nsv = longest chain" 5 (Scan.nsv s);
  Alcotest.(check int) "inputs +1+3" (3 + 1 + 3) (C.input_count s.Scan.circuit)

let test_multichain_no_empty_chain () =
  (* 5 flip-flops over 4 chains: ceiling chunks of 2 would leave the last
     chain empty. *)
  let c = Circuits.Catalog.circuit "b01" in
  let s = Scan.insert ~chains:4 c in
  let lens = Array.map Chain.length s.Scan.chains in
  Alcotest.(check (array int)) "chain lengths" [| 2; 1; 1; 1 |] lens

let test_chain_positions () =
  let s = s27_scan () in
  let ch = s.Scan.chains.(0) in
  Array.iteri
    (fun pos ff ->
      Alcotest.(check int) "position" pos (Chain.position ch ff);
      let c, p = Scan.chain_of_ff s ff in
      Alcotest.(check int) "chain idx" 0 c;
      Alcotest.(check int) "chain pos" pos p)
    ch.Chain.ffs;
  Alcotest.(check int) "shifts from pos0" 2 (Chain.shifts_to_observe ch ~position:0);
  Alcotest.(check int) "shifts from last" 0 (Chain.shifts_to_observe ch ~position:2)

(* ----------------------------------------------------------- scan_test *)

let test_cycles_math () =
  let t1 = { Scan_test.scan_in = [| L.One; L.Zero; L.One |]; vectors = [| [| L.One |] |] } in
  let t2 = { Scan_test.scan_in = [| L.X; L.X; L.X |];
             vectors = [| [| L.Zero |]; [| L.One |] |] } in
  Alcotest.(check int) "one test" (1 + 3) (Scan_test.test_cycles ~nsv:3 t1);
  (* Paper accounting: nsv + sum(|T_i| + nsv). *)
  Alcotest.(check int) "set" (3 + (1 + 3) + (2 + 3)) (Scan_test.set_cycles ~nsv:3 [ t1; t2 ])

let test_scan_in_feed_reversed () =
  let t = { Scan_test.scan_in = [| L.Zero; L.One; L.X |]; vectors = [||] } in
  let feed = Scan_test.scan_in_feed t in
  Alcotest.(check bool) "deepest first" true
    (L.equal feed.(0) L.X && L.equal feed.(1) L.One && L.equal feed.(2) L.Zero)

let prop_load_establishes_state =
  (* Feeding scan_in_feed through the chain leaves exactly scan_in in the
     flip-flops — the core identity the translation relies on. *)
  QCheck2.Test.make ~name:"scan load establishes the target state" ~count:50
    QCheck2.Gen.(array_size (return 3) (oneofl [ L.Zero; L.One ]))
    (fun target ->
      let s = s27_scan () in
      let sim = Logicsim.Goodsim.create s.Scan.circuit in
      let t = { Scan_test.scan_in = target; vectors = [||] } in
      Array.iter
        (fun bit ->
          Logicsim.Goodsim.step sim (functional_mode_vector s ~sel:L.One ~inp:bit))
        (Scan_test.scan_in_feed t);
      let st = Logicsim.Goodsim.state sim in
      Array.for_all2 L.equal st target)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "scanins"
    [
      ( "insertion",
        [
          Alcotest.test_case "structure" `Quick test_insert_structure;
          Alcotest.test_case "input positions" `Quick test_insert_positions;
          Alcotest.test_case "names preserved" `Quick test_insert_preserves_names;
          Alcotest.test_case "chain order" `Quick test_insert_chain_order;
          Alcotest.test_case "errors" `Quick test_insert_errors;
          Alcotest.test_case "name clash" `Quick test_insert_name_clash;
        ] );
      ( "shift semantics",
        [
          Alcotest.test_case "shift in" `Quick test_shift_behaviour;
          Alcotest.test_case "scan_out" `Quick test_scan_out_observes_last_ff;
          Alcotest.test_case "functional mode = original" `Quick
            test_functional_mode_matches_original;
          q prop_load_establishes_state;
        ] );
      ( "multichain",
        [
          Alcotest.test_case "structure" `Quick test_multichain_structure;
          Alcotest.test_case "no empty chain" `Quick
            test_multichain_no_empty_chain;
          Alcotest.test_case "positions" `Quick test_chain_positions;
        ] );
      ( "scan_test",
        [
          Alcotest.test_case "cycle accounting" `Quick test_cycles_math;
          Alcotest.test_case "feed reversal" `Quick test_scan_in_feed_reversed;
        ] );
    ]
