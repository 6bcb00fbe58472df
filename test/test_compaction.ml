(* Static compaction: both procedures must preserve detection of every
   target fault, only ever shorten the sequence, and keep bookkeeping
   (detection times) consistent. *)

module C = Netlist.Circuit
module L = Netlist.Logic
module Model = Faultmodel.Model
module Faultsim = Logicsim.Faultsim
module Vectors = Logicsim.Vectors
module Target = Compaction.Target

let s27_model () =
  Model.build (Scanins.Scan.insert (Circuits.Iscas.s27 ())).Scanins.Scan.circuit

let random_setup seed len =
  let m = s27_model () in
  let rng = Prng.Rng.create (Int64.of_int seed) in
  let seq = Vectors.random_seq rng ~width:(C.input_count m.Model.circuit) ~length:len in
  let ids = Array.init (Model.fault_count m) Fun.id in
  let targets = Target.compute m seq ~fault_ids:ids in
  m, seq, targets

(* -------------------------------------------------------------- target *)

let test_target_compute () =
  let m, seq, targets = random_setup 1 150 in
  Alcotest.(check bool) "some detected" true (Target.count targets > 40);
  (* Detection times are consistent with single-fault simulation. *)
  Array.iteri
    (fun i fid ->
      match Faultsim.detects_single m ~fault:fid seq with
      | Some t -> Alcotest.(check int) "time" t targets.Target.det_times.(i)
      | None -> Alcotest.fail "target not detected")
    targets.Target.fault_ids

let test_target_detected_by () =
  let m, seq, targets = random_setup 2 150 in
  Alcotest.(check bool) "full seq detects" true (Target.detected_by m seq targets);
  Alcotest.(check bool) "empty seq does not" true
    (Target.count targets = 0 || not (Target.detected_by m [||] targets))

(* ---------------------------------------------------------- restoration *)

let is_subsequence sub seq =
  (* Each vector of [sub] appears in [seq] in order (by physical equality of
     content). *)
  let n = Array.length seq in
  let rec go i j =
    if i >= Array.length sub then true
    else if j >= n then false
    else if sub.(i) = seq.(j) then go (i + 1) (j + 1)
    else go i (j + 1)
  in
  go 0 0

let test_restoration_preserves_targets () =
  let m, seq, targets = random_setup 3 200 in
  let restored = Compaction.Restoration.run m seq targets in
  Alcotest.(check bool) "no longer" true (Array.length restored <= Array.length seq);
  Alcotest.(check bool) "subsequence" true (is_subsequence restored seq);
  Alcotest.(check bool) "all targets kept" true (Target.detected_by m restored targets)

let test_restoration_drops_useless_tail () =
  (* Append pure-X junk after the last detection: restoration must drop it. *)
  let m, seq, targets = random_setup 4 120 in
  let width = C.input_count m.Model.circuit in
  let junk = Array.make 50 (Array.make width L.Zero) in
  let padded = Array.append seq junk in
  let targets_p = Target.compute m padded ~fault_ids:targets.Target.fault_ids in
  let restored = Compaction.Restoration.run m padded targets_p in
  Alcotest.(check bool) "shorter than padded" true
    (Array.length restored < Array.length padded);
  Alcotest.(check bool) "targets kept" true (Target.detected_by m restored targets_p)

let test_restoration_empty_targets () =
  let m, seq, _ = random_setup 5 50 in
  let empty = { Target.fault_ids = [||]; det_times = [||] } in
  let restored = Compaction.Restoration.run m seq empty in
  Alcotest.(check int) "empty result" 0 (Array.length restored)

(* ------------------------------------------------------------- omission *)

let test_omission_preserves_targets () =
  let m, seq, targets = random_setup 6 200 in
  let compacted, targets', _ =
    Compaction.Omission.run m seq targets Compaction.Omission.default_config
  in
  Alcotest.(check bool) "no longer" true
    (Array.length compacted <= Array.length seq);
  Alcotest.(check bool) "targets kept" true (Target.detected_by m compacted targets);
  (* Updated detection times are correct. *)
  Array.iteri
    (fun i fid ->
      match Faultsim.detects_single m ~fault:fid compacted with
      | Some t -> Alcotest.(check int) "updated time" t targets'.Target.det_times.(i)
      | None -> Alcotest.fail "target lost")
    targets'.Target.fault_ids

let test_omission_after_restoration () =
  (* The paper's pipeline: restoration then omission; omission must still
     find vectors to drop and never break the targets. *)
  let m, seq, targets = random_setup 7 250 in
  let restored = Compaction.Restoration.run m seq targets in
  let targets_r = Target.compute m restored ~fault_ids:targets.Target.fault_ids in
  let compacted, _, _ =
    Compaction.Omission.run m restored targets_r Compaction.Omission.default_config
  in
  Alcotest.(check bool) "pipeline monotone" true
    (Array.length compacted <= Array.length restored);
  Alcotest.(check bool) "targets kept" true (Target.detected_by m compacted targets_r)

let test_omission_trial_budget () =
  let m, seq, targets = random_setup 8 200 in
  let cfg = { Compaction.Omission.default_config with max_trials = Some 10 } in
  let compacted, _, _ = Compaction.Omission.run m seq targets cfg in
  (* Ten trials at a maximum chunk of 16 vectors each bound the removal. *)
  Alcotest.(check bool) "bounded removal" true
    (Array.length seq - Array.length compacted <= 10 * 16);
  Alcotest.(check bool) "targets kept" true (Target.detected_by m compacted targets)

let prop_compaction_preserves_coverage =
  QCheck2.Test.make ~name:"restoration+omission preserve every target" ~count:8
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 60 160))
    (fun (seed, len) ->
      let m, seq, targets = random_setup seed len in
      let restored = Compaction.Restoration.run m seq targets in
      let tr = Target.compute m restored ~fault_ids:targets.Target.fault_ids in
      Target.count tr = Target.count targets
      &&
      let compacted, _, _ =
        Compaction.Omission.run m restored tr Compaction.Omission.default_config
      in
      Target.detected_by m compacted targets
      && Array.length compacted <= Array.length restored
      && Array.length restored <= Array.length seq)

let prop_scan_cycles_never_grow =
  (* Compaction operating on C_scan sequences can only reduce the number of
     scan_sel = 1 cycles. *)
  QCheck2.Test.make ~name:"scan cycles never grow under compaction" ~count:6
    QCheck2.Gen.(int_range 0 1_000)
    (fun seed ->
      let scan = Scanins.Scan.insert (Circuits.Iscas.s27 ()) in
      let m = Model.build scan.Scanins.Scan.circuit in
      let rng = Prng.Rng.create (Int64.of_int seed) in
      let seq =
        Vectors.random_seq rng ~width:(C.input_count m.Model.circuit) ~length:150
      in
      let ids = Array.init (Model.fault_count m) Fun.id in
      let targets = Target.compute m seq ~fault_ids:ids in
      let restored = Compaction.Restoration.run m seq targets in
      let sel = Scanins.Scan.sel_position scan in
      Vectors.count restored ~position:sel ~value:L.One
      <= Vectors.count seq ~position:sel ~value:L.One)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "compaction"
    [
      ( "target",
        [
          Alcotest.test_case "compute" `Quick test_target_compute;
          Alcotest.test_case "detected_by" `Quick test_target_detected_by;
        ] );
      ( "restoration",
        [
          Alcotest.test_case "preserves targets" `Quick
            test_restoration_preserves_targets;
          Alcotest.test_case "drops useless tail" `Quick
            test_restoration_drops_useless_tail;
          Alcotest.test_case "empty targets" `Quick test_restoration_empty_targets;
        ] );
      ( "omission",
        [
          Alcotest.test_case "preserves targets" `Quick test_omission_preserves_targets;
          Alcotest.test_case "after restoration" `Quick test_omission_after_restoration;
          Alcotest.test_case "trial budget" `Quick test_omission_trial_budget;
        ] );
      ( "properties",
        [ q prop_compaction_preserves_coverage; q prop_scan_cycles_never_grow ] );
    ]
