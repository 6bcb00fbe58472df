(* End-to-end pipeline invariants on small circuits: the relations between
   the paper's table columns must hold by construction. *)

module L = Netlist.Logic
module Model = Faultmodel.Model

let check_result (r : Core.Pipeline.result) =
  let open Core.Pipeline in
  (* Table 5 consistency. *)
  Alcotest.(check bool) "fcov in range" true (r.row5.fcov >= 0.0 && r.row5.fcov <= 100.0);
  Alcotest.(check bool) "detected <= faults" true (r.row5.detected <= r.row5.faults);
  Alcotest.(check bool) "funct <= detected" true (r.row5.funct <= r.row5.detected);
  (* Table 6 monotonicity: generation >= restoration >= omission. *)
  Alcotest.(check bool) "restor <= test" true
    (r.row6.restor_len.total <= r.row6.test_len.total);
  Alcotest.(check bool) "omit <= restor" true
    (r.row6.omit_len.total <= r.row6.restor_len.total);
  Alcotest.(check bool) "scan <= total (gen)" true
    (r.row6.test_len.scan <= r.row6.test_len.total);
  Alcotest.(check bool) "scan <= total (omit)" true
    (r.row6.omit_len.scan <= r.row6.omit_len.total);
  Alcotest.(check bool) "scan monotone" true
    (r.row6.omit_len.scan <= r.row6.test_len.scan);
  (* Table 7, when present. *)
  match r.row7 with
  | None -> ()
  | Some row7 ->
    (* Translated length equals the baseline's cycle count by construction. *)
    Alcotest.(check int) "t7 len = [26] cycles" row7.baseline_cycles
      row7.test_len.total;
    Alcotest.(check int) "same cycles in both tables" r.row6.baseline_cycles
      row7.baseline_cycles;
    Alcotest.(check bool) "t7 restor <= t7 test" true
      (row7.restor_len.total <= row7.test_len.total);
    Alcotest.(check bool) "t7 omit <= t7 restor" true
      (row7.omit_len.total <= row7.restor_len.total)

let test_pipeline_s27 () =
  let r = Core.Pipeline.run "s27" in
  check_result r;
  Alcotest.(check (float 0.01)) "s27 full coverage" 100.0 r.Core.Pipeline.row5.fcov;
  Alcotest.(check bool) "has table7" true (r.Core.Pipeline.row7 <> None)

let test_pipeline_b02 () =
  let r = Core.Pipeline.run "b02" in
  check_result r;
  Alcotest.(check bool) "good coverage" true (r.Core.Pipeline.row5.fcov > 95.0);
  (* The headline claim: compacted unified sequence beats the complete-scan
     baseline's tester cycles. *)
  Alcotest.(check bool) "beats baseline" true
    (r.Core.Pipeline.row6.omit_len.Core.Pipeline.total
     < r.Core.Pipeline.row6.baseline_cycles)

let test_pipeline_compacted_sequence_valid () =
  (* Re-derive the compacted sequence and check it still detects every
     fault the generated sequence detected. *)
  let name = "b01" in
  let c = Circuits.Catalog.circuit name in
  let cfg = Core.Config.for_circuit c in
  let scan = Scanins.Scan.insert c in
  let model = Model.build scan.Scanins.Scan.circuit in
  let sk = Atpg.Scan_knowledge.create scan in
  let flow = Core.Flow.generate cfg sk model in
  let restored =
    Compaction.Restoration.run model flow.Core.Flow.sequence flow.Core.Flow.targets
  in
  let tr =
    Compaction.Target.compute model restored
      ~fault_ids:flow.Core.Flow.targets.Compaction.Target.fault_ids
  in
  let compacted, _, _ =
    Compaction.Omission.run model restored tr cfg.Core.Config.omission
  in
  Alcotest.(check bool) "coverage preserved" true
    (Compaction.Target.detected_by model compacted flow.Core.Flow.targets)

let test_pipeline_multichain_runs () =
  let cfg = { (Core.Config.for_circuit (Circuits.Catalog.circuit "s27")) with
              Core.Config.chains = 3 } in
  let r = Core.Pipeline.run ~config:cfg "s27" in
  check_result r;
  Alcotest.(check bool) "coverage still full" true
    (r.Core.Pipeline.row5.fcov > 99.0)

let test_cli_sequence_file_roundtrip () =
  (* The CLI writes sequences as 01x lines; parsing them back must be
     lossless (exercised via the Vectors API the CLI uses). *)
  let rng = Prng.Rng.create 55L in
  let seq = Logicsim.Vectors.random_seq rng ~width:6 ~length:20 in
  let text =
    String.concat "\n" (Array.to_list (Array.map Logicsim.Vectors.to_string seq))
  in
  let back =
    Array.of_list (List.map Logicsim.Vectors.parse (String.split_on_char '\n' text))
  in
  Alcotest.(check int) "length" (Array.length seq) (Array.length back);
  Array.iteri
    (fun i v ->
      Array.iteri
        (fun j x -> Alcotest.(check bool) "bit" true (L.equal x back.(i).(j)))
        v)
    seq

(* Golden payloads: service responses pinned byte for byte (minus the id),
   so a kernel change that moves a vector, a detection or a [sim.*] count
   fails here and not only in the benchmark's digests.  The [sequence]
   array is pinned through its MD5 to keep the expectations short. *)

module J = Obs.Json

let normalized payload =
  match J.parse payload with
  | J.Obj fields ->
    J.to_string
      (J.Obj
         (List.filter_map
            (fun (k, v) ->
              match k, v with
              | "id", _ -> None
              | "sequence", J.Arr vs ->
                let text =
                  String.concat "\n"
                    (List.map (function J.Str s -> s | _ -> "?") vs)
                in
                Some (k, J.Str (Digest.to_hex (Digest.string text)))
              | _ -> Some (k, v))
            fields))
  | _ -> Alcotest.fail ("payload is not an object: " ^ payload)

let service = lazy (Server.Service.create ())

let execute line =
  let payload, _ =
    Server.Service.execute (Lazy.force service) ~budget:(Obs.Budget.create ())
      (Server.Protocol.request_of_string line)
  in
  payload

let golden_generate =
  [ ( {|{"op":"generate","circuit":"s27","seed":11}|},
      {|{"op":"generate","status":"ok","circuit":"s27","cache_key":"a968a13344876da6","targeted":58,"detected":58,"coverage":100.0,"by_random":58,"by_atpg":0,"by_drain":0,"by_justify":0,"generated_vectors":96,"vectors":16,"scan_vectors":7,"omission":{"trials":93,"accepted":9,"rejected":84,"removed_vectors":12,"passes":4},"sequence":"cd6bb505c5196ab21bf4570f28e446c1","counters":{"atpg.aborted_faults":0,"atpg.backtracks":0,"atpg.calls":0,"atpg.decisions":0,"sim.events":2233,"sim.frames":96,"sim.gframes":81,"sim.kills":58,"sim.repacks":0,"sim.wakeups":69}}|} );
    ( {|{"op":"generate","circuit":"s298","seed":3}|},
      {|{"op":"generate","status":"ok","circuit":"s298","cache_key":"3afbf25436d9c91a","targeted":566,"detected":565,"coverage":99.823321554770317,"by_random":556,"by_atpg":2,"by_drain":1,"by_justify":3,"generated_vectors":478,"vectors":101,"scan_vectors":64,"omission":{"trials":651,"accepted":40,"rejected":611,"removed_vectors":214,"passes":5},"sequence":"4c748ac2bf198fdadce4775e9baa1d37","counters":{"atpg.aborted_faults":0,"atpg.backtracks":248,"atpg.calls":37,"atpg.decisions":307,"sim.events":441950,"sim.frames":478,"sim.gframes":1555,"sim.kills":565,"sim.repacks":4,"sim.wakeups":16981}}|} );
    ( {|{"op":"generate","circuit":"s344","seed":5}|},
      {|{"op":"generate","status":"ok","circuit":"s344","cache_key":"533f3d1a018ac4b4","targeted":664,"detected":663,"coverage":99.849397590361448,"by_random":653,"by_atpg":6,"by_drain":1,"by_justify":2,"generated_vectors":257,"vectors":88,"scan_vectors":47,"omission":{"trials":556,"accepted":31,"rejected":525,"removed_vectors":53,"passes":5},"sequence":"3809c53159ae0d78296ad23d12b0260d","counters":{"atpg.aborted_faults":1,"atpg.backtracks":2001,"atpg.calls":48,"atpg.decisions":2186,"sim.events":50775,"sim.frames":257,"sim.gframes":425,"sim.kills":663,"sim.repacks":4,"sim.wakeups":1460}}|} );
    ( {|{"op":"generate","circuit":"s344","seed":5,"sim_jobs":3}|},
      {|{"op":"generate","status":"ok","circuit":"s344","cache_key":"533f3d1a018ac4b4","targeted":664,"detected":663,"coverage":99.849397590361448,"by_random":653,"by_atpg":6,"by_drain":1,"by_justify":2,"generated_vectors":257,"vectors":88,"scan_vectors":47,"omission":{"trials":556,"accepted":31,"rejected":525,"removed_vectors":53,"passes":5},"sequence":"3809c53159ae0d78296ad23d12b0260d","counters":{"atpg.aborted_faults":1,"atpg.backtracks":2001,"atpg.calls":48,"atpg.decisions":2186,"sim.events":50775,"sim.frames":257,"sim.gframes":425,"sim.kills":663,"sim.repacks":4,"sim.wakeups":1460}}|} ) ]

let test_golden_generate () =
  List.iter
    (fun (line, want) ->
      Alcotest.(check string) line want (normalized (execute line)))
    golden_generate

(* The compact input is s298's uncompacted generated sequence. *)
let test_golden_compact () =
  let seq =
    match
      J.member "sequence"
        (J.parse
           (execute
              {|{"op":"generate","circuit":"s298","seed":7,"compact":false}|}))
    with
    | Some v -> J.to_string v
    | None -> Alcotest.fail "no sequence in the generate payload"
  in
  List.iter
    (fun jobs ->
      let line =
        Printf.sprintf
          {|{"op":"compact","circuit":"s298","seed":7,"compact_jobs":%d,"vectors":%s}|}
          jobs seq
      in
      Alcotest.(check string)
        (Printf.sprintf "compact s298 compact_jobs %d" jobs)
        {|{"op":"compact","status":"ok","circuit":"s298","cache_key":"3afbf25436d9c91a","detects":565,"faults":573,"vectors_in":358,"vectors_out":92,"scan_vectors_in":130,"scan_vectors_out":62,"omission":{"trials":580,"accepted":37,"rejected":543,"removed_vectors":184,"passes":5},"sequence":"5b6de721cbba1770f752231d57127863","counters":{}}|} (normalized (execute line)))
    [ 1; 2 ]

let () =
  Alcotest.run "integration"
    [
      ( "pipeline",
        [
          Alcotest.test_case "s27 end to end" `Slow test_pipeline_s27;
          Alcotest.test_case "b02 end to end" `Slow test_pipeline_b02;
          Alcotest.test_case "compacted sequence valid" `Slow
            test_pipeline_compacted_sequence_valid;
          Alcotest.test_case "multichain" `Slow test_pipeline_multichain_runs;
        ] );
      ( "golden",
        [ Alcotest.test_case "generate payloads" `Slow test_golden_generate;
          Alcotest.test_case "compact payloads" `Slow test_golden_compact ] );
      ( "io",
        [ Alcotest.test_case "sequence file roundtrip" `Quick
            test_cli_sequence_file_roundtrip ] );
    ]
