(* Cross-validation properties over randomly generated circuits.

   Independent implementations are checked against each other on inputs
   neither was tuned for: the scalar reference evaluator vs the levelized
   simulator, the packed fault simulator vs scalar single-fault runs and vs
   its own single-fault sessions, scan-mode equivalence, and —
   semantically — fault collapsing: two faults in one equivalence class
   must produce identical machines. *)

module C = Netlist.Circuit
module G = Netlist.Gate
module L = Netlist.Logic
module F = Faultmodel.Fault
module Model = Faultmodel.Model
module Vectors = Logicsim.Vectors

let gen_circuit seed =
  Circuits.Synthetic.generate ~name:"xv" ~pis:4 ~ffs:6 ~gates:45
    ~seed:(Int64.of_int seed) ()

(* Scalar simulation with an optional forced node: the reference machine
   for everything below.  Returns the output matrix and the final
   flip-flop state. *)
let forced_response ?force c seq =
  let lv = Netlist.Levelize.of_circuit c in
  let values = Array.make (C.node_count c) L.X in
  let dffs = C.dffs c in
  let dff_fanin = Array.map (fun ff -> (C.node c ff).C.fanins.(0)) dffs in
  let state = Array.make (Array.length dffs) L.X in
  let apply n =
    match force with
    | Some (fn, fv) when fn = n -> values.(n) <- fv
    | Some _ | None -> ()
  in
  let outs =
    Array.map
      (fun vec ->
        Array.iteri
          (fun i id ->
            values.(id) <- vec.(i);
            apply id)
          (C.inputs c);
        Array.iteri
          (fun k id ->
            values.(id) <- state.(k);
            apply id)
          dffs;
        Array.iter
          (fun nd ->
            values.(nd) <- Logicsim.Goodsim.eval_node c values nd;
            apply nd)
          lv.Netlist.Levelize.order;
        Array.iteri (fun k d -> state.(k) <- values.(d)) dff_fanin;
        Array.map (fun o -> values.(o)) (C.outputs c))
      seq
  in
  outs, state

(* One fault of [m] under the scalar oracle: the forced node and value come
   straight from the model, never through the packed injection tables. *)
let fault_response m fid seq =
  forced_response
    ~force:(m.Model.fault_node.(fid), L.of_bool m.Model.fault_stuck.(fid))
    m.Model.circuit seq

let strict good faulty =
  L.is_binary good && L.is_binary faulty && not (L.equal good faulty)

(* First strict detection frame (some output binary in the good machine and
   the opposite binary in the faulty one), -1 when none. *)
let first_detection good faulty =
  let rec go i =
    if i = Array.length good then -1
    else if Array.exists2 strict good.(i) faulty.(i) then i
    else go (i + 1)
  in
  go 0

let same_matrix a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun r1 r2 -> Array.for_all2 L.equal r1 r2) a b

(* ------------------------------------------------------------ properties *)

let prop_goodsim_matches_reference =
  QCheck2.Test.make ~name:"goodsim = scalar reference on random circuits"
    ~count:15
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let c = gen_circuit seed in
      let rng = Prng.Rng.create (Int64.of_int (seed + 1)) in
      let seq = Vectors.random_seq rng ~width:(C.input_count c) ~length:30 in
      let sim = Logicsim.Goodsim.create c in
      same_matrix (Logicsim.Goodsim.run sim seq) (fst (forced_response c seq)))

let prop_scan_functional_equivalence =
  QCheck2.Test.make
    ~name:"C_scan with scan_sel=0 behaves like C (random circuits)" ~count:15
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let c = gen_circuit seed in
      let scan = Scanins.Scan.insert c in
      let cs = scan.Scanins.Scan.circuit in
      let rng = Prng.Rng.create (Int64.of_int (seed + 2)) in
      let npi = C.input_count c in
      let seq = Vectors.random_seq rng ~width:npi ~length:30 in
      let widened =
        Array.map
          (fun v ->
            let w = Array.make (C.input_count cs) L.Zero in
            Array.blit v 0 w 0 npi;
            w.(Scanins.Scan.sel_position scan) <- L.Zero;
            w.(Scanins.Scan.inp_position scan ~chain:0)
              <- L.of_bool (Prng.Rng.bool rng);
            w)
          seq
      in
      let oc, _ = forced_response c seq in
      let os, _ = forced_response cs widened in
      (* The original outputs come first in C_scan's output list. *)
      Array.for_all2
        (fun r1 r2 ->
          Array.for_all2 L.equal r1 (Array.sub r2 0 (Array.length r1)))
        oc os)

let prop_parallel_equals_serial =
  QCheck2.Test.make ~name:"parallel faultsim = serial (random circuits)"
    ~count:8
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let c = gen_circuit seed in
      let scan = Scanins.Scan.insert c in
      let m = Model.build scan.Scanins.Scan.circuit in
      let rng = Prng.Rng.create (Int64.of_int (seed + 3)) in
      let seq =
        Vectors.random_seq rng
          ~width:(C.input_count m.Model.circuit) ~length:40
      in
      let ids = Array.init (Model.fault_count m) Fun.id in
      let par = Logicsim.Faultsim.detection_times m ~fault_ids:ids seq in
      Array.for_all
        (fun fid ->
          let ser =
            match Logicsim.Faultsim.detects_single m ~fault:fid seq with
            | Some t -> t
            | None -> -1
          in
          par.(fid) = ser)
        ids)

let prop_event_equals_scalar =
  (* The event-driven kernel against the scalar single-fault oracle, which
     shares neither the 62-way packing nor the injection tables: identical
     first detection frames for every fault, and identical surviving
     machine state (flip-flop values and strict effects) for every
     undetected fault.  The sequence ends in a scan-shift suffix and the
     session advances in two chunks, covering continuation and mid-run
     repacking. *)
  QCheck2.Test.make ~name:"faultsim = scalar oracle (random circuits)"
    ~count:10
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let c = gen_circuit seed in
      let scan = Scanins.Scan.insert c in
      let cs = scan.Scanins.Scan.circuit in
      let m = Model.build cs in
      let rng = Prng.Rng.create (Int64.of_int (seed + 6)) in
      let seq = Vectors.random_seq rng ~width:(C.input_count cs) ~length:40 in
      let sel = Scanins.Scan.sel_position scan in
      Array.iteri (fun i v -> if i >= 30 then v.(sel) <- L.One) seq;
      let ids = Array.init (Model.fault_count m) Fun.id in
      let module FS = Logicsim.Faultsim in
      let event = FS.create m ~fault_ids:ids in
      FS.advance event (Array.sub seq 0 17);
      FS.advance event (Array.sub seq 17 23);
      let good, good_state = forced_response m.Model.circuit seq in
      Array.for_all
        (fun fid ->
          let faulty, state = fault_response m fid seq in
          let expected = first_detection good faulty in
          match FS.detection_time event fid with
          | Some t -> t = expected
          | None ->
            expected = -1
            && FS.faulty_state event fid = state
            && FS.ff_effects event fid
               = List.filter
                   (fun k -> strict good_state.(k) state.(k))
                   (List.init (Array.length state) Fun.id))
        ids)

let prop_jobs_deterministic =
  (* Domain-parallel group scheduling must be invisible in the results. *)
  QCheck2.Test.make ~name:"jobs > 1 gives identical detection times" ~count:6
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let c = gen_circuit seed in
      let scan = Scanins.Scan.insert c in
      let m = Model.build scan.Scanins.Scan.circuit in
      let rng = Prng.Rng.create (Int64.of_int (seed + 7)) in
      let seq =
        Vectors.random_seq rng
          ~width:(C.input_count m.Model.circuit) ~length:40
      in
      let ids = Array.init (Model.fault_count m) Fun.id in
      Logicsim.Faultsim.detection_times m ~fault_ids:ids seq
      = Logicsim.Faultsim.detection_times ~jobs:3 m ~fault_ids:ids seq)

let prop_collapse_is_semantic =
  (* Two faults in one equivalence class produce the same faulty machine:
     identical output matrices on random stimuli. *)
  QCheck2.Test.make ~name:"equivalence classes are semantically equivalent"
    ~count:8
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let c = gen_circuit seed in
      let scan = Scanins.Scan.insert c in
      let base = scan.Scanins.Scan.circuit in
      let m = Model.build base in
      let collapsed = Faultmodel.Collapse.run base in
      let rng = Prng.Rng.create (Int64.of_int (seed + 4)) in
      let seq =
        Vectors.random_seq rng
          ~width:(C.input_count m.Model.circuit) ~length:25
      in
      (* Group universe faults by class. *)
      let by_class = Hashtbl.create 64 in
      Array.iteri
        (fun i f ->
          let cls = collapsed.Faultmodel.Collapse.class_of.(i) in
          Hashtbl.replace by_class cls
            (f :: Option.value ~default:[] (Hashtbl.find_opt by_class cls)))
        collapsed.Faultmodel.Collapse.universe;
      let ok = ref true in
      Hashtbl.iter
        (fun _ members ->
          match members with
          | first :: (_ :: _ as rest) when !ok ->
            let resp (f : F.t) =
              let node = Model.node_for_site m f.F.site in
              fst
                (forced_response ~force:(node, L.of_bool f.F.stuck)
                   m.Model.circuit seq)
            in
            let r0 = resp first in
            List.iter (fun f -> if not (same_matrix r0 (resp f)) then ok := false) rest
          | _ -> ())
        by_class;
      !ok)

let prop_flow_targets_hold =
  (* The full generation flow's bookkeeping is honest on random circuits:
     every target is detected by the final sequence at its recorded time. *)
  QCheck2.Test.make ~name:"flow detection times verified by simulation"
    ~count:4
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let c = gen_circuit seed in
      let scan = Scanins.Scan.insert c in
      let m = Model.build scan.Scanins.Scan.circuit in
      let sk = Atpg.Scan_knowledge.create scan in
      let cfg =
        { (Core.Config.for_circuit c) with
          Core.Config.atpg = { Atpg.Seq_atpg.depths = [ 1; 2; 4 ]; backtrack_limit = 60 } }
      in
      let flow = Core.Flow.generate cfg sk m in
      let t = flow.Core.Flow.targets in
      Array.for_all2
        (fun fid dt ->
          Logicsim.Faultsim.detects_single m ~fault:fid flow.Core.Flow.sequence
          = Some dt)
        t.Compaction.Target.fault_ids t.Compaction.Target.det_times)

let prop_telemetry_invisible =
  (* Turning every telemetry knob on — metrics document, live tracer,
     activity observation — must not change what the flow and the
     compaction procedures compute. *)
  QCheck2.Test.make ~name:"telemetry on vs off gives identical results"
    ~count:4
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let c = gen_circuit seed in
      let scan = Scanins.Scan.insert c in
      let m = Model.build scan.Scanins.Scan.circuit in
      let sk = Atpg.Scan_knowledge.create scan in
      let base =
        { (Core.Config.for_circuit c) with
          Core.Config.atpg =
            { Atpg.Seq_atpg.depths = [ 1; 2; 4 ]; backtrack_limit = 60 } }
      in
      let run ~telemetry =
        let cfg = { base with Core.Config.observe = telemetry } in
        let flow =
          if telemetry then
            let metrics = Obs.Metrics.create () in
            let trace = Obs.Trace.create () in
            Obs.Metrics.timed metrics ~trace "generate" (fun () ->
                Core.Flow.generate ~metrics cfg sk m)
          else Core.Flow.generate cfg sk m
        in
        let restored =
          Compaction.Restoration.run m flow.Core.Flow.sequence
            flow.Core.Flow.targets
        in
        let t =
          Compaction.Target.compute m restored
            ~fault_ids:flow.Core.Flow.targets.Compaction.Target.fault_ids
        in
        let omitted, _, _ =
          Compaction.Omission.run m restored t cfg.Core.Config.omission
        in
        flow.Core.Flow.sequence, restored, omitted
      in
      run ~telemetry:true = run ~telemetry:false)

let prop_metrics_jobs_invariant =
  (* The flow's merged telemetry — every counter and histogram — must be
     bit-identical at any simulation job count, not just the results. *)
  QCheck2.Test.make ~name:"flow metrics identical at sim_jobs 1 vs 3"
    ~count:4
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let c = gen_circuit seed in
      let scan = Scanins.Scan.insert c in
      let m = Model.build scan.Scanins.Scan.circuit in
      let sk = Atpg.Scan_knowledge.create scan in
      let run jobs =
        let cfg =
          Core.Config.with_sim_jobs jobs
            { (Core.Config.for_circuit c) with
              Core.Config.observe = true;
              atpg =
                { Atpg.Seq_atpg.depths = [ 1; 2; 4 ]; backtrack_limit = 60 } }
        in
        let metrics = Obs.Metrics.create () in
        ignore (Core.Flow.generate ~metrics cfg sk m);
        ( Obs.Counters.to_alist (Obs.Metrics.counters metrics),
          List.map
            (fun (n, h) -> n, Obs.Hist.count h, Obs.Hist.sum h, Obs.Hist.buckets h)
            (Obs.Metrics.hists metrics) )
      in
      run 1 = run 3)

let prop_restoration_subset_random_circuits =
  QCheck2.Test.make ~name:"restoration preserves targets on random circuits"
    ~count:5
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let c = gen_circuit seed in
      let scan = Scanins.Scan.insert c in
      let m = Model.build scan.Scanins.Scan.circuit in
      let rng = Prng.Rng.create (Int64.of_int (seed + 5)) in
      let seq =
        Vectors.random_seq rng
          ~width:(C.input_count m.Model.circuit) ~length:120
      in
      let ids = Array.init (Model.fault_count m) Fun.id in
      let targets = Compaction.Target.compute m seq ~fault_ids:ids in
      let restored = Compaction.Restoration.run m seq targets in
      Array.length restored <= Array.length seq
      && Compaction.Target.detected_by m restored targets)

(* --------------------------------------------------------- certificates *)

let test_s27_certificate () =
  (* Every collapsed s27 fault's reported detection frame, re-derived by
     the scalar oracle over a fixed sequence that ends in a scan shift. *)
  let scan = Scanins.Scan.insert (Circuits.Iscas.s27 ()) in
  let m = Model.build scan.Scanins.Scan.circuit in
  let rng = Prng.Rng.create 27L in
  let seq =
    Vectors.random_seq rng ~width:(C.input_count m.Model.circuit) ~length:64
  in
  let sel = Scanins.Scan.sel_position scan in
  Array.iteri (fun i v -> if i >= 48 then v.(sel) <- L.One) seq;
  let ids = Array.init (Model.fault_count m) Fun.id in
  let good, _ = forced_response m.Model.circuit seq in
  let oracle =
    Array.map
      (fun fid -> first_detection good (fst (fault_response m fid seq)))
      ids
  in
  Alcotest.(check bool) "oracle detects faults" true
    (Array.exists (fun t -> t >= 0) oracle);
  Alcotest.(check (array int)) "detection frames" oracle
    (Logicsim.Faultsim.detection_times m ~fault_ids:ids seq)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "crossval"
    [
      ( "simulation",
        [ q prop_goodsim_matches_reference; q prop_scan_functional_equivalence;
          q prop_parallel_equals_serial; q prop_event_equals_scalar;
          q prop_jobs_deterministic ] );
      ( "oracle",
        [ Alcotest.test_case "s27 detection certificate" `Quick
            test_s27_certificate ] );
      ( "faults", [ q prop_collapse_is_semantic ] );
      ( "flow", [ q prop_flow_targets_hold ] );
      ( "telemetry",
        [ q prop_telemetry_invisible; q prop_metrics_jobs_invariant ] );
      ( "compaction", [ q prop_restoration_subset_random_circuits ] );
    ]
