(* Cross-validation properties over randomly generated circuits.

   Independent implementations are checked against each other on inputs
   neither was tuned for.  Every simulator in the library (packed fault
   simulation, good simulation, PODEM's implication, diagnosis) evaluates
   gates through [Netlist.Plan.eval]; the reference machine here
   evaluates them through [Netlist.Gate.eval] over the circuit's own
   nodes, sharing no code with the plan.  Checked: the plan evaluator
   gate by gate against [Gate.eval] on every catalog circuit, the
   levelized and diagnosis simulators against the reference, the packed
   fault simulator vs scalar single-fault runs and vs its own
   single-fault sessions, scan-mode equivalence, and — semantically —
   fault collapsing: two faults in one equivalence class must produce
   identical machines. *)

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
   for everything below, evaluating each gate with [Gate.eval].  Starts
   from [init] (default all-X) and returns the output matrix and the
   final flip-flop state. *)
let forced_response ?force ?init c seq =
  let lv = Netlist.Levelize.of_circuit c in
  let values = Array.make (C.node_count c) L.X in
  let dffs = C.dffs c in
  let dff_fanin = Array.map (fun ff -> (C.node c ff).C.fanins.(0)) dffs in
  let state =
    match init with
    | Some s -> Array.copy s
    | None -> Array.make (Array.length dffs) L.X
  in
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
            let node = C.node c nd in
            values.(nd) <-
              G.eval node.C.kind (Array.map (fun f -> values.(f)) node.C.fanins);
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
     undetected fault.  Diagnosis's forced good-machine simulation must
     reproduce the oracle's good and faulty output matrices.  The sequence
     ends in a scan-shift suffix and the session advances in two chunks,
     covering continuation and mid-run repacking. *)
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
      same_matrix (Core.Diagnose.response m seq) good
      && Array.for_all
        (fun fid ->
          let faulty, state = fault_response m fid seq in
          let expected = first_detection good faulty in
          same_matrix (Core.Diagnose.response m ~fault:fid seq) faulty
          &&
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

(* ----------------------------------------- good machine and snapshots *)

let scan_model c = Model.build (Scanins.Scan.insert c).Scanins.Scan.circuit

let random_state rng n ~x =
  Array.init n (fun _ ->
      if x && Prng.Rng.int rng 8 = 0 then L.X else L.of_bool (Prng.Rng.bool rng))

(* After every advance the session's good state is the scalar machine's
   final state over the frames fed so far, from all-X and from a random
   binary state, at jobs 1 and 3, with and without fault groups (a
   session with no targets still steps its good machine).  One input in
   eight is X, so X reaches every gate function, the scan multiplexers'
   select included. *)
let good_state_tracks_oracle m rng =
  let c = m.Model.circuit in
  let nff = C.dff_count c in
  let seq =
    Array.init 30 (fun _ -> random_state rng (C.input_count c) ~x:true)
  in
  let all = Array.init (Model.fault_count m) Fun.id in
  List.for_all
    (fun (init, jobs, ids) ->
      let s = Logicsim.Faultsim.create ?good_state:init ~jobs m ~fault_ids:ids in
      let fed = ref 0 in
      List.for_all
        (fun len ->
          Logicsim.Faultsim.advance s (Array.sub seq !fed len);
          fed := !fed + len;
          let _, want = forced_response ?init c (Array.sub seq 0 !fed) in
          Logicsim.Faultsim.good_state s = want)
        [ 1; 6; 0; 11; 12 ])
    [ None, 1, all;
      Some (random_state rng nff ~x:false), 1, all;
      Some (random_state rng nff ~x:false), 3, all;
      None, 1, [||] ]

let prop_good_state_matches_oracle =
  QCheck2.Test.make ~name:"good_state = scalar oracle state (random circuits)"
    ~count:10
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let m = scan_model (gen_circuit seed) in
      good_state_tracks_oracle m (Prng.Rng.create (Int64.of_int (seed + 8))))

let test_s27_good_state () =
  let m = scan_model (Circuits.Iscas.s27 ()) in
  Alcotest.(check bool) "good state matches the oracle" true
    (good_state_tracks_oracle m (Prng.Rng.create 271L))

(* A session built by [of_snapshot] starts with every fault's state
   exactly as the source session held it at capture — detected faults
   (the good state), undetected ones on dirty and clean flip-flops — and
   then simulates like a session seeded with those states explicitly.
   Captures are taken before any frame (every flip-flop dirty, random
   per-fault states), after one frame and after several; the probe takes
   the captured faults in a shuffled order, so slots move between
   words. *)
let snapshot_transfers_state m rng =
  let module FS = Logicsim.Faultsim in
  let c = m.Model.circuit in
  let nff = C.dff_count c in
  let seq = Vectors.random_seq rng ~width:(C.input_count c) ~length:24 in
  let ids = Array.init (Model.fault_count m) Fun.id in
  let starts = Array.map (fun _ -> random_state rng nff ~x:true) ids in
  let src =
    FS.create ~good_state:(random_state rng nff ~x:true)
      ~faulty_states:(fun fid -> starts.(fid)) m ~fault_ids:ids
  in
  let arena = FS.arena () in
  let fed = ref 0 in
  let detected = ref false in
  let ok =
    List.for_all
      (fun len ->
        FS.advance src (Array.sub seq !fed len);
        fed := !fed + len;
        if FS.detected_count src > 0 then detected := true;
        let snap = FS.snapshot ~arena src in
        let order = Array.copy ids in
        for i = Array.length order - 1 downto 1 do
          let j = Prng.Rng.int rng (i + 1) in
          let x = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- x
        done;
        let probe = FS.of_snapshot snap ~fault_ids:order in
        let states_equal =
          FS.good_state probe = FS.good_state src
          && Array.for_all
               (fun fid -> FS.faulty_state probe fid = FS.faulty_state src fid)
               ids
        in
        let explicit =
          FS.create ~good_state:(FS.good_state src)
            ~faulty_states:(FS.faulty_state src) m ~fault_ids:order
        in
        let rest = Array.sub seq !fed (Array.length seq - !fed) in
        FS.advance probe rest;
        FS.advance explicit rest;
        states_equal
        && Array.for_all
             (fun fid -> FS.detection_time probe fid = FS.detection_time explicit fid)
             ids)
      [ 0; 1; 7 ]
  in
  ok, !detected

let prop_snapshot_transfers_state =
  QCheck2.Test.make ~name:"of_snapshot = source states at capture (random circuits)"
    ~count:10
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let m = scan_model (gen_circuit seed) in
      fst (snapshot_transfers_state m (Prng.Rng.create (Int64.of_int (seed + 9)))))

let test_s27_snapshot () =
  let m = scan_model (Circuits.Iscas.s27 ()) in
  let ok, detected = snapshot_transfers_state m (Prng.Rng.create 272L) in
  Alcotest.(check bool) "captures cover detected faults" true detected;
  Alcotest.(check bool) "probe states match the source" true ok

(* ------------------------------------------------------ gate semantics *)

(* [Plan.eval] against [Gate.eval] on every combinational node of every
   catalog circuit's scan-inserted, elaborated model, scan multiplexers
   and branch buffers included, over random 0/1/X fanin values.  Sources
   have no gate function and must raise. *)
let test_plan_eval_matches_gate_eval () =
  let rng = Prng.Rng.create 29L in
  let draw () =
    match Prng.Rng.int rng 3 with
    | 0 -> L.Zero
    | 1 -> L.One
    | _ -> L.X
  in
  List.iter
    (fun name ->
      let m = scan_model (Circuits.Catalog.circuit name) in
      let plan = m.Model.plan in
      let values = Array.make plan.Netlist.Plan.nodes L.X in
      Array.iter
        (fun node ->
          let id = node.C.id in
          match node.C.kind with
          | G.Input | G.Dff ->
            (match Netlist.Plan.eval plan values id with
             | _ -> Alcotest.failf "%s: source %s evaluated" name node.C.name
             | exception Invalid_argument _ -> ())
          | kind ->
            for _ = 1 to 8 do
              Array.iter (fun f -> values.(f) <- draw ()) node.C.fanins;
              let want =
                G.eval kind (Array.map (fun f -> values.(f)) node.C.fanins)
              in
              if not (L.equal want (Netlist.Plan.eval plan values id)) then
                Alcotest.failf "%s: %s %s" name (G.to_string kind) node.C.name
            done)
        (C.nodes m.Model.circuit))
    Circuits.Catalog.names

(* ---------------------------------------------------- scratch reuse *)

exception Poison

(* Sessions borrow their domain's scratch for one advance.  An advance
   that raises must not poison the next session on the same domain, and
   sessions of two models interleaved on one domain (the omission main
   session and its probes follow this pattern) must each match an
   isolated run.  s298 has enough faults for two repack blocks, so jobs 3
   really spawns a worker. *)
let reference_times m seq =
  Logicsim.Faultsim.detection_times m
    ~fault_ids:(Array.init (Model.fault_count m) Fun.id) seq

let test_scratch_after_raise () =
  let module FS = Logicsim.Faultsim in
  let m = scan_model (Circuits.Catalog.circuit "s298") in
  let c = m.Model.circuit in
  let seq =
    Vectors.random_seq (Prng.Rng.create 298L) ~width:(C.input_count c) ~length:40
  in
  let want = reference_times m seq in
  let ids = Array.init (Model.fault_count m) Fun.id in
  List.iter
    (fun jobs ->
      let s = FS.create ~jobs m ~fault_ids:ids in
      FS.advance s (Array.sub seq 0 3);
      FS.set_block_hook (fun _ -> raise Poison);
      Fun.protect ~finally:FS.clear_block_hook (fun () ->
          match FS.advance s (Array.sub seq 3 5) with
          | () -> Alcotest.fail "the poisoned advance returned"
          | exception Poison -> ());
      Alcotest.(check (array int))
        (Printf.sprintf "fresh session after a raise, jobs %d" jobs)
        want
        (FS.detection_times ~jobs m ~fault_ids:ids seq))
    [ 1; 3 ]

(* Runs on a fresh domain, so the small model's session allocates the
   domain's scratch and the large model's must grow it. *)
let test_scratch_interleaved_models () =
  Domain.join @@ Domain.spawn @@ fun () ->
  let module FS = Logicsim.Faultsim in
  let small = scan_model (Circuits.Iscas.s27 ()) in
  let large = scan_model (Circuits.Catalog.circuit "s298") in
  let rng = Prng.Rng.create 299L in
  let seq_of m =
    Vectors.random_seq rng ~width:(C.input_count m.Model.circuit) ~length:36
  in
  let seq_s = seq_of small and seq_l = seq_of large in
  let session m = FS.create m ~fault_ids:(Array.init (Model.fault_count m) Fun.id) in
  let ss = session small and sl = session large in
  for i = 0 to 5 do
    FS.advance ss (Array.sub seq_s (6 * i) 6);
    FS.advance sl (Array.sub seq_l (6 * i) 6)
  done;
  let times s m =
    Array.init (Model.fault_count m) (fun fid ->
        Option.value ~default:(-1) (FS.detection_time s fid))
  in
  Alcotest.(check (array int)) "small model" (reference_times small seq_s)
    (times ss small);
  Alcotest.(check (array int)) "large model" (reference_times large seq_l)
    (times sl large);
  Alcotest.(check bool) "good states" true
    (FS.good_state ss = snd (forced_response small.Model.circuit seq_s)
     && FS.good_state sl = snd (forced_response large.Model.circuit seq_l))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "crossval"
    [
      ( "simulation",
        [ q prop_goodsim_matches_reference; q prop_scan_functional_equivalence;
          q prop_parallel_equals_serial; q prop_event_equals_scalar;
          q prop_jobs_deterministic ] );
      ( "oracle",
        [ Alcotest.test_case "plan eval = Gate.eval on the catalog" `Quick
            test_plan_eval_matches_gate_eval;
          Alcotest.test_case "s27 detection certificate" `Quick
            test_s27_certificate;
          Alcotest.test_case "s27 good state" `Quick test_s27_good_state;
          Alcotest.test_case "s27 snapshot transfer" `Quick test_s27_snapshot;
          q prop_good_state_matches_oracle; q prop_snapshot_transfers_state ] );
      ( "scratch",
        [ Alcotest.test_case "fresh session after a raise" `Quick
            test_scratch_after_raise;
          Alcotest.test_case "interleaved models" `Quick
            test_scratch_interleaved_models ] );
      ( "faults", [ q prop_collapse_is_semantic ] );
      ( "flow", [ q prop_flow_targets_hold ] );
      ( "telemetry",
        [ q prop_telemetry_invisible; q prop_metrics_jobs_invariant ] );
      ( "compaction", [ q prop_restoration_subset_random_circuits ] );
    ]
