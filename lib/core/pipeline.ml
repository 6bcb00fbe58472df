module Circuit = Netlist.Circuit
module Logic = Netlist.Logic
module Model = Faultmodel.Model
module Faultsim = Logicsim.Faultsim
module Vectors = Logicsim.Vectors
module Scan = Scanins.Scan

type lengths = {
  total : int;
  scan : int;
}

type table5_row = {
  name : string;
  inp : int;
  stvr : int;
  faults : int;
  detected : int;
  fcov : float;
  funct : int;
}

type table6_row = {
  name : string;
  test_len : lengths;
  restor_len : lengths;
  omit_len : lengths;
  ext_det : int;
  baseline_cycles : int;
}

type table7_row = {
  name : string;
  test_len : lengths;
  restor_len : lengths;
  omit_len : lengths;
  baseline_cycles : int;
}

type result = {
  circuit : string;
  row5 : table5_row;
  row6 : table6_row;
  row7 : table7_row option;
  flow : Flow.stats;
  degraded : bool;
  runtime_s : float;
  metrics : Obs.Metrics.t;
  omit_stats : Compaction.Omission.stats;
}

exception Halted of string

let scan_count scan seq =
  Vectors.count seq ~position:(Scan.sel_position scan) ~value:Logic.One

let lengths scan seq = { total = Array.length seq; scan = scan_count scan seq }

let zero_omit_stats =
  {
    Compaction.Omission.trials = 0;
    accepted = 0;
    rejected = 0;
    removed_vectors = 0;
    passes = 0;
    removed_per_pass = [||];
  }

(* Restoration followed by omission, as in the paper's experiments.  The
   omission trial budget adapts to the restored length so that very large
   circuits stay within a laptop-scale run; the budget is far above what the
   schedule consumes on the small and medium benchmarks.

   [budget] reaches the trial loops of both procedures but deliberately not
   [Target.compute]: a frozen probe there would silently drop compaction
   targets, whereas restoration and omission degrade to a valid (merely
   longer) sequence.

   The speculative-dispatch accounting of both procedures is folded into
   the metrics counters before returning, i.e. before any checkpoint
   captures them, so a resumed run reports the same totals as an
   uninterrupted one. *)
let compact ?(budget = Obs.Budget.unlimited) ?rstats ?trace ~metrics cfg model
    seq targets =
  let spec = Compaction.Spec.make () in
  let adaptive = Compaction.Spec.make_adaptive () in
  let restored, targets_r =
    Obs.Metrics.timed metrics ?trace "restore" (fun () ->
        let restored =
          Compaction.Restoration.run ?stats:rstats ~budget
            ~jobs:cfg.Config.compact_jobs ~spec ~adaptive model seq targets
        in
        let targets_r =
          Compaction.Target.compute ~jobs:cfg.Config.sim_jobs model restored
            ~fault_ids:targets.Compaction.Target.fault_ids
        in
        restored, targets_r)
  in
  let omission =
    match cfg.Config.omission.Compaction.Omission.max_trials with
    | Some _ -> cfg.Config.omission
    | None ->
      { cfg.Config.omission with
        Compaction.Omission.max_trials = Some ((4 * Array.length restored) + 2000) }
  in
  let omitted, _, ostats =
    Obs.Metrics.timed metrics ?trace "omit" (fun () ->
        Compaction.Omission.run ~budget ~metrics ?trace ~spec ~adaptive model
          restored targets_r omission)
  in
  let c = Obs.Metrics.counters metrics in
  Compaction.Spec.record spec c;
  Compaction.Spec.record_adaptive adaptive c;
  restored, omitted, ostats

let record_omission c (o : Compaction.Omission.stats) =
  Obs.Counters.add c "omit.trials" o.Compaction.Omission.trials;
  Obs.Counters.add c "omit.accepted" o.Compaction.Omission.accepted;
  Obs.Counters.add c "omit.rejected" o.Compaction.Omission.rejected;
  Obs.Counters.add c "omit.removed_vectors"
    o.Compaction.Omission.removed_vectors;
  Obs.Counters.add c "omit.passes" o.Compaction.Omission.passes

let run ?(scale = Circuits.Profiles.Quick) ?config ?metrics ?(trace = Obs.Trace.null)
    ?(budget = Obs.Budget.unlimited) ?checkpoint ?resume
    ?(checkpoint_every = 25) ?halt_after name =
  let metrics =
    match metrics with
    | Some m -> m
    | None -> Obs.Metrics.create ()
  in
  (* Wall clock, not [Sys.time]: CPU time both under-reports sleep/IO and
     over-reports domain-parallel phases (it sums across cores). *)
  let t0 = Obs.Clock.now_ns () in
  let rstats = Compaction.Restoration.make_stats () in
  let c = Circuits.Catalog.circuit ~scale name in
  let cfg =
    match config with
    | Some cfg -> cfg
    | None -> Config.for_circuit c
  in
  let fp =
    Checkpoint.fingerprint ~circuit:name ~scale ~seed:cfg.Config.seed
      ~chains:cfg.Config.chains
  in
  (match resume with
   | Some (f : Checkpoint.file) ->
     if f.Checkpoint.fingerprint <> fp then
       raise
         (Checkpoint.Corrupt
            (Printf.sprintf "fingerprint %S does not match this run (%S)"
               f.Checkpoint.fingerprint fp))
   | None -> ());
  let save_stage stage =
    match checkpoint with
    | None -> ()
    | Some path -> Checkpoint.save ~path ~fingerprint:fp stage
  in
  let halt phase =
    match halt_after with
    | Some p when p = phase -> raise (Halted phase)
    | _ -> ()
  in
  let cnt = Obs.Metrics.counters metrics in
  (* The first phase the budget was seen tripped in, for the
     [budget.tripped.<phase>] telemetry counter and the [degraded] flag. *)
  let tripped_in = ref None in
  let note_trip phase =
    if !tripped_in = None && Obs.Budget.expired budget then begin
      tripped_in := Some phase;
      Obs.Counters.add cnt (Printf.sprintf "budget.tripped.%s" phase) 1
    end;
    !tripped_in <> None
  in
  let scan =
    Obs.Metrics.timed metrics ~trace "scan-insert" (fun () ->
        Scan.insert ~chains:cfg.Config.chains c)
  in
  let model =
    Obs.Metrics.timed metrics ~trace "model-build" (fun () ->
        Model.build scan.Scan.circuit)
  in
  let sk = Atpg.Scan_knowledge.create scan in
  (* Phase results restored from a phase-boundary checkpoint, if any. *)
  let restored_phases =
    match resume with
    | Some { Checkpoint.stage = Checkpoint.Phased p; _ } ->
      List.iter (fun (k, v) -> Obs.Counters.add cnt k v) p.Checkpoint.p_counters;
      let r, pr, bs = p.Checkpoint.p_rstats in
      rstats.Compaction.Restoration.restored <- r;
      rstats.Compaction.Restoration.probes <- pr;
      rstats.Compaction.Restoration.batch_sims <- bs;
      Some p
    | _ -> None
  in
  let counters_snapshot () = Obs.Counters.to_alist cnt in
  let rstats_snapshot () =
    ( rstats.Compaction.Restoration.restored,
      rstats.Compaction.Restoration.probes,
      rstats.Compaction.Restoration.batch_sims )
  in
  let flow =
    match restored_phases with
    | Some p -> p.Checkpoint.p_flow
    | None ->
      let gen_resume =
        match resume with
        | Some { Checkpoint.stage = Checkpoint.Generating cur; _ } -> Some cur
        | _ -> None
      in
      let on_checkpoint cur = save_stage (Checkpoint.Generating cur) in
      let flow =
        Obs.Metrics.timed metrics ~trace "generate" (fun () ->
            Flow.generate ~metrics ~budget ~trace ?resume:gen_resume
              ~checkpoint_every:(if checkpoint = None then 0 else checkpoint_every)
              ~on_checkpoint cfg sk model)
      in
      save_stage
        (Checkpoint.Phased
           {
             Checkpoint.p_flow = flow;
             p_counters = counters_snapshot ();
             p_rstats = rstats_snapshot ();
             p_compact = None;
             p_ext_det = None;
             p_baseline = None;
           });
      flow
  in
  halt "generate";
  let seq = flow.Flow.sequence in
  let targets = flow.Flow.targets in
  let gen_tripped = note_trip "generate" in
  (* Degradation ladder: once the budget has tripped, every remaining phase
     is replaced by its cheapest sound stand-in — compaction returns the
     sequence unchanged, extra detection reports none, the baseline (and
     with it Table 7) is skipped. *)
  let restored, omitted, omit_stats =
    if gen_tripped then seq, seq, zero_omit_stats
    else begin
      match restored_phases with
      | Some { Checkpoint.p_compact = Some (r, o, s); _ } -> r, o, s
      | _ ->
        let r, o, s =
          compact ~budget ~rstats ~trace ~metrics cfg model seq targets
        in
        record_omission cnt s;
        save_stage
          (Checkpoint.Phased
             {
               Checkpoint.p_flow = flow;
               p_counters = counters_snapshot ();
               p_rstats = rstats_snapshot ();
               p_compact = Some (r, o, s);
               p_ext_det = None;
               p_baseline = None;
             });
        r, o, s
    end
  in
  halt "compact";
  let compact_tripped = note_trip "compact" in
  (* Extra detections: previously-undetected targeted faults that the
     compacted sequence happens to catch. *)
  let ext_det =
    if compact_tripped then 0
    else begin
      match restored_phases with
      | Some { Checkpoint.p_ext_det = Some e; _ } -> e
      | _ ->
        let e =
          Obs.Metrics.timed metrics ~trace "extra-detect" (fun () ->
              if Array.length flow.Flow.undetected = 0 then 0
              else begin
                let times =
                  Faultsim.detection_times ~jobs:cfg.Config.sim_jobs model
                    ~fault_ids:flow.Flow.undetected omitted
                in
                Array.fold_left
                  (fun acc t -> if t >= 0 then acc + 1 else acc)
                  0 times
              end)
        in
        save_stage
          (Checkpoint.Phased
             {
               Checkpoint.p_flow = flow;
               p_counters = counters_snapshot ();
               p_rstats = rstats_snapshot ();
               p_compact = Some (restored, omitted, omit_stats);
               p_ext_det = Some e;
               p_baseline = None;
             });
        e
    end
  in
  halt "extra-detect";
  let ext_tripped = note_trip "extra-detect" in
  (* Baseline ([26]-style): generation + test dropping. *)
  let base_tests, baseline_cycles, base =
    if ext_tripped then
      ( [],
        0,
        { Baseline.Gen26.tests = []; detected = [||]; undetected = [||] } )
    else begin
      match restored_phases with
      | Some { Checkpoint.p_baseline = Some (bt, bc, b); _ } -> bt, bc, b
      | _ ->
        let bt, bc, b =
          Obs.Metrics.timed metrics ~trace "baseline" (fun () ->
              let base = Baseline.Gen26.generate scan model cfg.Config.atpg in
              let base_tests =
                Baseline.Compact26.run scan model
                  ~fault_ids:base.Baseline.Gen26.detected
                  base.Baseline.Gen26.tests
              in
              base_tests, Baseline.Gen26.cycles scan base_tests, base)
        in
        save_stage
          (Checkpoint.Phased
             {
               Checkpoint.p_flow = flow;
               p_counters = counters_snapshot ();
               p_rstats = rstats_snapshot ();
               p_compact = Some (restored, omitted, omit_stats);
               p_ext_det = Some ext_det;
               p_baseline = Some (bt, bc, b);
             });
        bt, bc, b
    end
  in
  halt "baseline";
  let baseline_tripped = note_trip "baseline" in
  let row5 =
    {
      name;
      inp = Circuit.input_count scan.Scan.circuit;
      stvr = Circuit.dff_count c;
      faults = flow.Flow.targeted;
      detected = flow.Flow.detected;
      fcov = Flow.coverage flow;
      funct = flow.Flow.by_drain;
    }
  in
  let row6 =
    {
      name;
      test_len = lengths scan seq;
      restor_len = lengths scan restored;
      omit_len = lengths scan omitted;
      ext_det;
      baseline_cycles;
    }
  in
  (* Table 7: translate the baseline's compacted set and compact the
     translation. *)
  let row7 =
    if base_tests = [] || baseline_tripped then None
    else begin
      let t7, targets7 =
        Obs.Metrics.timed metrics ~trace "translate" (fun () ->
            let rng = Prng.Rng.of_string cfg.Config.seed (name ^ "/translate") in
            let t7 = Translation.Translate.run scan ~tests:base_tests ~rng in
            let targets7 =
              Compaction.Target.compute ~jobs:cfg.Config.sim_jobs model t7
                ~fault_ids:base.Baseline.Gen26.detected
            in
            t7, targets7)
      in
      (* Row 7's compaction accumulates into the same restore/omit phases
         and counters as row 6's. *)
      let restored7, omitted7, ostats7 =
        compact ~budget ~rstats ~trace ~metrics cfg model t7 targets7
      in
      record_omission cnt ostats7;
      Some
        {
          name;
          test_len = lengths scan t7;
          restor_len = lengths scan restored7;
          omit_len = lengths scan omitted7;
          baseline_cycles;
        }
    end
  in
  ignore (note_trip "translate");
  Obs.Counters.add cnt "restore.vectors_restored"
    rstats.Compaction.Restoration.restored;
  Obs.Counters.add cnt "restore.probes" rstats.Compaction.Restoration.probes;
  Obs.Counters.add cnt "restore.batch_sims"
    rstats.Compaction.Restoration.batch_sims;
  { circuit = name; row5; row6; row7; flow;
    degraded = !tripped_in <> None;
    runtime_s = Obs.Clock.to_s (Obs.Clock.elapsed_ns t0);
    metrics; omit_stats }
