module Circuit = Netlist.Circuit
module Logic = Netlist.Logic
module Model = Faultmodel.Model
module Faultsim = Logicsim.Faultsim
module Vectors = Logicsim.Vectors
module Scan = Scanins.Scan

type stats = {
  sequence : Vectors.t;
  universe : int;
  targeted : int;
  pruned_redundant : int;
  detected : int;
  by_random : int;
  by_atpg : int;
  by_drain : int;
  by_justify : int;
  undetected : int array;
  aborted_faults : int array;
  targets : Compaction.Target.t;
}

(* Mid-generation resume point.  [segments] records every [Faultsim.advance]
   the main session has executed, in reverse order and with the original
   call boundaries: repack scheduling depends on each advance's frame count,
   so a resumed run replays the exact same calls and lands on a session
   whose detection times, group packing and telemetry counters are all
   bit-identical to the uninterrupted run.  Probe sessions (commit
   verification, random-phase probes) are throwaway and deterministic given
   the main session's state, so they are not recorded; the accumulated ATPG
   effort they represent is carried in the counter snapshot instead. *)
type cursor = {
  c_target_ids : int array;
  c_pruned_redundant : int;
  c_next_fault : int;  (* index into [c_target_ids] to resume at *)
  c_segments : Vectors.t list;  (* reverse chronological advance calls *)
  c_rng_state : int64;
  c_by_random : int;
  c_by_atpg : int;
  c_by_drain : int;
  c_by_justify : int;
  c_aborted : int list;
  c_atpg_calls : int;
  c_atpg_decisions : int;
  c_atpg_backtracks : int;
}

let coverage s =
  if s.targeted = 0 then 100.0
  else 100.0 *. float_of_int s.detected /. float_of_int s.targeted

(* Fold the flow's search-effort and simulation telemetry into a metrics
   document.  Only the main session is counted: probe sessions created by
   [commit]'s verification are single-job and by-construction deterministic,
   but they are throwaway and their totals add nothing a reader of the
   document can act on. *)
let record_telemetry metrics ~observe (atpg : Atpg.Podem.stats) session =
  let c = Obs.Metrics.counters metrics in
  Obs.Counters.add c "atpg.calls" atpg.Atpg.Podem.calls;
  Obs.Counters.add c "atpg.decisions" atpg.Atpg.Podem.decisions;
  Obs.Counters.add c "atpg.backtracks" atpg.Atpg.Podem.backtracks;
  let st = Faultsim.stats session in
  Obs.Counters.add c "sim.frames" st.Faultsim.frames;
  Obs.Counters.add c "sim.gframes" st.Faultsim.gframes;
  Obs.Counters.add c "sim.events" st.Faultsim.events;
  Obs.Counters.add c "sim.wakeups" st.Faultsim.wakeups;
  Obs.Counters.add c "sim.kills" st.Faultsim.kills;
  Obs.Counters.add c "sim.repacks" st.Faultsim.repacks;
  if observe then begin
    Obs.Counters.add c "activity.toggles" st.Faultsim.toggles;
    Obs.Counters.add c "activity.wsa" st.Faultsim.wsa;
    Obs.Metrics.add_hist metrics "sim.frame_toggles"
      (Faultsim.frame_toggles session)
  end

(* PODEM backtracks allowed per proof when excluding faults proven
   combinationally untestable (full state control and observation) from
   the target list — see DESIGN.md §3. *)
let redundancy_backtrack_limit = 3000

let generate ?metrics ?(budget = Obs.Budget.unlimited) ?resume
    ?(checkpoint_every = 0) ?(on_checkpoint = fun (_ : cursor) -> ())
    ?(trace = Obs.Trace.null) (cfg : Config.t) sk model =
  (* Stage timer: a span always, plus a phase when a metrics document is
     attached.  Stage names are the daemon's per-request span vocabulary. *)
  let timed name f =
    match metrics with
    | Some m -> Obs.Metrics.timed m ~trace name f
    | None -> Obs.Trace.with_span trace name f
  in
  let scan = Atpg.Scan_knowledge.scan sk in
  let universe = Model.fault_count model in
  let target_ids, pruned_redundant =
    match resume with
    | Some c -> c.c_target_ids, c.c_pruned_redundant
    | None ->
      let t, r, _unknown =
        timed "flow.prune" (fun () ->
            Testability.partition ~budget model
              ~backtrack_limit:redundancy_backtrack_limit)
      in
      t, Array.length r
  in
  let rng =
    match resume with
    | Some c -> Prng.Rng.of_state c.c_rng_state
    | None ->
      Prng.Rng.of_string cfg.Config.seed (Circuit.name model.Model.circuit)
  in
  let session =
    Faultsim.create ~jobs:cfg.Config.sim_jobs ~observe:cfg.Config.observe
      ~budget model ~fault_ids:target_ids
  in
  let atpg_stats = Atpg.Podem.make_stats () in
  (* Every advance of the main session, newest first; [Array.concat] of the
     reversal is the generated sequence. *)
  let segments = ref [] in
  let aborted = ref [] in
  let by_random = ref 0 in
  let by_atpg = ref 0 and by_drain = ref 0 and by_justify = ref 0 in
  let commits = ref 0 in
  let append vecs =
    if Array.length vecs > 0 then begin
      Faultsim.advance session vecs;
      segments := vecs :: !segments
    end
  in
  (match resume with
   | Some c ->
     (* Replay with the recorded call boundaries; see {!cursor}. *)
     List.iter (fun seg -> Faultsim.advance session seg) (List.rev c.c_segments);
     segments := c.c_segments;
     aborted := c.c_aborted;
     by_random := c.c_by_random;
     by_atpg := c.c_by_atpg;
     by_drain := c.c_by_drain;
     by_justify := c.c_by_justify;
     atpg_stats.Atpg.Podem.calls <- c.c_atpg_calls;
     atpg_stats.Atpg.Podem.decisions <- c.c_atpg_decisions;
     atpg_stats.Atpg.Podem.backtracks <- c.c_atpg_backtracks
   | None ->
     (* Phase 1: random. *)
     (match cfg.Config.random_phase with
      | None -> ()
      | Some rp_cfg ->
        timed "flow.random" (fun () ->
            ignore
              (Atpg.Random_phase.run
                 ~record:(fun burst -> segments := burst :: !segments)
                 ~budget session model
                 ~scan_sel_position:(Scan.sel_position scan)
                 ~rng:(Prng.Rng.split rng) rp_cfg);
            by_random := Faultsim.detected_count session)));
  (* Phase 2: deterministic, one target fault at a time. *)
  let commit fid vecs counter =
    (* A candidate subsequence is committed only when simulation confirms it
       detects the target from the live states. *)
    let good = Faultsim.good_state session in
    let faulty = Faultsim.faulty_state session fid in
    match Faultsim.detects_single model ~fault:fid ~start:(good, faulty) vecs with
    | Some _ ->
      append vecs;
      incr counter;
      incr commits;
      true
    | None -> false
  in
  (* Free-initial-state searches rarely profit from deep unrolls (the scan
     load supplies the state); cap their depth list. *)
  let cap_free (c : Atpg.Seq_atpg.config) =
    let rec take n = function
      | [] -> []
      | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
    in
    { c with Atpg.Seq_atpg.depths = take 3 c.Atpg.Seq_atpg.depths }
  in
  (* One fault's attempt ladder (forward search, drain salvage, scan-load
     justification).  A fault whose search ran out of backtracks or budget
     without a detection is recorded in [aborted]. *)
  let attempt atpg_cfg fid =
    if Faultsim.detection_time session fid = None then begin
      let ab = ref false in
      let good = Faultsim.good_state session in
      let faulty = Faultsim.faulty_state session fid in
      let found =
        if cfg.Config.use_drain then begin
          match
            Atpg.Seq_atpg.detect_latch model atpg_cfg ~fault:fid ~good ~faulty
              ~stats:atpg_stats ~budget ~aborted:ab ()
          with
          | Some (`Detected vecs) -> commit fid (Vectors.fill_x rng vecs) by_atpg
          | Some (`Latched (vecs, dff)) ->
            let vecs = Vectors.fill_x rng vecs in
            let drain = Atpg.Scan_knowledge.drain sk ~rng ~dff in
            commit fid (Array.append vecs drain) by_drain
          | None -> false
        end
        else begin
          match
            Atpg.Seq_atpg.detect model atpg_cfg ~fault:fid ~good ~faulty
              ~stats:atpg_stats ~budget ~aborted:ab ()
          with
          | Some vecs -> commit fid (Vectors.fill_x rng vecs) by_atpg
          | None -> false
        end
      in
      if (not found) && cfg.Config.use_justify then begin
        match
          Atpg.Seq_atpg.detect_free model (cap_free atpg_cfg) ~fault:fid
            ~stats:atpg_stats ~budget ~aborted:ab ()
        with
        | Some (state, vecs) ->
          let load = Atpg.Scan_knowledge.load sk ~rng ~state in
          let vecs = Vectors.fill_x rng vecs in
          ignore (commit fid (Array.append load vecs) by_justify)
        | None -> ()
      end;
      if !ab && Faultsim.detection_time session fid = None then
        aborted := fid :: !aborted
    end
  in
  let n = Array.length target_ids in
  let snapshot next_fault =
    {
      c_target_ids = target_ids;
      c_pruned_redundant = pruned_redundant;
      c_next_fault = next_fault;
      c_segments = !segments;
      c_rng_state = Prng.Rng.state rng;
      c_by_random = !by_random;
      c_by_atpg = !by_atpg;
      c_by_drain = !by_drain;
      c_by_justify = !by_justify;
      c_aborted = !aborted;
      c_atpg_calls = atpg_stats.Atpg.Podem.calls;
      c_atpg_decisions = atpg_stats.Atpg.Podem.decisions;
      c_atpg_backtracks = atpg_stats.Atpg.Podem.backtracks;
    }
  in
  let i =
    ref
      (match resume with
       | Some c -> c.c_next_fault
       | None -> 0)
  in
  timed "flow.atpg" (fun () ->
      while !i < n && Obs.Budget.check budget do
        attempt cfg.Config.atpg target_ids.(!i);
        incr i;
        if checkpoint_every > 0 && !commits >= checkpoint_every then begin
          commits := 0;
          on_checkpoint (snapshot !i)
        end
      done);
  if !i < n then begin
    (* Budget tripped: the remaining undetected faults were never attempted;
       they count as aborted so a later run with headroom can re-queue
       them. *)
    while !i < n do
      let fid = target_ids.(!i) in
      if Faultsim.detection_time session fid = None then
        aborted := fid :: !aborted;
      incr i
    done
  end
  else if Obs.Budget.limited budget && !aborted <> [] && Obs.Budget.check budget
  then begin
    (* Headroom remains after the full pass: re-queue each aborted fault
       once with an escalated backtrack ceiling.  Only limited budgets take
       this path, so the default (unlimited) flow is unchanged. *)
    let esc =
      { cfg.Config.atpg with
        Atpg.Seq_atpg.backtrack_limit =
          4 * cfg.Config.atpg.Atpg.Seq_atpg.backtrack_limit }
    in
    let queue = List.rev !aborted in
    aborted := [];
    timed "flow.requeue" (fun () ->
        List.iter
          (fun fid ->
            if Obs.Budget.check budget then attempt esc fid
            else if Faultsim.detection_time session fid = None then
              aborted := fid :: !aborted)
          queue)
  end;
  let sequence = Array.concat (List.rev !segments) in
  let targets =
    let ids = ref [] and times = ref [] in
    Array.iter
      (fun fid ->
        match Faultsim.detection_time session fid with
        | Some t ->
          ids := fid :: !ids;
          times := t :: !times
        | None -> ())
      target_ids;
    {
      Compaction.Target.fault_ids = Array.of_list (List.rev !ids);
      det_times = Array.of_list (List.rev !times);
    }
  in
  let aborted_faults = Array.of_list (List.rev !aborted) in
  (match metrics with
   | None -> ()
   | Some m ->
     record_telemetry m ~observe:cfg.Config.observe atpg_stats session;
     Obs.Counters.add (Obs.Metrics.counters m) "atpg.aborted_faults"
       (Array.length aborted_faults));
  {
    sequence;
    universe;
    targeted = Array.length target_ids;
    pruned_redundant;
    detected = Faultsim.detected_count session;
    by_random = !by_random;
    by_atpg = !by_atpg;
    by_drain = !by_drain;
    by_justify = !by_justify;
    undetected = Faultsim.undetected session;
    aborted_faults;
    targets;
  }
