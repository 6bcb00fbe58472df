module Model = Faultmodel.Model
module Faultsim = Logicsim.Faultsim
module View = Logicsim.Vectors.View

type config = {
  max_trials : int option;
  jobs : int;
}

let default_config = { max_trials = None; jobs = 1 }

(* Coarse-to-fine pass schedule (vectors omitted per trial): large chunks
   remove whole useless regions in one verification; the trailing
   single-vector passes polish until a fixpoint.  Then the size of the
   cheap pre-check fault window, and the re-detection horizon: a trial is
   rejected unless every affected fault re-detects within this many frames
   of its previous detection point — conservative, but it bounds each
   trial's simulation cost. *)
let schedule = [ 16; 4; 1; 1; 1 ]
let precheck_window = 48
let redetect_horizon = 128

(* [trial_budget] holds the trials left ([max_int] when unlimited); a
   tripped time/backtrack budget ends a pass at the next round boundary,
   and the sequence built so far is valid as it stands. *)
let budget_left trial_budget budget =
  !trial_budget > 0 && Obs.Budget.check budget

type stats = {
  trials : int;
  accepted : int;
  rejected : int;
  removed_vectors : int;
  passes : int;
  removed_per_pass : int array;
}

(* One left-to-right pass trying to omit [chunk] consecutive vectors per
   trial.  [det] maps target index -> detection time in the current
   sequence; updated in place on acceptance.  The main session holds every
   target's state just before the current round's base position, so a
   trial only re-simulates the faults whose detection could be affected —
   those detected at or after the trial position — over the suffix.
   Probing with the faults sorted by detection time clusters each
   simulator word around one region of the suffix, letting groups retire
   early.

   Speculation: a round at base [i] dispatches [width = min (jobs,
   remaining)] trials at positions [i .. i+width-1] across worker domains,
   each probing against one shared snapshot of the main session.  The
   trial at [i+j] assumes trials [i .. i+j-1] were all rejected, which it
   reproduces exactly by replaying those vectors from the snapshot — so
   committing results left to right up to (and including) the first
   acceptance replays the sequential trace verbatim.  Results beyond the
   first acceptance assumed a sequence that no longer exists and are
   discarded.  The committed trace — and with it the sequence, the [det]
   array and the trials/accepted/removed counters — is therefore
   bit-identical at any [jobs]; varying it changes only the
   dispatch-schedule telemetry ([compaction.speculative.*]). *)
let one_pass model (targets : Target.t) config ~chunk ~spec ~adaptive
    seq det trial_budget obudget =
  let n = Target.count targets in
  let seq = ref seq in
  let changed = ref false in
  let trials = ref 0 and accepted = ref 0 and removed = ref 0 in
  let i = ref 0 in
  let session =
    Faultsim.create ~jobs:config.jobs model ~fault_ids:targets.Target.fault_ids
  in
  (* One arena per pass: each round's capture recycles the previous
     round's packed buffers (the [Spec.map] join guarantees no probe
     still reads them). *)
  let arena = Faultsim.arena () in
  while !i < Array.length !seq && budget_left trial_budget obudget do
    let len = Array.length !seq in
    let base = !i in
    let width = max 1 (min (min config.jobs (len - base)) !trial_budget) in
    (* One snapshot serves every trial of the round: each trial's fault
       subset is contained in the faults still detected at or after
       [base], and replaying kept vectors from the snapshot is exact. *)
    let snap_ids = ref [] in
    for k = n - 1 downto 0 do
      if det.(k) >= base then
        snap_ids := targets.Target.fault_ids.(k) :: !snap_ids
    done;
    let snap =
      Faultsim.snapshot ~arena ~fault_ids:(Array.of_list !snap_ids) session
    in
    let whole = View.of_seq !seq in
    (* Workers own one trial each, so their probe sessions stay
       single-domain; the sequential path keeps fanning a lone probe out
       across the configured domains. *)
    let session_jobs = if width > 1 then 1 else config.jobs in
    (* Verify the trial removing [c] vectors at [p] by replaying the kept
       prefix [base..p-1] (detection-free: every probed fault has
       [det >= p]) and then simulating the suffix in steps.  Each target
       must re-detect within [redetect_horizon] frames of where it used to
       be detected; failing that, the trial is rejected without simulating
       the remainder — this bounds the cost of both rejections and (with
       the fault words clustered by detection time) acceptances. *)
    let trial j =
      let p = base + j in
      let c = min chunk (len - p) in
      let subset = ref [] in
      for k = n - 1 downto 0 do
        if det.(k) >= p then subset := k :: !subset
      done;
      let subset = Array.of_list !subset in
      (* Faults detected soonest after [p] first: likeliest to break, and
         the resulting word grouping clusters detection times. *)
      Array.sort (fun a b -> compare det.(a) det.(b)) subset;
      let old_base = p + c in
      let probe sub =
        let ids = Array.map (fun k -> targets.Target.fault_ids.(k)) sub in
        let s = Faultsim.of_snapshot ~jobs:session_jobs snap ~fault_ids:ids in
        if p > base then
          Faultsim.advance_view s (View.slice whole base (p - base));
        (* The suffix is a zero-copy window: a trial never materializes
           the candidate sequence. *)
        let suffix = View.slice whole old_base (len - old_base) in
        let slen = View.length suffix in
        let step = 64 in
        let pos = ref 0 in
        let ptr = ref 0 in
        let ok = ref true in
        while
          !ok && !pos < slen && Faultsim.detected_count s < Array.length ids
        do
          let m = min step (slen - !pos) in
          Faultsim.advance_view s (View.slice suffix !pos m);
          pos := !pos + m;
          (* Every fault whose old detection lies >= [redetect_horizon]
             frames behind the simulated front must have re-detected by
             now. *)
          let threshold = old_base + !pos - redetect_horizon in
          while
            !ok && !ptr < Array.length sub && det.(sub.(!ptr)) <= threshold
          do
            if Faultsim.detection_time s ids.(!ptr) = None then ok := false
            else incr ptr
          done
        done;
        if !ok && Faultsim.detected_count s = Array.length ids then
          Some
            (Array.map
               (fun fid ->
                 (* Probe time counts from [base]; kept-prefix frames were
                    detection-free, so [base + t] is the detection's
                    position in the shortened sequence. *)
                 match Faultsim.detection_time s fid with
                 | Some t -> base + t
                 | None -> assert false)
               ids)
        else None
      in
      let accept =
        if Array.length subset = 0 then Some [||]
        else begin
          let quick =
            if Array.length subset > 2 * precheck_window then
              probe (Array.sub subset 0 precheck_window) <> None
            else true
          in
          if not quick then None else probe subset
        end
      in
      (subset, c, accept)
    in
    let results = Spec.map ~jobs:width width trial in
    if width > 1 then
      spec.Spec.dispatched <- spec.Spec.dispatched + (width - 1);
    (* Commit left to right; the first acceptance wins the round. *)
    let j = ref 0 in
    let committed_accept = ref false in
    while (not !committed_accept) && !j < width do
      let subset, c, accept = results.(!j) in
      let p = base + !j in
      incr trials;
      decr trial_budget;
      if !j > 0 then spec.Spec.committed <- spec.Spec.committed + 1;
      (match accept with
       | Some new_times ->
         committed_accept := true;
         changed := true;
         incr accepted;
         removed := !removed + c;
         (* Catch the main session up over the kept prefix the accepted
            trial assumed, then cut the sequence at [p]; the next round
            retries at [p] against the shortened sequence. *)
         if p > base then
           Faultsim.advance_view session (View.slice whole base (p - base));
         let suffix = View.slice whole (p + c) (len - p - c) in
         seq := Array.append (Array.sub !seq 0 p) (View.to_seq suffix);
         Array.iteri (fun idx k -> det.(k) <- new_times.(idx)) subset;
         i := p
       | None -> incr j)
    done;
    if !committed_accept then
      spec.Spec.discarded <- spec.Spec.discarded + (width - !j - 1)
    else begin
      (* Whole round rejected: keep all [width] vectors and move on. *)
      Faultsim.advance_view session (View.slice whole base width);
      i := base + width
    end
  done;
  adaptive.Spec.arena_reuses <-
    adaptive.Spec.arena_reuses + Faultsim.arena_hits arena;
  !seq, !changed, (!trials, !accepted, !removed)

let run_scoped ?(budget = Obs.Budget.unlimited) ?metrics ?trace ?spec ?adaptive
    model seq (targets : Target.t) config =
  let spec = Option.value spec ~default:(Spec.make ()) in
  let adaptive = Option.value adaptive ~default:(Spec.make_adaptive ()) in
  let n = Target.count targets in
  let det = Array.copy targets.Target.det_times in
  let trial_budget = ref (Option.value config.max_trials ~default:max_int) in
  let seq = ref seq in
  let continue_ = ref true in
  let trials = ref 0 and accepted = ref 0 in
  let per_pass = ref [] in
  let pass_idx = ref 0 in
  List.iter
    (fun chunk ->
      if !continue_ && budget_left trial_budget budget then begin
        incr pass_idx;
        let timed f =
          match metrics with
          | None -> f ()
          | Some m ->
            Obs.Metrics.timed m ?trace
              (Printf.sprintf "omit.pass%d" !pass_idx)
              f
        in
        let seq', changed, (t, a, r) =
          timed (fun () ->
              one_pass model targets config ~chunk ~spec ~adaptive !seq
                det trial_budget budget)
        in
        seq := seq';
        trials := !trials + t;
        accepted := !accepted + a;
        per_pass := r :: !per_pass;
        (* Stop early only once the fine passes make no progress. *)
        if chunk = 1 && not changed then continue_ := false
      end)
    schedule;
  let removed_per_pass = Array.of_list (List.rev !per_pass) in
  let stats =
    { trials = !trials;
      accepted = !accepted;
      rejected = !trials - !accepted;
      removed_vectors = Array.fold_left ( + ) 0 removed_per_pass;
      passes = Array.length removed_per_pass;
      removed_per_pass }
  in
  ( !seq,
    { Target.fault_ids = Array.copy targets.Target.fault_ids;
      det_times = Array.init n (fun k -> det.(k)) },
    stats )

(* One worker scope for the whole run: the trial domains, and their
   simulator scratch, survive from one round to the next. *)
let run ?budget ?metrics ?trace ?spec ?adaptive model seq targets config =
  Logicsim.Workers.scoped ~jobs:config.jobs (fun () ->
      run_scoped ?budget ?metrics ?trace ?spec ?adaptive model seq targets config)
