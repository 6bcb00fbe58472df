module Model = Faultmodel.Model
module Faultsim = Logicsim.Faultsim
module View = Logicsim.Vectors.View

type config = {
  max_passes : int;
  max_trials : int option;
  window : int;
  horizon : int;
  jobs : int;
}

let default_config =
  { max_passes = 5; max_trials = None; window = 48; horizon = 128; jobs = 1 }

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
   bit-identical at any [jobs].

   Adaptive width: positions are probed in increasing order and each is
   committed exactly once (rejections advance past it, an acceptance
   restarts at it against the shortened sequence), so the committed
   trial sequence is the same for ANY per-round width trajectory — the
   width only decides how many trials are precomputed speculatively.
   The controller exploits that freedom: an acceptance at slot [j]
   proves the trials beyond [j] were wasted, so the width shrinks to
   [j + 1]; a streak of fully-rejected rounds means speculation is
   paying again, so it doubles back up to [config.jobs].  Varying [jobs]
   changes only dispatch-schedule telemetry ([compaction.speculative.*] /
   [compaction.adaptive.*]). *)
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
  (* Width controller state: the current speculation cap and the length
     of the ongoing fully-rejected-round streak. *)
  let cur_width = ref config.jobs in
  let reject_streak = ref 0 in
  let budget_left () =
    (match trial_budget with
     | Some b -> !b > 0
     | None -> true)
    (* A tripped time/backtrack budget ends the pass at the next round
       boundary; the sequence built so far is valid as it stands. *)
    && Obs.Budget.check obudget
  in
  while !i < Array.length !seq && budget_left () do
    let len = Array.length !seq in
    let base = !i in
    let width_full =
      let w = max 1 (min config.jobs (len - base)) in
      match trial_budget with
      | Some b -> max 1 (min w !b)
      | None -> w
    in
    let width = max 1 (min width_full !cur_width) in
    adaptive.Spec.trials_saved <-
      adaptive.Spec.trials_saved + (width_full - width);
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
       must re-detect within [horizon] frames of where it used to be
       detected; failing that, the trial is rejected without simulating
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
          (* Every fault whose old detection lies >= horizon frames behind
             the simulated front must have re-detected by now. *)
          let threshold = old_base + !pos - config.horizon in
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
            if Array.length subset > 2 * config.window then
              probe (Array.sub subset 0 config.window) <> None
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
      (match trial_budget with
       | Some b -> decr b
       | None -> ());
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
    if !committed_accept then begin
      spec.Spec.discarded <- spec.Spec.discarded + (width - !j - 1);
      (* An acceptance at slot [j] wasted the [width - j - 1] trials
         beyond it: narrow the next rounds to what this one used. *)
      reject_streak := 0;
      if !j + 1 < width then begin
        cur_width := !j + 1;
        adaptive.Spec.shrinks <- adaptive.Spec.shrinks + 1
      end
    end
    else begin
      (* Whole round rejected: keep all [width] vectors and move on. *)
      Faultsim.advance_view session (View.slice whole base width);
      i := base + width;
      (* Every speculative trial was consumed; two such rounds in a row
         mean speculation pays again, so widen back toward the cap. *)
      incr reject_streak;
      if !reject_streak >= 2 && !cur_width < config.jobs then begin
        cur_width := min config.jobs (2 * !cur_width);
        adaptive.Spec.widens <- adaptive.Spec.widens + 1;
        reject_streak := 0
      end
    end
  done;
  adaptive.Spec.arena_reuses <-
    adaptive.Spec.arena_reuses + Faultsim.arena_hits arena;
  !seq, !changed, (!trials, !accepted, !removed)

let run ?(budget = Obs.Budget.unlimited) ?metrics ?trace ?spec ?adaptive model
    seq (targets : Target.t) config =
  let spec =
    match spec with
    | Some s -> s
    | None -> Spec.make ()
  in
  let adaptive =
    match adaptive with
    | Some a -> a
    | None -> Spec.make_adaptive ()
  in
  let n = Target.count targets in
  let det = Array.copy targets.Target.det_times in
  let trial_budget = Option.map ref config.max_trials in
  let budget_left () =
    (match trial_budget with
     | Some b -> !b > 0
     | None -> true)
    && Obs.Budget.check budget
  in
  (* Coarse-to-fine schedule: large chunks remove whole useless regions in
     one verification; the trailing single-vector passes polish until a
     fixpoint or the pass budget. *)
  let schedule =
    let coarse = [ 16; 4 ] in
    let fine =
      List.init (max 1 (config.max_passes - List.length coarse)) (fun _ -> 1)
    in
    coarse @ fine
  in
  let seq = ref seq in
  let continue_ = ref true in
  let trials = ref 0 and accepted = ref 0 in
  let per_pass = ref [] in
  let pass_idx = ref 0 in
  List.iter
    (fun chunk ->
      if !continue_ && budget_left () then begin
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
