module Model = Faultmodel.Model
module Faultsim = Logicsim.Faultsim
module View = Logicsim.Vectors.View

(* Zero-copy view of [seq]'s vectors selected by [keep], optionally limited
   to positions <= [limit] — every probe used to materialize this
   selection. *)
let subsequence ?limit seq keep = View.masked ?limit seq keep

(* Faults are processed in batches of one simulator word, in order of
   decreasing detection time.  A batch is first simulated together over the
   current restored subsequence (one group — this replaces per-fault
   checks); members still undetected then run their backward restore
   searches in waves of [wave_width]: every wave member's search is
   evaluated as a pure function of a frozen copy of the selection, the
   evaluations run concurrently across [jobs] domains, and the results are
   committed in wave order.  The first member's frozen context is exact;
   a later member's restore set is revalidated with one single-fault
   simulation over the live selection plus that set (detection is not
   monotone under added vectors, so this check is required), falling back
   to a fresh sequential search when it fails.  The wave structure — and
   with it the final selection and every counter — is fixed independently
   of [jobs]; [jobs] only decides how many evaluations run concurrently.

   Within a search, vectors are restored backwards from the fault's
   original detection time a small chunk at a time, until a single-fault
   simulation over the restored prefix detects the fault.  Restoring the
   entire prefix up to the detection time reproduces the original
   simulation, which guarantees termination. *)
let batch_width = 62
let restore_chunk = 4
let wave_width = 4

type stats = {
  mutable restored : int;
  mutable probes : int;
  mutable batch_sims : int;
}

let make_stats () = { restored = 0; probes = 0; batch_sims = 0 }

let run_scoped ?stats ?(budget = Obs.Budget.unlimited) ~jobs ?spec model seq
    (targets : Target.t) =
  let spec = Option.value spec ~default:(Spec.make ()) in
  let stats = Option.value stats ~default:(make_stats ()) in
  let len = Array.length seq in
  let n = Target.count targets in
  let keep = Array.make len false in
  let order = Array.init n Fun.id in
  Array.sort
    (fun a b ->
      compare
        (targets.Target.det_times.(b), targets.Target.fault_ids.(b))
        (targets.Target.det_times.(a), targets.Target.fault_ids.(a)))
    order;
  let detected = Array.make n false in
  let simulate_members ks =
    (* One parallel run of the still-undetected members over the current
       subsequence; marks detections.  Skipped once the budget trips:
       unmarked faults fall through to the cheap full-prefix restore. *)
    let pending = List.filter (fun k -> not detected.(k)) ks in
    if pending <> [] && Obs.Budget.check budget then begin
      let ids =
        Array.of_list (List.map (fun k -> targets.Target.fault_ids.(k)) pending)
      in
      stats.batch_sims <- stats.batch_sims + 1;
      let times =
        Faultsim.detection_times_view ~jobs model ~fault_ids:ids
          (subsequence seq keep)
      in
      List.iteri
        (fun i k -> if times.(i) >= 0 then detected.(k) <- true)
        pending
    end
  in
  (* Evaluate member [k]'s restore search against a frozen copy of the
     selection.  Pure up to its private copy: returns the fresh positions
     it would restore (and its probe count) without touching shared
     state — safe to run concurrently for a whole wave. *)
  let restore_set keep0 k =
    let fid = targets.Target.fault_ids.(k) in
    let dt = targets.Target.det_times.(k) in
    let keep = Array.copy keep0 in
    let fresh = ref [] in
    let probes = ref 0 in
    let q = ref dt in
    let finished = ref false in
    while not !finished do
      (* Degraded mode: once the budget trips, stop probing and restore the
         whole remaining prefix [0..q] in one step.  That reproduces the
         original simulation up to [dt], so the fault is still detected —
         the result stays sound, merely less compact. *)
      if Obs.Budget.expired budget then begin
        while !q >= 0 do
          if not keep.(!q) then begin
            keep.(!q) <- true;
            fresh := !q :: !fresh
          end;
          decr q
        done
      end;
      (* Restore up to [restore_chunk] fresh vectors walking backwards. *)
      let added = ref 0 in
      while !added < restore_chunk && !q >= 0 do
        if not keep.(!q) then begin
          keep.(!q) <- true;
          fresh := !q :: !fresh;
          incr added
        end;
        decr q
      done;
      if !added = 0 then
        (* The whole prefix [0..dt] is restored: the original simulation is
           reproduced, so the fault is detected. *)
        finished := true
      else begin
        incr probes;
        match
          Faultsim.detects_single_view model ~fault:fid
            (subsequence ~limit:dt seq keep)
        with
        | Some _ -> finished := true
        | None -> ()
      end
    done;
    (List.rev !fresh, !probes)
  in
  let apply fresh =
    List.iter
      (fun p ->
        if not keep.(p) then begin
          keep.(p) <- true;
          stats.restored <- stats.restored + 1
        end)
      fresh
  in
  (* Does the live selection plus [fresh] still detect member [k]?  One
     single-fault simulation — the cheap revalidation of a later wave
     member's speculative result, whose frozen context may have gone
     stale. *)
  let revalidate fresh k =
    let fid = targets.Target.fault_ids.(k) in
    let dt = targets.Target.det_times.(k) in
    let trial = Array.copy keep in
    List.iter (fun p -> trial.(p) <- true) fresh;
    stats.probes <- stats.probes + 1;
    Faultsim.detects_single_view model ~fault:fid
      (subsequence ~limit:dt seq trial)
    <> None
  in
  let idx = ref 0 in
  while !idx < n do
    (* Collect the next batch of still-unprocessed faults. *)
    let batch = ref [] in
    while !idx < n && List.length !batch < batch_width do
      let k = order.(!idx) in
      if not detected.(k) then batch := k :: !batch;
      incr idx
    done;
    let batch = List.rev !batch in
    simulate_members batch;
    let pending () = List.filter (fun k -> not detected.(k)) batch in
    let rec waves () =
      match pending () with
      | [] -> ()
      | ks ->
        let wave = Array.of_list (List.filteri (fun i _ -> i < wave_width) ks) in
        let w = Array.length wave in
        let keep0 = Array.copy keep in
        let results = Spec.map ~jobs w (fun j -> restore_set keep0 wave.(j)) in
        if w > 1 then spec.Spec.dispatched <- spec.Spec.dispatched + (w - 1);
        Array.iteri
          (fun m k ->
            let fresh, probes = results.(m) in
            stats.probes <- stats.probes + probes;
            if m = 0 then begin
              (* The first member's frozen selection was the live one. *)
              apply fresh;
              detected.(k) <- true;
              (* Fresh vectors typically detect other batch members too. *)
              simulate_members batch
            end
            else if detected.(k) then
              (* A previous commit's vectors already detect it; its
                 speculative search went unused. *)
              spec.Spec.discarded <- spec.Spec.discarded + 1
            else if Obs.Budget.expired budget then begin
              (* Degraded: [fresh] is the whole prefix [0..dt], which is
                 sound against any selection — commit without probing. *)
              spec.Spec.committed <- spec.Spec.committed + 1;
              apply fresh;
              detected.(k) <- true
            end
            else if revalidate fresh k then begin
              spec.Spec.committed <- spec.Spec.committed + 1;
              spec.Spec.revalidated <- spec.Spec.revalidated + 1;
              apply fresh;
              detected.(k) <- true;
              simulate_members batch
            end
            else begin
              (* Stale beyond repair: discard and search again against the
                 live selection. *)
              spec.Spec.discarded <- spec.Spec.discarded + 1;
              let fresh, probes = restore_set keep k in
              stats.probes <- stats.probes + probes;
              apply fresh;
              detected.(k) <- true;
              simulate_members batch
            end)
          wave;
        waves ()
    in
    waves ()
  done;
  View.to_seq (subsequence seq keep)

(* One worker scope for the whole run: the wave domains, and their
   simulator scratch, survive from one wave to the next. *)
let run ?stats ?budget ?(jobs = 1) ?spec ?adaptive:_ model seq targets =
  Logicsim.Workers.scoped ~jobs (fun () ->
      run_scoped ?stats ?budget ~jobs ?spec model seq targets)
