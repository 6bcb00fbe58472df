(* Speculative domain-parallel compaction (DESIGN.md §10): omission and
   restoration must produce byte-identical sequences and jobs-invariant
   counters at any [compact_jobs] — including under a tripped budget and
   across a kill-and-resume checkpoint — with only the
   compaction.speculative.* dispatch counters reflecting the actual
   parallelism. *)

module C = Netlist.Circuit
module Model = Faultmodel.Model
module Vectors = Logicsim.Vectors
module Target = Compaction.Target
module Omission = Compaction.Omission
module Restoration = Compaction.Restoration
module Spec = Compaction.Spec
module Budget = Obs.Budget
module Checkpoint = Core.Checkpoint

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "scanatpg_spec_%d_%s" (Unix.getpid ()) name)

let s27_model () =
  Model.build (Scanins.Scan.insert (Circuits.Iscas.s27 ())).Scanins.Scan.circuit

let random_setup seed len =
  let m = s27_model () in
  let rng = Prng.Rng.create (Int64.of_int seed) in
  let seq =
    Vectors.random_seq rng ~width:(C.input_count m.Model.circuit) ~length:len
  in
  let ids = Array.init (Model.fault_count m) Fun.id in
  let targets = Target.compute m seq ~fault_ids:ids in
  m, seq, targets

let seq_to_string seq =
  String.concat "\n" (Array.to_list (Array.map Vectors.to_string seq))

let spec_invariant (s : Spec.counters) =
  s.Spec.dispatched = s.Spec.committed + s.Spec.discarded
  && s.Spec.revalidated <= s.Spec.committed

(* ------------------------------------------------------------- Spec.map *)

let test_spec_map_order () =
  let expected = Array.init 23 (fun k -> k * k) in
  Alcotest.(check (array int)) "jobs=1" expected (Spec.map ~jobs:1 23 (fun k -> k * k));
  Alcotest.(check (array int)) "jobs=3" expected (Spec.map ~jobs:3 23 (fun k -> k * k));
  Alcotest.(check (array int)) "jobs>n" expected (Spec.map ~jobs:64 23 (fun k -> k * k));
  Alcotest.(check (array int)) "empty" [||] (Spec.map ~jobs:3 0 (fun k -> k))

exception Poison of int

let test_spec_map_error () =
  (* A failing evaluation must surface on the calling domain after every
     worker was joined — at any jobs. *)
  List.iter
    (fun jobs ->
      match Spec.map ~jobs 8 (fun k -> if k = 5 then raise (Poison k) else k) with
      | _ -> Alcotest.failf "jobs=%d: poison swallowed" jobs
      | exception Poison 5 -> ())
    [ 1; 3 ]

(* ------------------------------------------------------------- omission *)

let run_omission ?budget ~jobs ?max_trials (m, seq, targets) =
  let cfg = { Omission.default_config with jobs; max_trials } in
  let spec = Spec.make () in
  let seq', targets', stats = Omission.run ?budget ~spec m seq targets cfg in
  seq', targets', stats, spec

let check_omission_invariant what ?budget_of ?max_trials setup =
  let budget () = Option.map (fun f -> f ()) budget_of in
  let s1, t1, st1, spec1 = run_omission ?budget:(budget ()) ~jobs:1 ?max_trials setup in
  let s3, t3, st3, spec3 = run_omission ?budget:(budget ()) ~jobs:3 ?max_trials setup in
  Alcotest.(check string) (what ^ ": sequence") (seq_to_string s1) (seq_to_string s3);
  Alcotest.(check (array int))
    (what ^ ": det times") t1.Target.det_times t3.Target.det_times;
  Alcotest.(check bool) (what ^ ": stats") true (st1 = st3);
  Alcotest.(check int) (what ^ ": no dispatch at jobs=1") 0 spec1.Spec.dispatched;
  Alcotest.(check bool) (what ^ ": spec invariant") true (spec_invariant spec3)

let test_omission_jobs_invariant () =
  check_omission_invariant "plain" (random_setup 11 180)

let test_omission_trial_budget_invariant () =
  check_omission_invariant "max_trials" ~max_trials:25 (random_setup 12 180)

let test_omission_tripped_budget_invariant () =
  (* A zero deadline trips at the first safe point on both sides; the
     degraded result must still be jobs-invariant. *)
  check_omission_invariant "tripped"
    ~budget_of:(fun () -> Budget.create ~deadline_s:0.0 ())
    (random_setup 13 180)

let test_omission_dispatches () =
  (* On a sequence long enough to form multi-trial rounds, jobs=3 must
     actually speculate. *)
  let _, _, _, spec = run_omission ~jobs:3 (random_setup 14 180) in
  Alcotest.(check bool) "dispatched > 0" true (spec.Spec.dispatched > 0)

let prop_omission_jobs_invariant =
  QCheck2.Test.make ~name:"omission byte-identical at compact_jobs 1 vs 3"
    ~count:6
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 60 160))
    (fun (seed, len) ->
      let setup = random_setup seed len in
      let s1, t1, st1, _ = run_omission ~jobs:1 setup in
      let s3, t3, st3, spec3 = run_omission ~jobs:3 setup in
      seq_to_string s1 = seq_to_string s3
      && t1.Target.det_times = t3.Target.det_times
      && st1 = st3
      && spec_invariant spec3)

(* ---------------------------------------------------------- restoration *)

let run_restoration ?budget ?adaptive ~jobs (m, seq, targets) =
  let stats = Restoration.make_stats () in
  let spec = Spec.make () in
  let restored =
    Restoration.run ~stats ?budget ~jobs ~spec ?adaptive m seq targets
  in
  restored, stats, spec

let check_restoration_invariant what ?budget_of setup =
  let budget () = Option.map (fun f -> f ()) budget_of in
  let s1, st1, spec1 = run_restoration ?budget:(budget ()) ~jobs:1 setup in
  let s3, st3, spec3 = run_restoration ?budget:(budget ()) ~jobs:3 setup in
  Alcotest.(check string) (what ^ ": sequence") (seq_to_string s1) (seq_to_string s3);
  (* Restoration's wave structure is fixed independently of jobs, so even
     the speculative counters are jobs-invariant. *)
  Alcotest.(check bool) (what ^ ": stats") true (st1 = st3);
  Alcotest.(check bool) (what ^ ": spec counters") true (spec1 = spec3);
  Alcotest.(check bool) (what ^ ": spec invariant") true (spec_invariant spec3)

let test_restoration_jobs_invariant () =
  check_restoration_invariant "plain" (random_setup 21 200)

let test_restoration_tripped_budget_invariant () =
  check_restoration_invariant "tripped"
    ~budget_of:(fun () -> Budget.create ~deadline_s:0.0 ())
    (random_setup 22 200)

let prop_restoration_jobs_invariant =
  QCheck2.Test.make ~name:"restoration byte-identical at compact_jobs 1 vs 3"
    ~count:6
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 60 160))
    (fun (seed, len) ->
      let setup = random_setup seed len in
      let s1, st1, spec1 = run_restoration ~jobs:1 setup in
      let s3, st3, spec3 = run_restoration ~jobs:3 setup in
      seq_to_string s1 = seq_to_string s3 && st1 = st3 && spec1 = spec3)

(* ------------------------------------------------------- adaptive width *)

let run_omission_adaptive ~jobs (m, seq, targets) =
  let cfg = { Omission.default_config with jobs } in
  let spec = Spec.make () in
  let ad = Spec.make_adaptive () in
  let seq', targets', stats = Omission.run ~spec ~adaptive:ad m seq targets cfg in
  seq', targets', stats, spec, ad

let test_adaptive_byte_identity () =
  (* The width trajectory differs at every compact_jobs; the sequence,
     detection times and jobs-invariant stats may not. *)
  let setup = random_setup 31 180 in
  let s_ref, t_ref, st_ref, _, _ = run_omission_adaptive ~jobs:1 setup in
  List.iter
    (fun jobs ->
      let s, t, st, _, _ = run_omission_adaptive ~jobs setup in
      let what = Printf.sprintf "jobs=%d" jobs in
      Alcotest.(check string)
        (what ^ ": sequence") (seq_to_string s_ref) (seq_to_string s);
      Alcotest.(check (array int))
        (what ^ ": det times") t_ref.Target.det_times t.Target.det_times;
      Alcotest.(check bool) (what ^ ": stats") true (st_ref = st))
    [ 1; 2; 4 ]

let test_adaptive_shrinks_and_rewidens () =
  (* Scan seeds until the controller demonstrably shrank on an early
     acceptance (at jobs=2 an acceptance at slot 0 forces width 1) and
     re-widened after a rejection streak, with width reductions actually
     saving dispatches.  Every scanned seed must stay byte-identical to
     the sequential run — the trajectory is telemetry, never semantics. *)
  let shrunk = ref false and widened = ref false and saved = ref false in
  let reused = ref false in
  let seed = ref 100 in
  while (not (!shrunk && !widened && !saved && !reused)) && !seed < 140 do
    let setup = random_setup !seed 180 in
    let s1, _, st1, _, _ = run_omission_adaptive ~jobs:1 setup in
    List.iter
      (fun jobs ->
        let sk, _, stk, _, ad = run_omission_adaptive ~jobs setup in
        Alcotest.(check string)
          (Printf.sprintf "seed %d jobs %d: sequence" !seed jobs)
          (seq_to_string s1) (seq_to_string sk);
        Alcotest.(check bool)
          (Printf.sprintf "seed %d jobs %d: stats" !seed jobs)
          true (st1 = stk);
        if ad.Spec.shrinks > 0 then shrunk := true;
        if ad.Spec.widens > 0 then widened := true;
        if ad.Spec.trials_saved > 0 then saved := true;
        if ad.Spec.arena_reuses > 0 then reused := true)
      [ 2; 4 ];
    incr seed
  done;
  Alcotest.(check bool) "controller shrank at least once" true !shrunk;
  Alcotest.(check bool) "controller re-widened at least once" true !widened;
  Alcotest.(check bool) "reduced widths saved dispatches" true !saved;
  Alcotest.(check bool) "snapshot arena reused" true !reused

let test_restoration_replay_skip () =
  (* The keep-generation guard: a wave member whose keep mask did not
     move since its trial was frozen commits without replaying the
     assumed-rejected prefix — and the result is still byte-identical. *)
  let setup = random_setup 21 200 in
  let s1, st1, _ = run_restoration ~jobs:1 setup in
  let ad = Spec.make_adaptive () in
  let s3, st3, _ = run_restoration ~jobs:3 ~adaptive:ad setup in
  Alcotest.(check string) "sequence" (seq_to_string s1) (seq_to_string s3);
  Alcotest.(check bool) "stats" true (st1 = st3);
  Alcotest.(check bool) "replays skipped" true (ad.Spec.replay_skipped > 0)

(* ---------------------------------------------- pipeline, kill-and-resume *)

let pipeline_config ~compact_jobs name =
  let c = Circuits.Catalog.circuit name in
  Core.Config.with_compact_jobs compact_jobs (Core.Config.for_circuit c)

let counters_alist_no_spec m =
  (* Both jobs-dependent families out: speculative dispatch accounting and
     the adaptive-width schedule telemetry. *)
  List.filter
    (fun (k, _) ->
      not
        (String.starts_with ~prefix:"compaction.speculative." k
        || String.starts_with ~prefix:"compaction.adaptive." k))
    (List.sort compare (Obs.Counters.to_alist (Obs.Metrics.counters m)))

let check_result_equal what (a : Core.Pipeline.result) (b : Core.Pipeline.result) =
  Alcotest.(check bool) (what ^ ": row5") true (a.row5 = b.row5);
  Alcotest.(check bool) (what ^ ": row6") true (a.row6 = b.row6);
  Alcotest.(check bool) (what ^ ": row7") true (a.row7 = b.row7);
  Alcotest.(check (list (pair string int)))
    (what ^ ": counters sans speculative")
    (counters_alist_no_spec a.metrics)
    (counters_alist_no_spec b.metrics)

(* Kill right after generate, resume with compact_jobs=3: the speculative
   compaction of the resumed run must reproduce the uninterrupted
   sequential run bit for bit (rows, lengths, every jobs-invariant
   counter). *)
let test_pipeline_resume_speculative () =
  let reference =
    Core.Pipeline.run ~config:(pipeline_config ~compact_jobs:1 "s27") "s27"
  in
  List.iter
    (fun compact_jobs ->
      let path = tmp (Printf.sprintf "ck_spec_%d" compact_jobs) in
      if Sys.file_exists path then Sys.remove path;
      (match
         Core.Pipeline.run
           ~config:(pipeline_config ~compact_jobs "s27")
           ~checkpoint:path ~halt_after:"generate" "s27"
       with
       | _ -> Alcotest.fail "halt_after generate did not halt"
       | exception Core.Pipeline.Halted p ->
         Alcotest.(check string) "halted at generate" "generate" p);
      let resumed =
        Core.Pipeline.run
          ~config:(pipeline_config ~compact_jobs "s27")
          ~checkpoint:path ~resume:(Checkpoint.load path) "s27"
      in
      check_result_equal
        (Printf.sprintf "resume compact_jobs=%d" compact_jobs)
        reference resumed;
      Sys.remove path)
    [ 1; 3 ]

let test_pipeline_speculative_counters_recorded () =
  (* The pipeline folds the dispatch counters into the metrics document. *)
  let r = Core.Pipeline.run ~config:(pipeline_config ~compact_jobs:3 "s27") "s27" in
  let c = Obs.Metrics.counters r.Core.Pipeline.metrics in
  let dispatched = Obs.Counters.get c "compaction.speculative.dispatched" in
  let committed = Obs.Counters.get c "compaction.speculative.committed" in
  let discarded = Obs.Counters.get c "compaction.speculative.discarded" in
  Alcotest.(check bool) "dispatched > 0" true (dispatched > 0);
  Alcotest.(check int) "dispatch accounted" dispatched (committed + discarded);
  (* The adaptive-width family rides along in the same document. *)
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " present") true
        (List.mem_assoc k (Obs.Counters.to_alist c)))
    [ "compaction.adaptive.shrinks"; "compaction.adaptive.widens";
      "compaction.adaptive.trials_saved"; "compaction.adaptive.arena_reuses";
      "compaction.adaptive.replay_skipped" ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "speculative"
    [
      ( "spec-map",
        [
          Alcotest.test_case "deterministic order" `Quick test_spec_map_order;
          Alcotest.test_case "error propagation" `Quick test_spec_map_error;
        ] );
      ( "omission",
        [
          Alcotest.test_case "jobs invariant" `Quick test_omission_jobs_invariant;
          Alcotest.test_case "trial budget invariant" `Quick
            test_omission_trial_budget_invariant;
          Alcotest.test_case "tripped budget invariant" `Quick
            test_omission_tripped_budget_invariant;
          Alcotest.test_case "actually dispatches" `Quick test_omission_dispatches;
        ] );
      ( "restoration",
        [
          Alcotest.test_case "jobs invariant" `Quick test_restoration_jobs_invariant;
          Alcotest.test_case "tripped budget invariant" `Quick
            test_restoration_tripped_budget_invariant;
          Alcotest.test_case "replay skip on unchanged keep mask" `Quick
            test_restoration_replay_skip;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "byte identity across trajectories" `Quick
            test_adaptive_byte_identity;
          Alcotest.test_case "shrinks and re-widens" `Quick
            test_adaptive_shrinks_and_rewidens;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "kill-and-resume with speculation" `Quick
            test_pipeline_resume_speculative;
          Alcotest.test_case "dispatch counters recorded" `Quick
            test_pipeline_speculative_counters_recorded;
        ] );
      ( "properties",
        [ q prop_omission_jobs_invariant; q prop_restoration_jobs_invariant ] );
    ]
