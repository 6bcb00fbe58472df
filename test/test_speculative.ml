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
  let spec = Spec.make () in
  let seq', targets', stats =
    Omission.run ?budget ~spec m seq targets { Omission.jobs; max_trials }
  in
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

(* -------------------------------------------------------------- Workers *)

module Workers = Logicsim.Workers

exception Share_failed of int

(* The line of the [raise] below: a re-raised share error must still point
   there, not at the re-raise. *)
let boom_line = __LINE__ + 2
let boom k =
  raise (Share_failed k)

let domain_id () = (Domain.self () :> int)

let distinct ids = List.length (List.sort_uniq compare ids)

let test_workers_error_order () =
  Printexc.record_backtrace true;
  let first_error ~jobs failing =
    match
      Workers.run ~jobs (fun w -> if List.mem w failing then boom w)
    with
    | () -> Alcotest.fail "share error swallowed"
    | exception Share_failed k ->
      let bt = Printexc.get_raw_backtrace () in
      (match Printexc.backtrace_slots bt with
       | Some slots when Array.length slots > 0 ->
         (match Printexc.Slot.location slots.(0) with
          | Some loc ->
            Alcotest.(check int) "raised at the share's raise" boom_line
              loc.Printexc.line_number
          | None -> Alcotest.fail "backtrace slot without location")
       | _ -> Alcotest.fail "backtrace lost");
      k
  in
  Workers.scoped ~jobs:3 (fun () ->
      Alcotest.(check int) "caller's share first" 0 (first_error ~jobs:3 [ 2; 0; 1 ]);
      Alcotest.(check int) "then worker order" 1 (first_error ~jobs:3 [ 2; 1 ]);
      Alcotest.(check int) "last worker" 2 (first_error ~jobs:3 [ 2 ]));
  Alcotest.(check int) "without a scope" 1 (first_error ~jobs:3 [ 2; 1 ])

let test_workers_usable_after_error () =
  (* Every share runs even when another raises, and the same workers take
     the next round. *)
  Workers.scoped ~jobs:2 (fun () ->
      let ran = Array.make 4 false in
      (match
         Workers.run ~jobs:4 (fun w ->
             ran.(w) <- true;
             if w = 1 then boom w)
       with
       | () -> Alcotest.fail "share error swallowed"
       | exception Share_failed 1 -> ());
      Alcotest.(check (array bool)) "every share ran" [| true; true; true; true |] ran;
      let ids = ref [] in
      let mu = Mutex.create () in
      for _ = 1 to 20 do
        let squares = Spec.map ~jobs:2 10 (fun k ->
            Mutex.protect mu (fun () -> ids := domain_id () :: !ids);
            k * k)
        in
        Alcotest.(check (array int)) "next round" (Array.init 10 (fun k -> k * k)) squares
      done;
      Alcotest.(check int) "same domains"
        (min 2 (Domain.recommended_domain_count ())) (distinct !ids))

let test_workers_nested () =
  (* A run from inside a share (on the caller and on a worker) opens a
     temporary scope instead of posting to its own busy one. *)
  let expected = Array.init 9 Fun.id in
  let nested () =
    let got = Array.make 9 (-1) in
    Workers.run ~jobs:3 (fun w ->
        Workers.run ~jobs:3 (fun v -> got.((3 * w) + v) <- (3 * w) + v));
    got
  in
  Alcotest.(check (array int)) "in a scope" expected (Workers.scoped ~jobs:3 nested);
  Alcotest.(check (array int)) "without one" expected (nested ());
  Alcotest.(check (array int)) "nested scoped" expected
    (Workers.scoped ~jobs:2 (fun () ->
         let got = Array.make 9 (-1) in
         Workers.run ~jobs:2 (fun w ->
             if w = 0 then
               Workers.scoped ~jobs:3 (fun () ->
                   Workers.run ~jobs:3 (fun v -> got.(v) <- v))
             else
               for v = 3 to 8 do got.(v) <- v done);
         got))

let test_workers_concurrent_scopes () =
  (* Two domains, each holding its own scope at the same time, compact
     exactly like a sequential run. *)
  let setup = random_setup 21 160 in
  let s1, t1, st1, _ = run_omission ~jobs:1 setup in
  let run_in_scope () =
    Workers.scoped ~jobs:2 (fun () ->
        let s, t, st, _ = run_omission ~jobs:2 setup in
        seq_to_string s, t.Target.det_times, st)
  in
  let a = Domain.spawn run_in_scope and b = Domain.spawn run_in_scope in
  List.iter
    (fun (s, det, st) ->
      Alcotest.(check string) "sequence" (seq_to_string s1) s;
      Alcotest.(check (array int)) "det times" t1.Target.det_times det;
      Alcotest.(check bool) "stats" true (st = st1))
    [ Domain.join a; Domain.join b ]

let test_workers_reuse () =
  (* 200 rounds inside one scope run on the same two domains instead of
     spawning a fresh one per round. *)
  let ids = ref [] in
  let mu = Mutex.create () in
  Workers.scoped ~jobs:2 (fun () ->
      for _ = 1 to 200 do
        ignore
          (Spec.map ~jobs:2 2 (fun k ->
               Mutex.protect mu (fun () -> ids := domain_id () :: !ids);
               k))
      done);
  Alcotest.(check int) "distinct domains"
    (min 2 (Domain.recommended_domain_count ())) (distinct !ids)

let test_workers_cap () =
  (* Width 16 runs on at most the recommended domain count, in a scope or
     not, with the results of width 1. *)
  let cap = Domain.recommended_domain_count () in
  let check what run =
    let ids = ref [] in
    let mu = Mutex.create () in
    let got =
      run (fun k ->
          Mutex.protect mu (fun () -> ids := domain_id () :: !ids);
          k * 7)
    in
    Alcotest.(check (array int)) (what ^ ": results") (Array.init 40 (fun k -> k * 7)) got;
    Alcotest.(check bool) (what ^ ": capped") true (distinct !ids <= cap)
  in
  check "no scope" (fun f -> Spec.map ~jobs:16 40 f);
  check "scope" (fun f -> Workers.scoped ~jobs:16 (fun () -> Spec.map ~jobs:16 40 f));
  check "shares" (fun f ->
      let got = Array.make 40 0 in
      Workers.scoped ~jobs:16 (fun () ->
          Workers.run ~jobs:16 (fun w ->
              let k = ref w in
              while !k < 40 do
                got.(!k) <- f !k;
                k := !k + 16
              done));
      got);
  let setup = random_setup 22 160 in
  let s1, t1, st1, _ = run_omission ~jobs:1 setup in
  let s16, t16, st16, _ =
    Workers.scoped ~jobs:16 (fun () -> run_omission ~jobs:16 setup)
  in
  Alcotest.(check string) "omission sequence" (seq_to_string s1) (seq_to_string s16);
  Alcotest.(check (array int)) "omission det times" t1.Target.det_times t16.Target.det_times;
  Alcotest.(check bool) "omission stats" true (st1 = st16)

(* ---------------------------------------------------------- restoration *)

let run_restoration ?budget ~jobs (m, seq, targets) =
  let stats = Restoration.make_stats () in
  let spec = Spec.make () in
  let restored = Restoration.run ~stats ?budget ~jobs ~spec m seq targets in
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

(* ---------------------------------------------------------- fixed width *)

let run_omission_arena ~jobs (m, seq, targets) =
  let cfg = { Omission.default_config with jobs } in
  let ad = Spec.make_adaptive () in
  let seq', targets', stats = Omission.run ~adaptive:ad m seq targets cfg in
  seq', targets', stats, ad

let test_width_byte_identity () =
  (* The dispatch width is [jobs]; the sequence, detection times and
     jobs-invariant stats may not depend on it. *)
  let setup = random_setup 31 180 in
  let s_ref, t_ref, st_ref, _ = run_omission_arena ~jobs:1 setup in
  List.iter
    (fun jobs ->
      let s, t, st, _ = run_omission_arena ~jobs setup in
      let what = Printf.sprintf "jobs=%d" jobs in
      Alcotest.(check string)
        (what ^ ": sequence") (seq_to_string s_ref) (seq_to_string s);
      Alcotest.(check (array int))
        (what ^ ": det times") t_ref.Target.det_times t.Target.det_times;
      Alcotest.(check bool) (what ^ ": stats") true (st_ref = st))
    [ 1; 2; 4 ]

let test_arena_reuse () =
  (* Every round's snapshot recycles the previous round's buffers: the
     arena must serve captures at every width without changing the
     result. *)
  let setup = random_setup 100 180 in
  let s_ref, _, _, _ = run_omission_arena ~jobs:1 setup in
  List.iter
    (fun jobs ->
      let s, _, _, ad = run_omission_arena ~jobs setup in
      let what = Printf.sprintf "jobs=%d" jobs in
      Alcotest.(check string)
        (what ^ ": sequence") (seq_to_string s_ref) (seq_to_string s);
      Alcotest.(check bool)
        (what ^ ": arena reused") true (ad.Spec.arena_reuses > 0))
    [ 1; 2; 4 ]

(* ---------------------------------------------- pipeline, kill-and-resume *)

let pipeline_config ~compact_jobs name =
  let c = Circuits.Catalog.circuit name in
  Core.Config.with_compact_jobs compact_jobs (Core.Config.for_circuit c)

let counters_alist_no_spec m =
  List.filter
    (fun (k, _) -> not (Compaction.Spec.jobs_dependent k))
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
  (* The arena counter rides along in the same document. *)
  Alcotest.(check bool) "arena_reuses present" true
    (List.mem_assoc "compaction.adaptive.arena_reuses"
       (Obs.Counters.to_alist c))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "speculative"
    [
      ( "spec-map",
        [
          Alcotest.test_case "deterministic order" `Quick test_spec_map_order;
          Alcotest.test_case "error propagation" `Quick test_spec_map_error;
        ] );
      ( "workers",
        [
          Alcotest.test_case "error order and backtrace" `Quick
            test_workers_error_order;
          Alcotest.test_case "usable after a share raises" `Quick
            test_workers_usable_after_error;
          Alcotest.test_case "nested run" `Quick test_workers_nested;
          Alcotest.test_case "concurrent scopes" `Quick
            test_workers_concurrent_scopes;
          Alcotest.test_case "200 rounds on two domains" `Quick
            test_workers_reuse;
          Alcotest.test_case "width capped at 16" `Quick test_workers_cap;
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
        ] );
      ( "fixed-width",
        [
          Alcotest.test_case "byte identity at jobs 1, 2, 4" `Quick
            test_width_byte_identity;
          Alcotest.test_case "arena reuse at jobs 1, 2, 4" `Quick
            test_arena_reuse;
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
