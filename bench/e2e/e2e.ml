(* End-to-end benchmark of the scanatpg service (schema scanatpg-bench/7).

     e2e.exe --workload NAME --seed N --seconds S --trace 0|1
     e2e.exe --smoke

   An untraced run launches the production binary as a server tree,
   drives the workload's requests at it and reports the end-to-end
   metrics; a traced run ([--trace 1]) sends the workload's replay subset
   to a daemon, replays the same requests in-process under spans and
   reports the per-layer metrics.  Both check the outputs and print one
   JSON result object as the last line of stdout.  See README.md. *)

module Json = Obs.Json

let say fmt = Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s)) fmt

(* ------------------------------------------------------------ metrics *)

type metric = {
  name : string;
  unit_ : string;
  value : Json.t;
  n : int;  (* samples behind the value *)
}

let real ?(n = 1) name unit_ v = { name; unit_; value = Json.Float v; n }
let count ?(n = 1) name unit_ v = { name; unit_; value = Json.Int v; n }
let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The run's verdict: every check that failed, in order. *)
let problems : string list ref = ref []
let check ok fmt = Printf.ksprintf (fun m -> if not ok then problems := m :: !problems) fmt

(* ------------------------------------------------------- responses *)

let parse payload = try Some (Json.parse payload) with Json.Parse_error _ -> None
let int_field j k = Option.bind (Json.member k j) Json.get_int
let str_field j k = Option.bind (Json.member k j) Json.get_str

let status payload =
  match parse payload with
  | Some j -> Option.value ~default:"error" (str_field j "status")
  | None -> if payload = "" then "lost" else "error"

(* Test length and detections of a generate or compact response. *)
let outcome payload =
  match parse payload with
  | None -> None
  | Some j -> (
    let first ks = List.find_map (int_field j) ks in
    match first [ "vectors"; "vectors_out" ], first [ "detected"; "detects" ] with
    | Some v, Some d -> Some { Replay.vectors = v; detected = d }
    | _ -> None)

let all_ok what (run : Load.run) =
  let bad =
    Array.fold_left
      (fun acc s -> if status s.Load.payload = "ok" then acc else acc + 1)
      0 run.Load.samples
  in
  check (bad = 0) "%s: %d of %d responses not ok" what bad (Array.length run.Load.samples);
  bad

let latencies_ms (run : Load.run) =
  List.filter_map
    (fun s -> if s.Load.recv_ns = 0 then None else Some (Load.latency_ms s))
    (Array.to_list run.Load.samples)

(* Access-log lines of the timed or replayed requests (ids >= 1). *)
type log_line = {
  id : int;
  cache : string;
  queue_wait_ns : int;
  service_ns : int;
  bytes_out : int;
}

let read_access_log path =
  match Procs.read_file path with
  | None -> []
  | Some text ->
    List.filter_map
      (fun line ->
        match parse line with
        | Some j -> (
          match int_field j "id" with
          | Some id when id >= 1 ->
            let i k = Option.value ~default:0 (int_field j k) in
            Some
              { id; cache = Option.value ~default:"-" (str_field j "cache");
                queue_wait_ns = i "queue_wait_ns"; service_ns = i "service_ns";
                bytes_out = i "bytes_out" }
          | _ -> None)
        | None -> None)
      (String.split_on_char '\n' text)

(* ------------------------------------------------------ server trees *)

let start ~exe ~name server =
  let socket = Procs.in_run_dir (name ^ ".sock") in
  let log = Procs.in_run_dir (name ^ ".log") in
  (try Sys.remove log with Sys_error _ -> ());
  let tree = Procs.spawn (Workloads.argv server ~exe ~socket ~access_log:log) ~socket in
  Load.await_ping ~timeout_s:30.0 socket;
  tree, socket, log

(* Compile warm-up plus the result-cache pool. *)
let warm ~socket circuits pool =
  let reqs = Array.of_list (List.map Workloads.warm_up circuits @ pool) in
  ignore (all_ok "warm-up" (Load.closed_loop ~socket ~conns:2 reqs))

let drive ~socket (w : Workloads.t) requests =
  match w.Workloads.shape with
  | Workloads.Closed conns -> Load.closed_loop ~socket ~conns requests
  | Workloads.Open rate -> Load.open_loop ~socket ~rate requests

(* ---------------------------------------------------- untraced run *)

(* Set-up is timed several times and reported as the median: from
   launching the server tree to the first answered ping, plus the
   warm-up.  The last tree stays up for the timed phase. *)
let setups = 3

let e2e ~exe ~smoke (w : Workloads.t) =
  let rec set_up k acc =
    let t0 = Obs.Clock.now_ns () in
    let tree, socket, log = start ~exe ~name:"server" w.Workloads.server in
    warm ~socket w.Workloads.circuits w.Workloads.pool;
    let acc = Obs.Clock.to_s (Obs.Clock.elapsed_ns t0) :: acc in
    if k < setups then begin
      Procs.stop tree;
      set_up (k + 1) acc
    end
    else tree, socket, log, acc
  in
  let tree, socket, log, setup_s = set_up 1 [] in
  let cpu0 = Procs.cpu_s (Procs.tree_pids tree.Procs.pid) in
  let run = drive ~socket w w.Workloads.requests in
  let pids = Procs.tree_pids tree.Procs.pid in
  let cpu_s = Procs.cpu_s pids -. cpu0 and rss_mb = Procs.peak_rss_mb pids in
  Procs.stop tree;
  let n = Array.length w.Workloads.requests in
  let failed = all_ok w.Workloads.name run in
  (match w.Workloads.server with
  | Workloads.Serve _ ->
    let lines = read_access_log log in
    let hits = List.length (List.filter (fun l -> l.cache = "hit") lines) in
    check (hits = n) "compile cache hit %d of %d timed requests" hits n
  | Workloads.Router _ -> ());
  (* Byte identity: a repeated request gets the same payload, computed
     or served from the result cache. *)
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun i s ->
      match Fleet.Result_cache.split_id w.Workloads.requests.(i),
            Fleet.Result_cache.split_id s.Load.payload with
      | Some (_, req), Some (_, resp) -> (
        match Hashtbl.find_opt seen req with
        | Some prev -> check (prev = resp) "request %d: repeat differs from first answer" (i + 1)
        | None -> Hashtbl.add seen req resp)
      | _ -> ())
    run.Load.samples;
  let outcomes = Array.map (fun s -> outcome s.Load.payload) run.Load.samples in
  let sum f = Array.fold_left (fun acc o -> acc + Option.fold ~none:0 ~some:f o) 0 outcomes in
  let lat = latencies_ms run in
  let nl = List.length lat in
  check (smoke || nl >= Stats.min_tail_samples)
    "%d latency samples, fewer than the %d the tail percentile needs" nl
    Stats.min_tail_samples;
  let or0 f l = if l = [] then 0.0 else f l in
  let metrics =
    [ real ~n:setups "setup_s" "s" (Stats.median setup_s);
      real ~n:nl "lat_p50_ms" "ms" (or0 Stats.median lat);
      real ~n:nl "lat_tail_ms" "ms" (or0 Stats.tail lat);
      real ~n "throughput_rps" "req/s" (float_of_int nl /. run.Load.wall_s);
      real "server_cpu_s" "s" cpu_s;
      real ~n:(List.length pids) "peak_rss_mb" "MiB" rss_mb;
      count ~n "test_vectors" "vectors" (sum (fun o -> o.Replay.vectors));
      count ~n "detected_faults" "faults" (sum (fun o -> o.Replay.detected)) ]
  in
  (* Over the payloads without their ids, sorted: the request set is the
     same for every seed, so the digest is too. *)
  let digest =
    Stats.fnv1a64
      (List.sort compare
         (Array.to_list
            (Array.map
               (fun s ->
                 match Fleet.Result_cache.split_id s.Load.payload with
                 | Some (_, rest) -> rest
                 | None -> s.Load.payload)
               run.Load.samples)))
  in
  let q = if nl > 0 then Stats.tail_q nl else 0.0 in
  say "%s: %d requests in %.2fs, tail q=%.4f over n=%d, digest %s" w.Workloads.name n
    run.Load.wall_s q nl digest;
  metrics, n, failed, [ "digest", Json.Str digest; "tail_q", Json.Float q ]

(* ------------------------------------------------------- traced run *)

(* Probe traffic carries id 0, so the daemon's access log lines with
   ids >= 1 are exactly the replayed requests. *)
let cheap_compacts k =
  let width = Workloads.scan_width "s27" in
  (* seeds from 1: the seed-0 warm-up would answer the first from the
     result cache *)
  Array.init k (fun i ->
      Workloads.with_id 0
        (Workloads.compact ~circuit:"s27" ~seed:(i + 1) ~compact_jobs:1 [ String.make width '0' ]))

let result_cache_counts socket =
  let c = Load.connect socket in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () ->
      match parse (Server.Client.call c {|{"id":0,"op":"stats"}|}) with
      | Some j -> (
        match Json.member "result_cache" j with
        | Some rc -> Option.value ~default:0 (int_field rc "hits"),
                     Option.value ~default:0 (int_field rc "misses")
        | None -> 0, 0)
      | None -> 0, 0)

let median_or0 l = if l = [] then 0.0 else Stats.median l

let traced ~exe ~smoke ~seed (w : Workloads.t) =
  let replay = w.Workloads.replay in
  let n = Array.length replay in
  let jobs = match w.Workloads.server with Workloads.Serve j -> j | Workloads.Router _ -> 1 in
  (* The daemon the workload talks to (a shard's configuration for
     fleet-repeat), and a router for the fleet probe. *)
  let dtree, dsock, dlog = start ~exe ~name:"daemon" (Workloads.Serve jobs) in
  let fleet = Workloads.fleet_repeat ~smoke ~seed ~seconds:2.0 in
  let rtree, rsock, _ = start ~exe ~name:"router" fleet.Workloads.server in
  let pings =
    Load.closed_loop ~socket:dsock ~conns:1
      (Array.make (if smoke then 20 else 200) {|{"id":0,"op":"ping"}|})
  in
  warm ~socket:dsock ("s27" :: w.Workloads.circuits) [];
  warm ~socket:rsock fleet.Workloads.circuits [];
  (* One connection, so each service time compares with the same
     request's sequential in-process replay (server.daemon.slowdown). *)
  let dpass = Load.closed_loop ~socket:dsock ~conns:1 replay in
  let failed = all_ok "daemon pass" dpass in
  let cheap = cheap_compacts (if smoke then 10 else 40) in
  let direct = Load.closed_loop ~socket:dsock ~conns:1 cheap in
  let routed = Load.closed_loop ~socket:rsock ~conns:1 cheap in
  let pool = Array.of_list fleet.Workloads.pool in
  let misses = Load.closed_loop ~socket:rsock ~conns:1 pool in
  let hits = Load.closed_loop ~socket:rsock ~conns:1 pool in
  let h0, m0 = result_cache_counts rsock in
  let mix = drive ~socket:rsock fleet fleet.Workloads.requests in
  let h1, m1 = result_cache_counts rsock in
  List.iter (fun (what, r) -> ignore (all_ok what r))
    [ "hop probe (direct)", direct; "hop probe (routed)", routed; "fleet misses", misses;
      "fleet hits", hits; "fleet mix", mix ];
  Procs.stop dtree;
  Procs.stop rtree;
  (* A worker logs a request after sending its response: read the log
     once the daemon has drained. *)
  let log = read_access_log dlog in
  let log_of id = List.find_opt (fun l -> l.id = id) log in
  let per_request f =
    List.filter_map
      (fun i -> Option.map (f dpass.Load.samples.(i)) (log_of (i + 1)))
      (List.init n Fun.id)
  in
  (* The in-process replay, then omission at the other width. *)
  let r = Replay.run replay in
  Array.iteri
    (fun i o ->
      check (outcome dpass.Load.samples.(i).Load.payload = Some o)
        "request %d: replay disagrees with the daemon's vectors/detected" (i + 1))
    r.Replay.outcomes;
  let totals = r.Replay.totals in
  let split = Replay.split r.Replay.trace in
  let span_s = Replay.span_seconds r.Replay.trace in
  let speedup, commit_ratio =
    match Replay.width_probe r with
    | None -> 0.0, 0.0
    | Some p ->
      check p.Replay.identical "omission output differs between 1 and 2 jobs";
      p.Replay.speedup_j2, p.Replay.commit_ratio
  in
  let coverage = Replay.coverage split in
  check (smoke || coverage >= 0.95) "layer self-times cover %.1f%% of request wall, under 95%%"
    (100.0 *. coverage);
  let service_s = List.fold_left ( +. ) 0.0 (per_request (fun _ l -> float_of_int l.service_ns /. 1e9)) in
  (* Kernels, the same on every workload and every seed. *)
  let krng = Prng.Rng.of_string 0L "kernels" in
  let small, large = if smoke then "s27", "b02" else "s5378", "s35932" in
  let large_model = Kernels.compile large in
  let podem = Kernels.podem_ns_per_decision ~faults:(if smoke then 5 else 120) in
  let faultsim =
    Kernels.faultsim_ns_per_event krng ~frames:96 [ Kernels.compile small; large_model ]
  in
  let goodsim = Kernels.goodsim_ns_per_frame krng ~frames:(if smoke then 96 else 4096) large_model in
  let null_ns = Kernels.span_ns Obs.Trace.null ~iters:(if smoke then 100_000 else 2_000_000) in
  (* Tracing overhead, estimated as the spans recorded times the measured
     cost of one live span: the replay cannot be compared with the
     daemon's untraced service time, which runs on a worker domain and
     pays for multi-domain GC (server.daemon.slowdown). *)
  let live_ns = Kernels.span_ns (Obs.Trace.create ()) ~iters:100_000 in
  let c name = Obs.Counters.get (Obs.Metrics.counters totals.Replay.metrics) name in
  let cache_hits = List.length (List.filter (fun l -> l.cache = "hit") log) in
  check (cache_hits = n) "compile cache hit %d of %d replayed requests" cache_hits n;
  let hr, mr = h1 - h0, m1 - m0 in
  let metrics =
    [ real ~n "server.daemon.queue_wait_ms_p50" "ms"
        (median_or0 (per_request (fun _ l -> float_of_int l.queue_wait_ns /. 1e6)));
      real ~n "server.daemon.service_ms_p50" "ms"
        (median_or0 (per_request (fun _ l -> float_of_int l.service_ns /. 1e6)));
      real ~n "server.daemon.hop_ms_p50" "ms"
        (median_or0
           (per_request (fun s l -> Load.latency_ms s -. (float_of_int l.service_ns /. 1e6))));
      real ~n:(Array.length pings.Load.samples) "server.protocol.ping_us_p50" "us"
        (1000.0 *. median_or0 (latencies_ms pings));
      count ~n "server.protocol.bytes_out" "bytes"
        (List.fold_left ( + ) 0 (per_request (fun _ l -> l.bytes_out)));
      real ~n "server.daemon.slowdown" "ratio"
        (if split.Replay.wall_s > 0.0 then service_s /. split.Replay.wall_s else 0.0);
      real ~n "server.cache.hit_rate" "ratio" (ratio cache_hits n);
      real "server.cache.compile_ms" "ms" (1000.0 *. span_s "server.cache") ]
    @ List.map
        (fun (sub, span) -> real ("server.cache.compile_ms." ^ sub) "ms" (1000.0 *. span_s span))
        [ "catalog", "circuits.catalog"; "scanins", "scanins.insert";
          "faultmodel", "faultmodel.build"; "scan_knowledge", "atpg.scan_knowledge" ]
    @ List.map
        (fun (l, s) ->
          real ~n (l ^ ".self_share") "ratio"
            (if split.Replay.wall_s > 0.0 then s /. split.Replay.wall_s else 0.0))
        split.Replay.self_s
    @ List.map (fun k -> count k "count" (c k))
        [ "atpg.calls"; "atpg.decisions"; "atpg.backtracks"; "atpg.aborted_faults";
          "sim.events"; "sim.frames"; "sim.gframes"; "sim.wakeups" ]
    @ [ count "restore.probes" "count" totals.Replay.restore.Compaction.Restoration.probes;
        count "restore.batch_sims" "count" totals.Replay.restore.Compaction.Restoration.batch_sims;
        count "omit.trials" "count" totals.Replay.trials;
        count "omit.accepted" "count" totals.Replay.accepted;
        real "compaction.omission.accept_ratio" "ratio" (ratio totals.Replay.accepted totals.Replay.trials);
        real "compaction.speculative.commit_ratio" "ratio" commit_ratio;
        real "compaction.spec.speedup_j2" "ratio" speedup;
        real "atpg.podem.ns_per_decision" "ns" podem;
        real "logicsim.faultsim.ns_per_event" "ns" faultsim;
        real "logicsim.goodsim.ns_per_frame" "ns" goodsim;
        real ~n:(hr + mr) "fleet.result_cache.hit_rate" "ratio" (ratio hr (hr + mr));
        real ~n:(Array.length pool) "fleet.result_cache.hit_ms_p50" "ms" (median_or0 (latencies_ms hits));
        real ~n:(Array.length pool) "fleet.result_cache.miss_ms_p50" "ms" (median_or0 (latencies_ms misses));
        real ~n:(Array.length cheap) "fleet.router.hop_ms_p50" "ms"
          (median_or0 (latencies_ms routed) -. median_or0 (latencies_ms direct));
        real ~n:(Array.length mix.Load.samples) "loadgen.late_ms_max" "ms" (Load.late_ms_max mix);
        real "obs.trace.null_span_ns" "ns" null_ns;
        real ~n:split.Replay.spans "obs.trace.overhead_pct" "%"
          (100.0 *. float_of_int split.Replay.spans *. live_ns /. 1e9
           /. Float.max split.Replay.wall_s 1e-9);
        real ~n "obs.trace.layer_coverage" "ratio" coverage;
        real ~n "obs.trace.request_wall_s" "s" split.Replay.wall_s ]
  in
  let dom = Replay.dominant split in
  say "%s: dominant layer %s (%.1f%% of %.2fs traced request wall), layer coverage %.1f%%"
    w.Workloads.name dom
    (100.0 *. List.assoc dom split.Replay.self_s /. Float.max split.Replay.wall_s 1e-9)
    split.Replay.wall_s (100.0 *. coverage);
  let chrome = Printf.sprintf "BENCH_7.%s.trace.json" w.Workloads.name in
  Obs.Trace.write_chrome r.Replay.trace chrome;
  metrics, n, failed, [ "dominant_layer", Json.Str dom; "chrome_trace", Json.Str chrome ]

(* ------------------------------------------------------------- sweep *)

(* Calibration of fleet-repeat's reference rate: one warm router, open
   loop steps 1.25x apart, until a step misses the tail limit, answers a
   request with anything but ok, or finishes its last response more than
   the limit after the last arrival (a growing backlog). *)
let tail_limit_ms = 250.0

let sweep ~exe ~seed =
  let mix ~rate ~salt = Workloads.fleet_mix ~smoke:false ~seed ~rate ~seconds:4.0 ~salt in
  let w = mix ~rate:1.0 ~salt:0 in
  let tree, socket, _ = start ~exe ~name:"server" w.Workloads.server in
  warm ~socket w.Workloads.circuits w.Workloads.pool;
  let rec step k rate best =
    let w = mix ~rate ~salt:(k + 1) in
    let run = Load.open_loop ~socket ~rate w.Workloads.requests in
    let lat = latencies_ms run in
    let bad =
      Array.fold_left (fun a s -> if status s.Load.payload = "ok" then a else a + 1) 0 run.Load.samples
    in
    let last f = Array.fold_left (fun a s -> max a (f s)) 0 run.Load.samples in
    let drain_ms = float_of_int (last (fun s -> s.Load.recv_ns) - last (fun s -> s.Load.due_ns)) /. 1e6 in
    let tail = if lat = [] then infinity else Stats.tail lat in
    let ok = bad = 0 && tail <= tail_limit_ms && drain_ms <= tail_limit_ms in
    say "sweep: %.1f req/s: tail %.1f ms (q=%.3f, n=%d), %d not ok, drained %.1f ms after the last arrival"
      rate tail (Stats.tail_q (List.length lat)) (List.length lat) bad drain_ms;
    if ok && k < 30 then step (k + 1) (rate *. 1.25) rate else best
  in
  let best = step 0 8.0 0.0 in
  Procs.stop tree;
  say "sweep: max_rate_rps %.1f at a %.0f ms tail limit; reference rate %.1f" best tail_limit_ms
    Workloads.fleet_rate;
  0

(* ------------------------------------------------------------ output *)

let cores () =
  match Procs.read_file "/proc/cpuinfo" with
  | None -> 0
  | Some s ->
    List.length
      (List.filter
         (fun l -> String.length l >= 9 && String.sub l 0 9 = "processor")
         (String.split_on_char '\n' s))

(* The checkout may not be a git repository; read .git directly when it is. *)
let git_rev () =
  let read p = Option.map String.trim (Procs.read_file p) in
  match read ".git/HEAD" with
  | None -> "unknown"
  | Some head ->
    if String.length head > 5 && String.sub head 0 5 = "ref: " then
      let r = String.sub head 5 (String.length head - 5) in
      match read (Filename.concat ".git" r) with
      | Some h -> h
      | None -> r
    else head

let metrics_json ~with_n metrics =
  Json.Obj
    (List.map
       (fun m ->
         ( m.name,
           Json.Obj
             ([ "value", m.value; "unit", Json.Str m.unit_ ]
             @ if with_n then [ "n", Json.Int m.n ] else []) ))
       metrics)

let bench7 ~workload ~mode ~seed ~seconds ~extra metrics =
  Json.Obj
    ([ "schema", Json.Str "scanatpg-bench/7"; "workload", Json.Str workload;
       "mode", Json.Str mode; "seed", Json.Int seed; "seconds", Json.Float seconds;
       "cores", Json.Int (cores ()); "nproc", Json.Int (Domain.recommended_domain_count ());
       "git_rev", Json.Str (git_rev ()); "ocaml", Json.Str Sys.ocaml_version ]
    @ extra
    @ [ "problems", Json.Arr (List.rev_map (fun p -> Json.Str p) !problems);
        "metrics", metrics_json ~with_n:true metrics ])

(* The result object, the last line of stdout. *)
let result_line ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [ "correct", Json.Bool (!problems = []); "attempted", Json.Int attempted;
         "failed", Json.Int failed; "metrics", metrics_json ~with_n:false metrics ])

let default_seed = 1
let default_seconds = 20.0

(* Payload digests of the untraced runs at the default [--seconds], the
   same for every seed.  A change that alters any compute payload of
   these request sets fails the run. *)
let pinned =
  [ "generate-mix", "abdc40d69a068bbc"; "atpg-only", "d7e32267b2a18118";
    "compact-large", "72b22922ff96bd03"; "fleet-repeat", "04e0fdd7da41912c" ]

let run_one ~exe ~smoke ~seed ~seconds ~trace workload =
  let w = Workloads.make ~smoke ~seed ~seconds workload in
  let metrics, attempted, failed, extra =
    if trace then traced ~exe ~smoke ~seed w else e2e ~exe ~smoke w
  in
  (match List.assoc_opt "digest" extra with
  | Some (Json.Str d) when (not smoke) && seconds = default_seconds ->
    let want = List.assoc workload pinned in
    check (d = want) "digest %s differs from the pinned %s" d want
  | _ -> ());
  metrics, attempted, failed, extra

(* ------------------------------------------------------------- smoke *)

(* Every workload shrunk to s27/b02, untraced and traced, checking that
   the printed metric names are the ones BENCHMARK.json declares. *)
let rec find_up dir name =
  let p = Filename.concat dir name in
  if Sys.file_exists p then p
  else
    let parent = Filename.dirname dir in
    if parent = dir then failwith (name ^ " not found") else find_up parent name

let declared key =
  let doc = Json.parse (Option.get (Procs.read_file (find_up (Sys.getcwd ()) "BENCHMARK.json"))) in
  List.map
    (fun m -> Option.get (str_field m "name"), Option.get (str_field m "unit"))
    (Option.get (Option.bind (Json.member key doc) Json.get_arr))

let smoke ~exe =
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let metrics, _, _, _ = run_one ~exe ~smoke:true ~seed:default_seed ~seconds:1.0 ~trace workload in
          let want = declared (if trace then "per_layer" else "end_to_end") in
          let got = List.map (fun m -> m.name, m.unit_) metrics in
          check (List.sort compare got = List.sort compare want)
            "%s%s: metric names or units differ from BENCHMARK.json" workload
            (if trace then " (traced)" else ""))
        [ false; true ])
    Workloads.names;
  List.iter (fun p -> say "smoke: %s" p) (List.rev !problems);
  if !problems = [] then (say "smoke: ok"; 0) else 1

(* -------------------------------------------------------------- main *)

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref default_seconds in
  let trace = ref 0 and smoke_mode = ref false and sweep_mode = ref false in
  Arg.parse
    [ "--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " Workloads.names;
      "--seed", Arg.Set_int seed, "N seed of every input (default 1)";
      "--seconds", Arg.Set_float seconds, "S timed-phase length the request lists are sized for";
      "--trace", Arg.Set_int trace, "0|1 untraced end-to-end run, or the traced per-layer run";
      "--smoke", Arg.Set smoke_mode, " every workload shrunk to s27/b02, checked against BENCHMARK.json";
      "--sweep", Arg.Set sweep_mode, " find fleet-repeat's knee (calibrates its reference rate)" ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe --workload NAME --seed N --seconds S --trace 0|1";
  Procs.install_cleanup ();
  let code =
    try
      let exe = Procs.server_exe () in
      if !smoke_mode then smoke ~exe
      else if !sweep_mode then sweep ~exe ~seed:!seed
      else begin
        if not (List.mem !workload Workloads.names) then
          failwith (Printf.sprintf "unknown workload %S" !workload);
        let trace = !trace <> 0 in
        let metrics, attempted, failed, extra =
          run_one ~exe ~smoke:false ~seed:!seed ~seconds:!seconds ~trace !workload
        in
        List.iter (fun p -> say "check failed: %s" p) (List.rev !problems);
        Obs.Fileio.write_string "BENCH_7.json"
          (Json.to_string
             (bench7 ~workload:!workload ~mode:(if trace then "trace" else "e2e") ~seed:!seed
                ~seconds:!seconds ~extra metrics)
          ^ "\n");
        print_endline (result_line ~attempted ~failed metrics);
        0
      end
    with Failure msg | Sys_error msg ->
      say "error: %s" msg;
      2
  in
  exit code
