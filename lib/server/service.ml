module Json = Obs.Json
module Config = Core.Config
module Flow = Core.Flow

type t = {
  cache : Cache.t;
  default_scale : Circuits.Profiles.scale;
  mu : Mutex.t;  (* guards [metrics] *)
  metrics : Obs.Metrics.t;
  fp : Obs.Failpoint.t;
}

type meta = {
  status : string;
  op : string;
  circuit : string;
  cache : string;
}

let create ?(cache_capacity = 8) ?(default_scale = Circuits.Profiles.Quick)
    ?(failpoint = Obs.Failpoint.null) () =
  {
    cache = Cache.create ~capacity:cache_capacity;
    default_scale;
    mu = Mutex.create ();
    metrics = Obs.Metrics.create ();
    fp = failpoint;
  }

let cache (t : t) = t.cache

let with_lock t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let bump t name n =
  with_lock t (fun () -> Obs.Counters.add (Obs.Metrics.counters t.metrics) name n)

let observe t name v =
  with_lock t (fun () -> Obs.Metrics.observe t.metrics name v)

let metrics_snapshot t =
  with_lock t (fun () ->
      let copy = Obs.Metrics.create () in
      Obs.Metrics.merge_into ~src:t.metrics ~dst:copy;
      copy)

(* --------------------------------------------------------- compile step *)

let compile_src src =
  let circuit =
    match src with
    | Protocol.Catalog name -> fun scale -> Circuits.Catalog.circuit ~scale name
    | Protocol.Bench text ->
      fun _ -> Netlist.Bench_format.parse_string ~name:"request" text
  in
  circuit

let lookup (t : t) (c : Protocol.compute) =
  let key = Cache.key_of c.Protocol.src ~scale:c.Protocol.scale ~chains:c.Protocol.chains in
  let entry, outcome =
    Cache.find_or_compile t.cache ~key ~compile:(fun () ->
        (* An injected compile failure propagates out of the cache and
           leaves it unchanged: the next identical request recompiles. *)
        Obs.Failpoint.hit t.fp "cache.compile";
        let t0 = Obs.Clock.now_ns () in
        let circuit = compile_src c.Protocol.src c.Protocol.scale in
        let scan = Scanins.Scan.insert ~chains:c.Protocol.chains circuit in
        let model = Faultmodel.Model.build scan.Scanins.Scan.circuit in
        let sk = Atpg.Scan_knowledge.create scan in
        with_lock t (fun () ->
            Obs.Metrics.add_phase t.metrics "server.compile"
              (Obs.Clock.to_s (Obs.Clock.elapsed_ns t0)));
        { Cache.circuit; scan; model; sk })
  in
  bump t
    (match outcome with `Hit -> "server.cache_hit" | `Miss -> "server.cache_miss")
    1;
  entry, outcome

let config_for entry (c : Protocol.compute) =
  Config.with_compact_jobs c.Protocol.compact_jobs
    (Config.with_sim_jobs c.Protocol.sim_jobs
       { (Config.for_circuit entry.Cache.circuit) with
         Config.chains = c.Protocol.chains;
         seed = c.Protocol.seed })

(* --------------------------------------------------- response assembly *)

(* Dispatch-schedule telemetry — the speculative counters and the
   adaptive width/arena/replay-skip counters — legitimately varies with
   [compact_jobs] and the width trajectory; keeping both families out of
   response payloads is what makes them byte-identical at any
   parallelism. *)
let jobs_dependent_counter name =
  let has_prefix p =
    String.length name >= String.length p
    && String.sub name 0 (String.length p) = p
  in
  has_prefix "compaction.speculative." || has_prefix "compaction.adaptive."

let response_counters rm =
  Json.Obj
    (List.filter_map
       (fun (name, v) ->
         if jobs_dependent_counter name then None
         else Some (name, Json.Int v))
       (Obs.Counters.to_alist (Obs.Metrics.counters rm)))

let sequence_json seq =
  Json.Arr
    (Array.to_list
       (Array.map (fun v -> Json.Str (Logicsim.Vectors.to_string v)) seq))

let status_of budget =
  match Obs.Budget.tripped budget with
  | Some _ -> "degraded"
  | None -> "ok"

let scan_count scan seq = Core.Pipeline.scan_count scan seq

let omission_json (o : Compaction.Omission.stats) =
  Json.Obj
    [ "trials", Json.Int o.Compaction.Omission.trials;
      "accepted", Json.Int o.Compaction.Omission.accepted;
      "rejected", Json.Int o.Compaction.Omission.rejected;
      "removed_vectors", Json.Int o.Compaction.Omission.removed_vectors;
      "passes", Json.Int o.Compaction.Omission.passes ]

(* ----------------------------------------------------------- handlers *)

let exec_generate t ~budget ~trace ~id c ~compact ~return_sequence =
  let entry, outcome = lookup t c in
  let compiled = entry.Cache.compiled in
  let rm = Obs.Metrics.create () in
  let cfg = config_for compiled c in
  let flow =
    Obs.Metrics.timed rm ~trace "generate" (fun () ->
        Flow.generate ~metrics:rm ~budget ~trace cfg compiled.Cache.sk
          compiled.Cache.model)
  in
  let seq = flow.Flow.sequence in
  let final, ostats =
    if compact && not (Obs.Budget.expired budget) then begin
      let _, omitted, ostats =
        Obs.Metrics.timed rm ~trace "compact" (fun () ->
            Core.Pipeline.compact ~budget ~trace ~metrics:rm cfg
              compiled.Cache.model seq flow.Flow.targets)
      in
      omitted, Some ostats
    end
    else seq, None
  in
  let status = status_of budget in
  let scan = compiled.Cache.scan in
  let fields =
    [ "id", Json.Int id; "op", Json.Str "generate"; "status", Json.Str status;
      "circuit", Json.Str (Netlist.Circuit.name compiled.Cache.circuit);
      "cache_key", Json.Str (Printf.sprintf "%016Lx" entry.Cache.hash);
      "targeted", Json.Int flow.Flow.targeted;
      "detected", Json.Int flow.Flow.detected;
      "coverage", Json.Float (Flow.coverage flow);
      "by_random", Json.Int flow.Flow.by_random;
      "by_atpg", Json.Int flow.Flow.by_atpg;
      "by_drain", Json.Int flow.Flow.by_drain;
      "by_justify", Json.Int flow.Flow.by_justify;
      "generated_vectors", Json.Int (Array.length seq);
      "vectors", Json.Int (Array.length final);
      "scan_vectors", Json.Int (scan_count scan final) ]
    @ (match ostats with
       | Some o -> [ "omission", omission_json o ]
       | None -> [])
    @ (if return_sequence then [ "sequence", sequence_json final ] else [])
    @ [ "counters", response_counters rm ]
  in
  with_lock t (fun () -> Obs.Metrics.merge_into ~src:rm ~dst:t.metrics);
  ( Json.to_string (Json.Obj fields),
    {
      status;
      op = "generate";
      circuit = Netlist.Circuit.name compiled.Cache.circuit;
      cache = (match outcome with `Hit -> "hit" | `Miss -> "miss");
    } )

let exec_compact t ~budget ~trace ~id c sequence =
  let entry, outcome = lookup t c in
  let compiled = entry.Cache.compiled in
  let scan = compiled.Cache.scan in
  let model = compiled.Cache.model in
  let width = Netlist.Circuit.input_count scan.Scanins.Scan.circuit in
  let seq =
    Array.of_list
      (List.map
         (fun line ->
           let v = Logicsim.Vectors.parse line in
           if Array.length v <> width then
             raise
               (Protocol.Bad_request
                  (Printf.sprintf
                     "vector width %d does not match circuit inputs (%d)"
                     (Array.length v) width));
           v)
         sequence)
  in
  if Array.length seq = 0 then
    raise (Protocol.Bad_request "empty \"vectors\" array");
  let rm = Obs.Metrics.create () in
  let cfg = config_for compiled c in
  let nf = Faultmodel.Model.fault_count model in
  let targets =
    Obs.Metrics.timed rm ~trace "target-compute" (fun () ->
        Compaction.Target.compute ~jobs:cfg.Config.sim_jobs model seq
          ~fault_ids:(Array.init nf Fun.id))
  in
  let _, omitted, ostats =
    Obs.Metrics.timed rm ~trace "compact" (fun () ->
        Core.Pipeline.compact ~budget ~trace ~metrics:rm cfg model seq targets)
  in
  let status = status_of budget in
  let fields =
    [ "id", Json.Int id; "op", Json.Str "compact"; "status", Json.Str status;
      "circuit", Json.Str (Netlist.Circuit.name compiled.Cache.circuit);
      "cache_key", Json.Str (Printf.sprintf "%016Lx" entry.Cache.hash);
      "detects", Json.Int (Compaction.Target.count targets);
      "faults", Json.Int nf;
      "vectors_in", Json.Int (Array.length seq);
      "vectors_out", Json.Int (Array.length omitted);
      "scan_vectors_in", Json.Int (scan_count scan seq);
      "scan_vectors_out", Json.Int (scan_count scan omitted);
      "omission", omission_json ostats;
      "sequence", sequence_json omitted;
      "counters", response_counters rm ]
  in
  with_lock t (fun () -> Obs.Metrics.merge_into ~src:rm ~dst:t.metrics);
  ( Json.to_string (Json.Obj fields),
    {
      status;
      op = "compact";
      circuit = Netlist.Circuit.name compiled.Cache.circuit;
      cache = (match outcome with `Hit -> "hit" | `Miss -> "miss");
    } )

let lengths_json (l : Core.Pipeline.lengths) =
  Json.Obj
    [ "total", Json.Int l.Core.Pipeline.total;
      "scan", Json.Int l.Core.Pipeline.scan ]

let exec_table t ~budget ~trace ~id (c : Protocol.compute) =
  let name =
    match c.Protocol.src with
    | Protocol.Catalog name -> name
    | Protocol.Bench _ ->
      raise
        (Protocol.Bad_request
           "table runs the paper pipeline on catalog circuits only")
  in
  let circuit = Circuits.Catalog.circuit ~scale:c.Protocol.scale name in
  let cfg =
    Config.with_compact_jobs c.Protocol.compact_jobs
      (Config.with_sim_jobs c.Protocol.sim_jobs
         { (Config.for_circuit circuit) with
           Config.chains = c.Protocol.chains;
           seed = c.Protocol.seed })
  in
  let rm = Obs.Metrics.create () in
  let r =
    Core.Pipeline.run ~scale:c.Protocol.scale ~config:cfg ~metrics:rm
      ~trace ~budget name
  in
  let row5 = r.Core.Pipeline.row5 in
  let row6 = r.Core.Pipeline.row6 in
  let status = if r.Core.Pipeline.degraded then "degraded" else "ok" in
  let fields =
    [ "id", Json.Int id; "op", Json.Str "table"; "status", Json.Str status;
      "circuit", Json.Str name;
      ( "row5",
        Json.Obj
          [ "inp", Json.Int row5.Core.Pipeline.inp;
            "stvr", Json.Int row5.Core.Pipeline.stvr;
            "faults", Json.Int row5.Core.Pipeline.faults;
            "detected", Json.Int row5.Core.Pipeline.detected;
            "fcov", Json.Float row5.Core.Pipeline.fcov;
            "funct", Json.Int row5.Core.Pipeline.funct ] );
      ( "row6",
        Json.Obj
          [ "test_len", lengths_json row6.Core.Pipeline.test_len;
            "restor_len", lengths_json row6.Core.Pipeline.restor_len;
            "omit_len", lengths_json row6.Core.Pipeline.omit_len;
            "ext_det", Json.Int row6.Core.Pipeline.ext_det;
            "baseline_cycles", Json.Int row6.Core.Pipeline.baseline_cycles ] ) ]
    @ (match r.Core.Pipeline.row7 with
       | None -> []
       | Some row7 ->
         [ ( "row7",
             Json.Obj
               [ "test_len", lengths_json row7.Core.Pipeline.test_len;
                 "restor_len", lengths_json row7.Core.Pipeline.restor_len;
                 "omit_len", lengths_json row7.Core.Pipeline.omit_len;
                 "baseline_cycles",
                 Json.Int row7.Core.Pipeline.baseline_cycles ] ) ])
    @ [ "counters", response_counters rm ]
  in
  with_lock t (fun () -> Obs.Metrics.merge_into ~src:rm ~dst:t.metrics);
  Json.to_string (Json.Obj fields), { status; op = "table"; circuit = name; cache = "-" }

let exec_stats (t : t) ~id ~prom =
  let m = metrics_snapshot t in
  let payload =
    if prom then
      Json.to_string
        (Json.Obj
           [ "id", Json.Int id; "op", Json.Str "stats"; "status", Json.Str "ok";
             "format", Json.Str "prometheus";
             "text", Json.Str (Obs.Metrics.to_prometheus m) ])
    else begin
      let counters =
        Json.Obj
          (List.map
             (fun (name, v) -> name, Json.Int v)
             (Obs.Counters.to_alist (Obs.Metrics.counters m)))
      in
      let phases =
        Json.Obj
          (List.map (fun (name, s) -> name, Json.Float s) (Obs.Metrics.phases m))
      in
      let histograms =
        Json.Obj
          (List.map
             (fun (name, h) ->
               ( name,
                 Json.Obj
                   [ "count", Json.Int (Obs.Hist.count h);
                     "sum", Json.Int (Obs.Hist.sum h);
                     "p50", Json.Int (Obs.Hist.percentile h 0.50);
                     "p90", Json.Int (Obs.Hist.percentile h 0.90);
                     "p95", Json.Int (Obs.Hist.percentile h 0.95);
                     "p99", Json.Int (Obs.Hist.percentile h 0.99) ] ))
             (Obs.Metrics.hists m))
      in
      Json.to_string
        (Json.Obj
           [ "id", Json.Int id; "op", Json.Str "stats"; "status", Json.Str "ok";
             "counters", counters; "phases", phases; "histograms", histograms;
             ( "cache",
               Json.Obj
                 [ "entries", Json.Int (Cache.length t.cache);
                   "capacity", Json.Int (Cache.capacity t.cache) ] ) ])
    end
  in
  payload, { status = "ok"; op = "stats"; circuit = "-"; cache = "-" }

let execute t ~budget ?(trace = Obs.Trace.null) (req : Protocol.request) =
  let id = req.Protocol.id in
  try
    match req.Protocol.op with
    | Protocol.Ping ->
      ( Json.to_string
          (Json.Obj
             [ "id", Json.Int id; "op", Json.Str "ping";
               "status", Json.Str "ok" ]),
        { status = "ok"; op = "ping"; circuit = "-"; cache = "-" } )
    | Protocol.Stats { prom } -> exec_stats t ~id ~prom
    | Protocol.Chaos { spec } ->
      (match spec with
      | None -> ()
      | Some s -> (
        try Obs.Failpoint.configure t.fp s
        with Invalid_argument msg -> raise (Protocol.Bad_request msg)));
      ( Json.to_string
          (Json.Obj
             [ "id", Json.Int id; "op", Json.Str "chaos";
               "status", Json.Str "ok";
               "active", Json.Str (Obs.Failpoint.describe t.fp);
               ( "fires",
                 Json.Obj
                   (List.map
                      (fun (n, k) -> n, Json.Int k)
                      (Obs.Failpoint.fires t.fp)) ) ]),
        { status = "ok"; op = "chaos"; circuit = "-"; cache = "-" } )
    | Protocol.Shutdown ->
      ( Json.to_string
          (Json.Obj
             [ "id", Json.Int id; "op", Json.Str "shutdown";
               "status", Json.Str "ok" ]),
        { status = "ok"; op = "shutdown"; circuit = "-"; cache = "-" } )
    | Protocol.Generate { c; compact; return_sequence } ->
      exec_generate t ~budget ~trace ~id c ~compact ~return_sequence
    | Protocol.Compact { c; sequence } ->
      exec_compact t ~budget ~trace ~id c sequence
    | Protocol.Table { c } -> exec_table t ~budget ~trace ~id c
  with
  | Protocol.Bad_request msg ->
    bump t "server.bad_request" 1;
    ( Protocol.error_response ~id "error" msg,
      { status = "error"; op = Protocol.op_name req.Protocol.op; circuit = "-";
        cache = "-" } )
  | Netlist.Bench_format.Parse_error { line; col; token; message } ->
    bump t "server.bad_request" 1;
    ( Protocol.error_response ~id "error"
        (Printf.sprintf "parse error at line %d, column %d (%s): %s" line col
           token message),
      { status = "error"; op = Protocol.op_name req.Protocol.op; circuit = "-";
        cache = "-" } )
  | Netlist.Circuit.Invalid_circuit msg ->
    bump t "server.bad_request" 1;
    ( Protocol.error_response ~id "error" ("invalid circuit: " ^ msg),
      { status = "error"; op = Protocol.op_name req.Protocol.op; circuit = "-";
        cache = "-" } )
  | Not_found ->
    bump t "server.bad_request" 1;
    ( Protocol.error_response ~id "error" "unknown circuit (not in the catalog)",
      { status = "error"; op = Protocol.op_name req.Protocol.op; circuit = "-";
        cache = "-" } )
  | Invalid_argument msg ->
    bump t "server.bad_request" 1;
    ( Protocol.error_response ~id "error" msg,
      { status = "error"; op = Protocol.op_name req.Protocol.op; circuit = "-";
        cache = "-" } )
  | Obs.Failpoint.Injected site ->
    bump t "server.internal_error" 1;
    ( Protocol.error_response ~id "internal_error"
        ("injected fault at " ^ site),
      { status = "internal_error"; op = Protocol.op_name req.Protocol.op;
        circuit = "-"; cache = "-" } )
  | Obs.Failpoint.Crashed _ as e ->
    (* An injected crash models the worker dying mid-request: it must
       escape to the daemon's containment layer, not degrade into a
       polite typed reply here. *)
    raise e
  | e ->
    bump t "server.internal_error" 1;
    ( Protocol.error_response ~id "internal_error"
        ("internal error: " ^ Printexc.to_string e),
      { status = "internal_error"; op = Protocol.op_name req.Protocol.op;
        circuit = "-"; cache = "-" } )
