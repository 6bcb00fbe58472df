(* The traced in-process replay.  Requests run one at a time through the
   public functions [Server.Service] calls, configured the way it
   configures them, with the benchmark's own spans around each call:
   those spans are the layer boundaries, and the library's [flow.*] and
   [omit.pass<n>] spans nest under them. *)

module Protocol = Server.Protocol
module Cache = Server.Cache
module Config = Core.Config
module Omission = Compaction.Omission
module Restoration = Compaction.Restoration
module Target = Compaction.Target
module Spec = Compaction.Spec

let span = Obs.Trace.with_span

(* [Service]'s compile step, one sub-span per stage. *)
let compile tr (c : Protocol.compute) =
  let circuit =
    span tr "circuits.catalog" (fun () ->
        match c.Protocol.src with
        | Protocol.Catalog name -> Circuits.Catalog.circuit ~scale:c.Protocol.scale name
        | Protocol.Bench text -> Netlist.Bench_format.parse_string ~name:"request" text)
  in
  let scan =
    span tr "scanins.insert" (fun () -> Scanins.Scan.insert ~chains:c.Protocol.chains circuit)
  in
  let model =
    span tr "faultmodel.build" (fun () -> Faultmodel.Model.build scan.Scanins.Scan.circuit)
  in
  let sk = span tr "atpg.scan_knowledge" (fun () -> Atpg.Scan_knowledge.create scan) in
  { Cache.circuit; scan; model; sk }

let config_for (compiled : Cache.compiled) (c : Protocol.compute) =
  Config.with_compact_jobs c.Protocol.compact_jobs
    (Config.with_sim_jobs c.Protocol.sim_jobs
       { (Config.for_circuit compiled.Cache.circuit) with
         Config.chains = c.Protocol.chains; seed = c.Protocol.seed })

(* One omission call, kept to be run again at the other width. *)
type omission_call = {
  model : Faultmodel.Model.t;
  restored : Logicsim.Vectors.t;
  targets : Target.t;
  ocfg : Omission.config;
  output : Logicsim.Vectors.t;
}

type totals = {
  metrics : Obs.Metrics.t;  (* flow counters of every request *)
  restore : Restoration.stats;
  spec : Spec.counters;  (* omission's, at the requests' own width *)
  mutable trials : int;
  mutable accepted : int;
  mutable omissions : omission_call list;
}

(* [Service.compact_sequence]: restoration, targets of the restored
   sequence, then omission with 4 trials per vector plus 2000. *)
let compact_sequence tr totals ~budget cfg model seq targets =
  let restored =
    span tr "compaction.restoration" (fun () ->
        Restoration.run ~stats:totals.restore ~budget ~jobs:cfg.Config.compact_jobs
          ~spec:(Spec.make ()) ~adaptive:(Spec.make_adaptive ()) model seq targets)
  in
  let targets_r =
    span tr "compaction.target" (fun () ->
        Target.compute ~jobs:cfg.Config.sim_jobs model restored
          ~fault_ids:targets.Target.fault_ids)
  in
  let ocfg =
    { cfg.Config.omission with
      Omission.max_trials = Some ((4 * Array.length restored) + 2000) }
  in
  let omitted, _, o =
    span tr "compaction.omission" (fun () ->
        Omission.run ~budget ~metrics:(Obs.Metrics.create ()) ~trace:tr ~spec:totals.spec
          ~adaptive:(Spec.make_adaptive ()) model restored targets_r ocfg)
  in
  totals.trials <- totals.trials + o.Omission.trials;
  totals.accepted <- totals.accepted + o.Omission.accepted;
  totals.omissions <-
    { model; restored; targets = targets_r; ocfg; output = omitted } :: totals.omissions;
  omitted

(* What the daemon's response to the same request must agree with. *)
type outcome = {
  vectors : int;
  detected : int;
}

let run_one tr cache totals payload =
  span tr "request" (fun () ->
      let req = span tr "server.protocol" (fun () -> Protocol.request_of_string payload) in
      let lookup (c : Protocol.compute) =
        let key = Cache.key_of c.Protocol.src ~scale:c.Protocol.scale ~chains:c.Protocol.chains in
        let entry, _ =
          span tr "server.cache" (fun () ->
              Cache.find_or_compile cache ~key ~compile:(fun () -> compile tr c))
        in
        entry.Cache.compiled
      in
      let budget = Obs.Budget.create () in
      match req.Protocol.op with
      | Protocol.Generate { c; compact; _ } ->
        let compiled = lookup c in
        let cfg = config_for compiled c in
        let flow =
          span tr "core.flow" (fun () ->
              Core.Flow.generate ~metrics:totals.metrics ~budget ~trace:tr cfg
                compiled.Cache.sk compiled.Cache.model)
        in
        let final =
          if compact then
            compact_sequence tr totals ~budget cfg compiled.Cache.model
              flow.Core.Flow.sequence flow.Core.Flow.targets
          else flow.Core.Flow.sequence
        in
        { vectors = Array.length final; detected = flow.Core.Flow.detected }
      | Protocol.Compact { c; sequence } ->
        let compiled = lookup c in
        let cfg = config_for compiled c in
        let model = compiled.Cache.model in
        let seq = Array.of_list (List.map Logicsim.Vectors.parse sequence) in
        let targets =
          span tr "compaction.target" (fun () ->
              Target.compute ~jobs:cfg.Config.sim_jobs model seq
                ~fault_ids:(Array.init (Faultmodel.Model.fault_count model) Fun.id))
        in
        let omitted = compact_sequence tr totals ~budget cfg model seq targets in
        { vectors = Array.length omitted; detected = Target.count targets }
      | _ -> invalid_arg "replay: only generate and compact requests replay")

type result = {
  trace : Obs.Trace.t;
  outcomes : outcome array;
  totals : totals;
}

let run payloads =
  let tr = Obs.Trace.create () in
  let cache = Cache.create ~capacity:8 in
  let totals =
    { metrics = Obs.Metrics.create (); restore = Restoration.make_stats ();
      spec = Spec.make (); trials = 0; accepted = 0; omissions = [] }
  in
  let outcomes = Array.map (run_one tr cache totals) payloads in
  { trace = tr; outcomes; totals }

let span_seconds tr name =
  List.fold_left
    (fun acc s ->
      if s.Obs.Trace.name = name then
        acc +. Obs.Clock.to_s (s.Obs.Trace.stop_ns - s.Obs.Trace.start_ns)
      else acc)
    0.0 (Obs.Trace.spans tr)

(* Speculation at width 1 vs 2: every omission call of the replay runs
   again at the other width, outside the request spans.  Returns the
   omission seconds at width 1 over those at width 2, the commit ratio
   (committed / dispatched) at width 2, and whether every output stayed
   byte-identical; [None] when the replay compacted nothing. *)
type widths = {
  speedup_j2 : float;
  commit_ratio : float;
  identical : bool;
}

let width_probe r =
  match r.totals.omissions with
  | [] -> None
  | first :: _ as calls ->
    let own = first.ocfg.Omission.jobs in
    let jobs = if own = 1 then 2 else 1 in
    let spec = Spec.make () in
    let t0 = Obs.Clock.now_ns () in
    let identical =
      span r.trace (Printf.sprintf "omission.jobs%d" jobs) (fun () ->
          List.for_all
            (fun o ->
              let out, _, _ =
                Omission.run ~spec o.model o.restored o.targets { o.ocfg with Omission.jobs }
              in
              out = o.output)
            calls)
    in
    let s_other = Obs.Clock.to_s (Obs.Clock.elapsed_ns t0) in
    let s_own = span_seconds r.trace "compaction.omission" in
    let s1, s2, spec2 = if jobs = 2 then s_own, s_other, spec else s_other, s_own, r.totals.spec in
    let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
    Some
      { speedup_j2 = s1 /. s2;
        commit_ratio = ratio spec2.Spec.committed spec2.Spec.dispatched;
        identical }

(* ------------------------------------------------------- layer split *)

(* Self time of a span: its duration minus what its children cover.
   Each span of a request tree belongs to one layer; [request] itself
   is what no layer claims. *)
let layer_of name =
  match name with
  | "circuits.catalog" | "scanins.insert" | "faultmodel.build" | "atpg.scan_knowledge" ->
    Some "server.cache"
  | _ when String.length name > 9 && String.sub name 0 9 = "omit.pass" ->
    Some "compaction.omission"
  | "request" -> None
  | n -> Some n

let layers =
  [ "server.protocol"; "server.cache"; "core.flow"; "flow.prune"; "flow.random";
    "flow.atpg"; "flow.requeue"; "compaction.restoration"; "compaction.target";
    "compaction.omission" ]

type split = {
  wall_s : float;  (* summed duration of the request spans *)
  self_s : (string * float) list;  (* by layer, in [layers] order *)
  spans : int;  (* recorded inside the request spans *)
}

let split tr =
  let all = Obs.Trace.spans tr in
  let dur s = Obs.Clock.to_s (s.Obs.Trace.stop_ns - s.Obs.Trace.start_ns) in
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.Obs.Trace.id s) all;
  let rec in_request s =
    s.Obs.Trace.name = "request"
    || match Hashtbl.find_opt by_id s.Obs.Trace.parent with
       | Some p -> in_request p
       | None -> false
  in
  let mine = List.filter in_request all in
  let get tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let add tbl k v = Hashtbl.replace tbl k (v +. get tbl k) in
  let children = Hashtbl.create 256 in
  List.iter (fun s -> add children s.Obs.Trace.parent (dur s)) mine;
  let by_layer = Hashtbl.create 16 and wall = ref 0.0 in
  List.iter
    (fun s ->
      match layer_of s.Obs.Trace.name with
      | Some l -> add by_layer l (dur s -. get children s.Obs.Trace.id)
      | None -> wall := !wall +. dur s)
    mine;
  { wall_s = !wall; self_s = List.map (fun l -> l, get by_layer l) layers;
    spans = List.length mine }

(* Share of the request wall the layers' self times account for. *)
let coverage split =
  if split.wall_s > 0.0 then List.fold_left (fun acc (_, s) -> acc +. s) 0.0 split.self_s /. split.wall_s
  else 0.0

let dominant split =
  fst
    (List.fold_left
       (fun (bl, bs) (l, s) -> if s > bs then l, s else bl, bs)
       ("-", neg_infinity) split.self_s)
