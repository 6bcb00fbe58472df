module Client = Server.Client
module Json = Obs.Json

type report = {
  offered_rps : float;
  duration_s : float;
  sent : int;
  completed : int;
  lost : int;
  achieved_rps : float;
  by_status : (string * int) list;
  p50_ms : float;
  p90_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
}

(* Deterministic template pick for arrival [i]: an FNV-1a draw over
   (seed, i), so the request mix replays exactly under the same seed —
   no wall-clock or PRNG state feeds the schedule. *)
let pick ~seed ~n i =
  if n = 1 then 0
  else
    let h = Prng.Rng.fnv1a64 (Printf.sprintf "%d:%d" seed i) in
    Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int n))

(* ids are restamped per arrival; a template id would collide *)
let prepare_template idx line =
  List.filter
    (fun (k, _) -> k <> "id")
    (Client.object_fields ~what:"template" idx line)

(* Open loop: arrival [i] goes on the wire at [t0 + i/rate] regardless
   of how many responses have come back — the sender never waits on the
   server, which is what makes an overload measurable instead of
   self-throttling.  Latency is measured from the scheduled arrival, so
   a send that fell behind schedule still charges the server for the
   queueing it caused.  The reader side is the batch client's
   {!Client.pipeline}. *)
let run ~addr ~templates ~rate ~duration_s ~seed () =
  if rate <= 0.0 then invalid_arg "load rate must be positive";
  if duration_s <= 0.0 then invalid_arg "load duration must be positive";
  let templates = Array.of_list (List.mapi prepare_template templates) in
  let n = Array.length templates in
  if n = 0 then invalid_arg "load harness needs at least one template request";
  let total = max 1 (int_of_float (ceil (rate *. duration_s))) in
  let payload i =
    let fields = templates.(pick ~seed ~n i) in
    Json.to_string (Json.Obj (("id", Json.Int (i + 1)) :: fields))
  in
  let conn = Client.connect addr in
  (* stall guard: an idle 30s mid-collection ends the run rather than
     hanging the harness on a wedged server *)
  (try Unix.setsockopt_float (Client.fd conn) Unix.SO_RCVTIMEO 30.0
   with Unix.Unix_error _ -> ());
  let t0 = Obs.Clock.now_ns () in
  let sched i = t0 + int_of_float (float_of_int i /. rate *. 1e9) in
  let hist = Obs.Hist.create () in
  let tallies = Hashtbl.create 8 in
  let sent, completed =
    Client.pipeline conn
      ~write:(fun send ->
        for i = 0 to total - 1 do
          let now = Obs.Clock.now_ns () in
          let target = sched i in
          if target > now then
            Unix.sleepf (float_of_int (target - now) /. 1e9);
          send (payload i)
        done)
      ~on_response:(fun payload ->
        (match Result_cache.split_id payload with
        | Some (id, _) when id >= 1 && id <= total ->
          Obs.Hist.observe hist (Obs.Clock.now_ns () - sched (id - 1))
        | _ -> ());
        let status = Client.status_of_payload payload in
        let n = Option.value ~default:0 (Hashtbl.find_opt tallies status) in
        Hashtbl.replace tallies status (n + 1))
  in
  let wall_s = Obs.Clock.to_s (Obs.Clock.elapsed_ns t0) in
  Client.close conn;
  let ms ns = float_of_int ns /. 1e6 in
  let pct q = ms (Obs.Hist.percentile hist q) in
  let max_ms =
    match List.rev (Obs.Hist.buckets hist) with
    | (bound, _) :: _ -> ms bound
    | [] -> 0.0
  in
  {
    offered_rps = rate;
    duration_s;
    sent;
    completed;
    lost = sent - completed;
    achieved_rps =
      (if wall_s > 0.0 then float_of_int completed /. wall_s else 0.0);
    by_status =
      List.sort compare
        (Hashtbl.fold (fun s k acc -> (s, k) :: acc) tallies []);
    p50_ms = pct 0.50;
    p90_ms = pct 0.90;
    p95_ms = pct 0.95;
    p99_ms = pct 0.99;
    max_ms;
  }

let report_json r =
  Json.Obj
    [ "schema", Json.Str "scanatpg-load/1";
      "offered_rps", Json.Float r.offered_rps;
      "duration_s", Json.Float r.duration_s;
      "sent", Json.Int r.sent;
      "completed", Json.Int r.completed;
      "lost", Json.Int r.lost;
      "achieved_rps", Json.Float r.achieved_rps;
      ( "by_status",
        Json.Obj (List.map (fun (s, n) -> s, Json.Int n) r.by_status) );
      ( "latency_ms",
        Json.Obj
          [ "p50", Json.Float r.p50_ms;
            "p90", Json.Float r.p90_ms;
            "p95", Json.Float r.p95_ms;
            "p99", Json.Float r.p99_ms;
            "max", Json.Float r.max_ms ] ) ]

let print_report r =
  Printf.eprintf
    "scanatpg load: offered %.1f rps for %.1fs: sent %d, completed %d, lost \
     %d (achieved %.1f rps)\n"
    r.offered_rps r.duration_s r.sent r.completed r.lost r.achieved_rps;
  List.iter
    (fun (s, n) -> Printf.eprintf "scanatpg load:   %-14s %d\n" s n)
    r.by_status;
  Printf.eprintf
    "scanatpg load: latency p50 %.1fms p90 %.1fms p95 %.1fms p99 %.1fms max \
     %.1fms\n%!"
    r.p50_ms r.p90_ms r.p95_ms r.p99_ms r.max_ms
