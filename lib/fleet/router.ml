module Protocol = Server.Protocol
module Conn = Server.Conn
module Daemon = Server.Daemon
module Cache = Server.Cache
module Json = Obs.Json

type config = {
  addr : Daemon.addr;
  shards : int;
  launcher : Shard.launcher;
  result_cache_capacity : int;
  drain_grace_s : float;
  chaos : string option;
  metrics_path : string option;
  install_signals : bool;
  verbose : bool;
}

let default_config addr ~shards ~launcher =
  {
    addr;
    shards = max 1 shards;
    launcher;
    result_cache_capacity = 256;
    drain_grace_s = 5.0;
    chaos = None;
    metrics_path = None;
    install_signals = true;
    verbose = false;
  }

(* Supervision constants (DESIGN.md §15). *)
let max_inflight = 64  (* per client connection, as the daemon's default *)
let backlog_depth = 64  (* requests queued behind one down shard *)
let dispatch_attempts = 3  (* deliveries per request across restarts *)
let restart_backoff_ms = 100
let restart_backoff_max_ms = 5000
let connect_timeout_s = 10.0  (* spawn-to-connectable deadline *)
let health_period_s = 2.0
let health_timeout_s = 10.0

(* Shard [i] listens on [<base>.shard<i>], [<base>] the router's socket
   path (or a name derived from its TCP address). *)
let shard_socket addr i =
  let base =
    match addr with
    | Daemon.Unix_sock path -> path
    | Daemon.Tcp (host, port) -> Printf.sprintf "scanatpg-%s-%d" host port
  in
  Printf.sprintf "%s.shard%d" base i

(* --------------------------------------------------------------- state *)

type pkind =
  | Client of {
      client : Conn.t;
      client_id : int;
      ckey : string option;  (* result-cache key; [None] = do not insert *)
      enq_ns : int;
    }
  | Probe

type pend = {
  p_body : string;  (* canonical request under the serial id; redispatchable *)
  p_shard : int;
  p_kind : pkind;
  mutable p_attempts : int;  (* deliveries so far *)
}

type shard_state = {
  s_idx : int;
  s_socket : string;
  mutable s_proc : Shard.proc option;
  mutable s_fd : Unix.file_descr option;
  mutable s_dec : Protocol.decoder;
  s_inflight : int Queue.t;  (* serials delivered, awaiting responses *)
  s_backlog : int Queue.t;  (* serials awaiting (re)delivery *)
  mutable s_up : bool;
  mutable s_started : bool;  (* first spawn happened (restart accounting) *)
  mutable s_next_attempt : float;
  mutable s_backoff_ms : int;
  mutable s_restarts : int;
  mutable s_spawned : float;
  mutable s_probe : int option;  (* outstanding health-probe serial *)
  mutable s_probe_sent : float;
  mutable s_last_probe : float;
}

type state = {
  cfg : config;
  fp : Obs.Failpoint.t;
  metrics : Obs.Metrics.t;  (* router loop only; no locking needed *)
  rc : Result_cache.t;
  pending : (int, pend) Hashtbl.t;
  shards : shard_state array;
  mutable serial : int;
  mutable next_cid : int;
  mutable draining : bool;
  drain_flag : bool Atomic.t;
}

let say st fmt =
  Printf.ksprintf
    (fun s ->
      if st.cfg.verbose then Printf.eprintf "scanatpg router: %s\n%!" s)
    fmt

let bump st name n = Obs.Counters.add (Obs.Metrics.counters st.metrics) name n
let observe st name v = Obs.Metrics.observe st.metrics name v

(* One routed request fully settled (answered or its connection gone). *)
let complete st serial conn =
  Hashtbl.remove st.pending serial;
  bump st "server.inflight" (-1);
  Conn.finish conn

(* -------------------------------------------------- shard supervision *)

let remove_serial q serial =
  let n = Queue.length q in
  for _ = 1 to n do
    let s = Queue.pop q in
    if s <> serial then Queue.push s q
  done

let give_up st serial p =
  match p.p_kind with
  | Probe -> Hashtbl.remove st.pending serial
  | Client c ->
    bump st "router.internal_error" 1;
    Conn.send c.client
      (Protocol.error_response ~id:c.client_id "internal_error"
         (Printf.sprintf "shard %d unavailable after %d deliveries" p.p_shard
            p.p_attempts));
    complete st serial c.client

(* Redispatch is safe by the purity contract: a lost delivery re-executes
   the identical canonical request and yields byte-identical bytes.  The
   attempts cap stops a request that kills its shard from crash-looping
   the fleet forever. *)
let requeue st sh serial p =
  if p.p_attempts >= dispatch_attempts then give_up st serial p
  else begin
    if p.p_attempts > 0 then bump st "router.redispatched" 1;
    Queue.push serial sh.s_backlog
  end

let kill_proc sh =
  match sh.s_proc with
  | Some proc -> Shard.kill proc
  | None -> ()

(* The shard is gone (process death, connection EOF, write failure,
   health timeout): tear down the connection, move its in-flight serials
   back to the backlog for redelivery after restart, and schedule the
   respawn with exponential backoff. *)
let shard_down st sh reason =
  if sh.s_up || sh.s_fd <> None then
    say st "shard %d down (%s); %d in flight requeued" sh.s_idx reason
      (Queue.length sh.s_inflight);
  (match sh.s_fd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  sh.s_fd <- None;
  sh.s_up <- false;
  (* a half-dead shard (live process, dead connection) is killed so the
     respawn converges on one process per shard socket *)
  (match sh.s_proc with
  | Some proc when Shard.alive proc -> kill_proc sh
  | _ -> ());
  (match sh.s_probe with
  | Some serial ->
    Hashtbl.remove st.pending serial;
    remove_serial sh.s_inflight serial;
    sh.s_probe <- None
  | None -> ());
  while not (Queue.is_empty sh.s_inflight) do
    let serial = Queue.pop sh.s_inflight in
    match Hashtbl.find_opt st.pending serial with
    | Some p -> requeue st sh serial p
    | None -> ()
  done;
  let now = Unix.gettimeofday () in
  sh.s_next_attempt <- now +. (float_of_int sh.s_backoff_ms /. 1000.0);
  sh.s_backoff_ms <- min (sh.s_backoff_ms * 2) restart_backoff_max_ms

(* Deliver one pending serial to its shard.  The [shard] failpoint
   models an injected shard crash on the dispatch path: the target's
   process is killed outright, and the request rides the ordinary
   redispatch machinery. *)
let rec dispatch st sh serial =
  match Hashtbl.find_opt st.pending serial with
  | None -> ()
  | Some p -> (
    (match Obs.Failpoint.hit st.fp "shard" with
    | () -> ()
    | exception (Obs.Failpoint.Injected _ | Obs.Failpoint.Crashed _) ->
      bump st "router.shard_kills" 1;
      say st "injected crash of shard %d" sh.s_idx;
      kill_proc sh);
    match sh.s_fd with
    | None -> Queue.push serial sh.s_backlog
    | Some fd -> (
      p.p_attempts <- p.p_attempts + 1;
      match Protocol.write_frame fd p.p_body with
      | () ->
        Queue.push serial sh.s_inflight;
        bump st "router.dispatched" 1
      | exception _ ->
        shard_down st sh "write failed";
        requeue st sh serial p))

and flush_backlog st sh =
  while sh.s_up && not (Queue.is_empty sh.s_backlog) do
    dispatch st sh (Queue.pop sh.s_backlog)
  done

let try_restart st sh now =
  if not sh.s_up then begin
    (match sh.s_proc with
    | Some p when Shard.alive p ->
      (* spawned but not yet connectable; enforce the connect timeout *)
      if now -. sh.s_spawned > connect_timeout_s then begin
        say st "shard %d failed to come up in %.1fs, killing" sh.s_idx
          connect_timeout_s;
        kill_proc sh
      end
    | _ ->
      if now >= sh.s_next_attempt then begin
        (match sh.s_proc with Some p -> Shard.reap p | None -> ());
        if sh.s_started then begin
          sh.s_restarts <- sh.s_restarts + 1;
          bump st "router.shard_restarts" 1
        end;
        sh.s_started <- true;
        sh.s_spawned <- now;
        say st "spawning shard %d on %s" sh.s_idx sh.s_socket;
        sh.s_proc <-
          Some (Shard.spawn st.cfg.launcher ~idx:sh.s_idx ~socket:sh.s_socket)
      end);
    match sh.s_proc with
    | Some p when Shard.alive p -> (
      match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error _ -> ()
      | fd -> (
        match Unix.connect fd (Unix.ADDR_UNIX sh.s_socket) with
        | () ->
          sh.s_fd <- Some fd;
          sh.s_dec <- Protocol.decoder ();
          sh.s_up <- true;
          sh.s_last_probe <- now;
          say st "shard %d up (%d backlogged)" sh.s_idx
            (Queue.length sh.s_backlog);
          flush_backlog st sh
        | exception Unix.Unix_error _ ->
          (try Unix.close fd with Unix.Unix_error _ -> ())))
    | _ -> ()
  end

let issue_probe st sh now =
  let serial = st.serial in
  st.serial <- serial + 1;
  let body = Printf.sprintf "{\"id\":%d,\"op\":\"stats\"}" serial in
  Hashtbl.replace st.pending serial
    { p_body = body; p_shard = sh.s_idx; p_kind = Probe; p_attempts = 0 };
  sh.s_probe <- Some serial;
  sh.s_probe_sent <- now;
  sh.s_last_probe <- now;
  bump st "router.probes" 1;
  dispatch st sh serial

let supervise st now =
  Array.iter
    (fun sh ->
      (* a SIGKILLed / exited shard process is noticed here even when no
         read on its connection is pending *)
      (match sh.s_proc with
      | Some p when sh.s_up && not (Shard.alive p) ->
        shard_down st sh "process exited"
      | _ -> ());
      if sh.s_up then begin
        match sh.s_probe with
        | Some _ when now -. sh.s_probe_sent > health_timeout_s ->
          bump st "router.health_timeouts" 1;
          say st "shard %d health probe timed out" sh.s_idx;
          kill_proc sh;
          shard_down st sh "health timeout"
        | Some _ -> ()
        | None ->
          if now -. sh.s_last_probe >= health_period_s then
            issue_probe st sh now
      end
      else try_restart st sh now)
    st.shards

(* --------------------------------------------------- response plumbing *)

(* Responses carry ["status"] as the field right after [id]/[op] (or
   right after [id] for typed errors), so the first occurrence of the
   key names the response status — no payload string can shadow it
   earlier. *)
let find_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then None
    else if String.sub hay i nn = needle then Some i
    else go (i + 1)
  in
  go 0

let status_is_ok suffix =
  match find_sub suffix "\"status\":\"" with
  | None -> false
  | Some i ->
    let j = i + String.length "\"status\":\"" in
    j + 3 <= String.length suffix && String.sub suffix j 3 = "ok\""

let handle_shard_frame st sh payload =
  match Result_cache.split_id payload with
  | None -> bump st "router.bad_response" 1
  | Some (serial, suffix) -> (
    remove_serial sh.s_inflight serial;
    match Hashtbl.find_opt st.pending serial with
    | None -> ()  (* settled while the shard was being restarted *)
    | Some p -> (
      match p.p_kind with
      | Probe ->
        Hashtbl.remove st.pending serial;
        sh.s_probe <- None;
        (* a healthy probe round-trip proves the shard stable: reset the
           restart backoff to its base *)
        sh.s_backoff_ms <- restart_backoff_ms;
        bump st "router.probes_ok" 1
      | Client c ->
        (match c.ckey with
        | Some key when status_is_ok suffix ->
          Result_cache.add st.rc ~key ~suffix
        | _ -> ());
        Conn.send c.client (Result_cache.splice_id ~id:c.client_id suffix);
        observe st "server.e2e_ns" (Obs.Clock.now_ns () - c.enq_ns);
        complete st serial c.client))

let shard_fds st =
  Array.to_list st.shards |> List.filter_map (fun sh -> sh.s_fd)

(* One readable tick of every shard connection in [ready]. *)
let read_shards st ready buf =
  Array.iter
    (fun sh ->
      match sh.s_fd with
      | Some fd when List.mem fd ready -> (
        match
          Protocol.pump sh.s_dec fd buf ~on_frame:(handle_shard_frame st sh)
        with
        | Protocol.Open -> ()
        | Protocol.Eof -> shard_down st sh "connection closed"
        | Protocol.Oversized _ -> shard_down st sh "oversized response frame")
      | _ -> ())
    st.shards

(* ------------------------------------------------------------ requests *)

let shard_of st (c : Protocol.compute) =
  (* the same FNV-1a content key the compiled-circuit cache uses, so a
     circuit's requests pin to one shard and keep its LRU slice hot *)
  let key =
    Cache.key_of c.Protocol.src ~scale:c.Protocol.scale
      ~chains:c.Protocol.chains
  in
  let h = Prng.Rng.fnv1a64 key in
  Int64.to_int (Int64.rem (Int64.logand h Int64.max_int)
                  (Int64.of_int st.cfg.shards))

let shards_json st =
  Json.Arr
    (Array.to_list
       (Array.map
          (fun sh ->
            Json.Obj
              [ "shard", Json.Int sh.s_idx;
                "socket", Json.Str sh.s_socket;
                "up", Json.Bool sh.s_up;
                "restarts", Json.Int sh.s_restarts;
                "inflight", Json.Int (Queue.length sh.s_inflight);
                "backlog", Json.Int (Queue.length sh.s_backlog) ])
          st.shards))

(* The stats op answers from the router's own metrics plane in the
   daemon's document shape (so `scanatpg top` works unchanged), plus a
   [result_cache] section and a per-shard supervision table.  Like the
   daemon's, the payload reports live state and is the documented
   exception to byte-determinism. *)
let stats_payload st ~id ~prom =
  let rs = Result_cache.stats st.rc in
  Protocol.stats_response ~id ~prom
    ~extra:
      [ ( "result_cache",
          Json.Obj
            [ "entries", Json.Int (Result_cache.length st.rc);
              "capacity", Json.Int (Result_cache.capacity st.rc);
              "hits", Json.Int rs.Result_cache.hits;
              "misses", Json.Int rs.Result_cache.misses;
              "insertions", Json.Int rs.Result_cache.insertions;
              "evictions", Json.Int rs.Result_cache.evictions ] );
        "shards", shards_json st ]
    st.metrics

let reject st conn ~id reason =
  bump st "router.overloaded" 1;
  Conn.send conn (Protocol.error_response ~id "overloaded" reason)

let admit st conn (req : Protocol.request) (c : Protocol.compute) =
  let id = req.Protocol.id in
  if st.draining then reject st conn ~id "router is draining"
  else if Conn.inflight conn >= max_inflight then
    reject st conn ~id "connection in-flight cap reached"
  else begin
    let ckey = Protocol.canonical_of_request ~id:0 ~drop_jobs:true req in
    match Result_cache.find st.rc ~key:ckey with
    | Some suffix ->
      bump st "server.result_hit" 1;
      bump st "server.accepted" 1;
      let t0 = Obs.Clock.now_ns () in
      Conn.send conn (Result_cache.splice_id ~id suffix);
      observe st "server.e2e_ns" (Obs.Clock.now_ns () - t0)
    | None -> (
      bump st "server.result_miss" 1;
      let idx = shard_of st c in
      let sh = st.shards.(idx) in
      if
        (not sh.s_up)
        && Queue.length sh.s_backlog >= backlog_depth
      then reject st conn ~id (Printf.sprintf "shard %d backlog is full" idx)
      else begin
        let serial = st.serial in
        st.serial <- serial + 1;
        let body = Protocol.canonical_of_request ~id:serial req in
        Hashtbl.replace st.pending serial
          {
            p_body = body;
            p_shard = idx;
            p_kind =
              Client
                {
                  client = conn;
                  client_id = id;
                  ckey = Some ckey;
                  enq_ns = Obs.Clock.now_ns ();
                };
            p_attempts = 0;
          };
        Conn.admit conn;
        bump st "server.accepted" 1;
        bump st "server.inflight" 1;
        if sh.s_up then dispatch st sh serial
        else Queue.push serial sh.s_backlog
      end)
  end

let handle_payload st conn payload =
  match Protocol.request_of_string payload with
  | exception Protocol.Bad_request msg ->
    bump st "router.bad_request" 1;
    Conn.send conn
      (Protocol.error_response ~id:(Protocol.salvage_id payload) "error" msg)
  | req -> (
    let id = req.Protocol.id in
    match req.Protocol.op with
    (* Admin ops are answered by the router itself and bypass the result
       cache: ping for byte-stable liveness, stats for the router's own
       live counters, chaos to arm the router's failpoints, shutdown to
       start the fanned-out drain. *)
    | Protocol.Ping ->
      bump st "server.accepted" 1;
      Conn.send conn (Protocol.ok_response ~id "ping")
    | Protocol.Stats { prom } ->
      bump st "server.accepted" 1;
      Conn.send conn (stats_payload st ~id ~prom)
    | Protocol.Chaos { spec } -> (
      bump st "server.accepted" 1;
      let configured =
        match spec with
        | None -> Ok ()
        | Some s -> (
          try Ok (Obs.Failpoint.configure st.fp s)
          with Invalid_argument msg -> Error msg)
      in
      match configured with
      | Error msg ->
        bump st "router.bad_request" 1;
        Conn.send conn (Protocol.error_response ~id "error" msg)
      | Ok () -> Conn.send conn (Protocol.chaos_response ~id st.fp))
    | Protocol.Shutdown ->
      bump st "server.accepted" 1;
      Conn.send conn (Protocol.ok_response ~id "shutdown");
      say st "shutdown requested";
      Atomic.set st.drain_flag true
    | Protocol.Generate { c; _ } | Protocol.Compact { c; _ }
    | Protocol.Table { c } ->
      admit st conn req c)

(* ----------------------------------------------------------- lifecycle *)

let client_pending st =
  Hashtbl.fold
    (fun _ p n -> match p.p_kind with Client _ -> n + 1 | Probe -> n)
    st.pending 0

(* Fanned-out drain: stop accepting, run the in-flight requests down
   (restarts included — a request backlogged behind a dead shard still
   gets its answer if the respawn beats the grace deadline), then send
   every live shard a shutdown frame and collect every shard process
   before the router itself exits. *)
let drain st conns listen_fd buf =
  st.draining <- true;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  say st "draining: %d request(s) in flight, grace %.1fs" (client_pending st)
    st.cfg.drain_grace_s;
  let deadline = Unix.gettimeofday () +. st.cfg.drain_grace_s in
  while client_pending st > 0 && Unix.gettimeofday () < deadline do
    let now = Unix.gettimeofday () in
    supervise st now;
    match Unix.select (shard_fds st) [] [] 0.05 with
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> ()
    | ready, _, _ -> read_shards st ready buf
  done;
  (* answer whatever could not be completed inside the grace window *)
  let leftovers =
    Hashtbl.fold (fun serial p acc -> (serial, p) :: acc) st.pending []
  in
  List.iter
    (fun (serial, p) ->
      match p.p_kind with
      | Probe -> Hashtbl.remove st.pending serial
      | Client c ->
        bump st "router.internal_error" 1;
        Conn.send c.client
          (Protocol.error_response ~id:c.client_id "internal_error"
             "router drained before the shard answered");
        complete st serial c.client)
    leftovers;
  (* fan the shutdown out to every shard, then collect the processes *)
  Array.iter
    (fun sh ->
      (match sh.s_fd with
      | Some fd ->
        (try Protocol.write_frame fd "{\"id\":0,\"op\":\"shutdown\"}"
         with _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        sh.s_fd <- None
      | None -> kill_proc sh);
      sh.s_up <- false)
    st.shards;
  Array.iter
    (fun sh ->
      match sh.s_proc with
      | None -> ()
      | Some proc ->
        let kill_at = Unix.gettimeofday () +. st.cfg.drain_grace_s in
        while Shard.alive proc && Unix.gettimeofday () < kill_at do
          Unix.sleepf 0.02
        done;
        if Shard.alive proc then Shard.kill proc;
        Shard.reap proc;
        (try Unix.unlink sh.s_socket with Unix.Unix_error _ -> ()))
    st.shards;
  List.iter Conn.close conns;
  (match st.cfg.metrics_path with
  | None -> ()
  | Some path -> Obs.Metrics.write_file st.metrics path);
  (match st.cfg.addr with
  | Daemon.Unix_sock path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | Daemon.Tcp _ -> ());
  say st "drained";
  0

let run cfg =
  let fp = Obs.Failpoint.create () in
  (match cfg.chaos with
  | None -> ()
  | Some spec -> Obs.Failpoint.configure fp spec);
  let st =
    {
      cfg;
      fp;
      metrics = Obs.Metrics.create ();
      rc = Result_cache.create ~capacity:cfg.result_cache_capacity;
      pending = Hashtbl.create 64;
      shards =
        Array.init cfg.shards (fun i ->
            {
              s_idx = i;
              s_socket = shard_socket cfg.addr i;
              s_proc = None;
              s_fd = None;
              s_dec = Protocol.decoder ();
              s_inflight = Queue.create ();
              s_backlog = Queue.create ();
              s_up = false;
              s_started = false;
              s_next_attempt = 0.0;
              s_backoff_ms = restart_backoff_ms;
              s_restarts = 0;
              s_spawned = 0.0;
              s_probe = None;
              s_probe_sent = 0.0;
              s_last_probe = 0.0;
            });
      serial = 0;
      next_cid = 0;
      draining = false;
      drain_flag = Atomic.make false;
    }
  in
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  if cfg.install_signals then begin
    let h = Sys.Signal_handle (fun _ -> Atomic.set st.drain_flag true) in
    ignore (Sys.signal Sys.sigterm h);
    ignore (Sys.signal Sys.sigint h)
  end;
  let listen_fd = Daemon.listen_socket cfg.addr in
  say st "routing %d shard(s), result cache capacity %d" cfg.shards
    cfg.result_cache_capacity;
  let buf = Bytes.create 65536 in
  let rec loop conns =
    if Atomic.get st.drain_flag then conns
    else begin
      let conns = List.filter Conn.alive conns in
      supervise st (Unix.gettimeofday ());
      let cfds =
        List.filter_map
          (fun (c : Conn.t) -> if c.eof then None else Some c.fd)
          conns
      in
      match Unix.select ((listen_fd :: cfds) @ shard_fds st) [] [] 0.1 with
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) ->
        loop conns
      | ready, _, _ ->
        let conns =
          if not (List.mem listen_fd ready) then conns
          else
            match
              Conn.accept ~fp:st.fp
                ~count:(fun k -> bump st ("router." ^ k) 1)
                ~cid:(st.next_cid + 1) listen_fd
            with
            | None -> conns
            | Some c ->
              st.next_cid <- c.cid;
              say st "client connection %d" c.cid;
              c :: conns
        in
        read_shards st ready buf;
        List.iter
          (fun (c : Conn.t) ->
            if List.mem c.fd ready then
              Conn.read c buf ~on_frame:(handle_payload st c))
          conns;
        loop conns
    end
  in
  let conns = loop [] in
  drain st conns listen_fd buf
