type addr =
  | Unix_sock of string
  | Tcp of string * int

type trace_format =
  | Jsonl
  | Chrome

type config = {
  addr : addr;
  jobs : int;
  queue_depth : int;
  cache_capacity : int;
  default_scale : Circuits.Profiles.scale;
  access_log : string option;
  metrics_path : string option;
  trace_path : string option;
  trace_format : trace_format;
  slow_ms : int option;
  drain_grace_s : float;
  idle_timeout_s : float option;
  read_deadline_s : float option;
  max_inflight : int;
  chaos : string option;
  install_signals : bool;
  verbose : bool;
}

let default_config addr =
  {
    addr;
    jobs = 1;
    queue_depth = 16;
    cache_capacity = 8;
    default_scale = Circuits.Profiles.Quick;
    access_log = None;
    metrics_path = None;
    trace_path = None;
    trace_format = Jsonl;
    slow_ms = None;
    drain_grace_s = 5.0;
    idle_timeout_s = None;
    read_deadline_s = Some 30.0;
    max_inflight = 64;
    chaos = None;
    install_signals = true;
    verbose = false;
  }

type job = {
  conn : Conn.t;
  req : Protocol.request;
  budget : Obs.Budget.t;
  trace_id : string;
  enq_ns : int;  (* Obs.Clock.now_ns at admission *)
  bytes_in : int;  (* request frame size (header + payload) *)
}

type state = {
  cfg : config;
  svc : Service.t;
  qmu : Mutex.t;
  qcv : Condition.t;
  queue : (int * job) Queue.t;  (* guarded by qmu *)
  mutable draining : bool;  (* guarded by qmu *)
  active : (int, Obs.Budget.t) Hashtbl.t;  (* guarded by qmu *)
  mutable serial : int;  (* guarded by qmu *)
  mutable next_cid : int;  (* accept loop only *)
  unfinished : int Atomic.t;
  drain_flag : bool Atomic.t;
  logmu : Mutex.t;
  log : out_channel option;  (* line-buffered; writes guarded by logmu *)
  trmu : Mutex.t;
  trace : Obs.Trace.t;  (* global collector; merges guarded by trmu *)
  fp : Obs.Failpoint.t;  (* chaos sites; reconfigurable via the chaos op *)
}

let say st fmt =
  Printf.ksprintf
    (fun s -> if st.cfg.verbose then Printf.eprintf "scanatpg serve: %s\n%!" s)
    fmt

(* One access-log line per request, written and flushed immediately so
   [tail -f] follows a live daemon.  The log is the one CLI-written file
   that bypasses {!Obs.Fileio}'s atomic temp+rename: a log that only
   appears at drain is useless for watching a server.  A slow request
   ([--slow-ms]) carries its full span tree in a [spans] field. *)
let log_line st ~id ~peer ~trace_id ?(queue_wait_ns = 0) ?(service_ns = 0)
    ?(bytes_in = 0) ?(bytes_out = 0) ?spans (meta : Service.meta) =
  match st.log with
  | None -> ()
  | Some oc ->
    let line =
      Obs.Json.to_string
        (Obs.Json.Obj
           ([
              ("id", Obs.Json.Int id);
              ("op", Obs.Json.Str meta.Service.op);
              ("circuit", Obs.Json.Str meta.Service.circuit);
              ("status", Obs.Json.Str meta.Service.status);
              ("cache", Obs.Json.Str meta.Service.cache);
              ("peer", Obs.Json.Str peer);
              ("trace_id", Obs.Json.Str trace_id);
              ("queue_wait_ns", Obs.Json.Int queue_wait_ns);
              ("service_ns", Obs.Json.Int service_ns);
              ("bytes_in", Obs.Json.Int bytes_in);
              ("bytes_out", Obs.Json.Int bytes_out);
            ]
           @ match spans with None -> [] | Some s -> [ ("spans", s) ]))
    in
    Mutex.lock st.logmu;
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Mutex.unlock st.logmu

(* One compute response fully delivered (or its connection is gone). *)
let finish_one st serial conn =
  Mutex.lock st.qmu;
  Hashtbl.remove st.active serial;
  Mutex.unlock st.qmu;
  Service.bump st.svc "server.inflight" (-1);
  Conn.finish conn;
  ignore (Atomic.fetch_and_add st.unfinished (-1))

(* One compute job: latency accounting and per-request tracing around
   {!Service.execute}.  The per-request collector is single-domain (this
   worker alone touches it); it folds into the daemon's global collector
   under [trmu] once the response is on the wire — the same
   merge-at-phase-boundary discipline the counter records follow, so the
   traced hot path stays lock-free. *)
let run_job st serial job =
  let deq_ns = Obs.Clock.now_ns () in
  let queue_wait_ns = deq_ns - job.enq_ns in
  let rt =
    if Obs.Trace.enabled st.trace || st.cfg.slow_ms <> None then
      Obs.Trace.create ()
    else Obs.Trace.null
  in
  let payload, meta =
    Obs.Trace.with_span rt
      ~attrs:
        [ ("trace_id", job.trace_id);
          ("op", Protocol.op_name job.req.Protocol.op) ]
      "request"
      (fun () ->
        Obs.Failpoint.hit st.fp "worker";
        Service.execute st.svc ~budget:job.budget ~trace:rt job.req)
  in
  let service_ns = Obs.Clock.now_ns () - deq_ns in
  Conn.send job.conn payload;
  let e2e_ns = Obs.Clock.now_ns () - job.enq_ns in
  Service.observe st.svc "server.queue_wait_ns" queue_wait_ns;
  Service.observe st.svc "server.service_ns" service_ns;
  Service.observe st.svc ("server.service_ns." ^ meta.Service.op) service_ns;
  Service.observe st.svc "server.e2e_ns" e2e_ns;
  let slow =
    match st.cfg.slow_ms with
    | Some ms -> e2e_ns > ms * 1_000_000
    | None -> false
  in
  if slow then Service.bump st.svc "server.slow_requests" 1;
  log_line st ~id:job.req.Protocol.id ~peer:job.conn.Conn.peer
    ~trace_id:job.trace_id ~queue_wait_ns ~service_ns ~bytes_in:job.bytes_in
    ~bytes_out:(String.length payload + 4)
    ?spans:
      (if slow && Obs.Trace.enabled rt then Some (Obs.Trace.tree_json rt)
       else None)
    meta;
  if Obs.Trace.enabled st.trace then begin
    Mutex.lock st.trmu;
    Obs.Trace.merge_into ~src:rt ~dst:st.trace ();
    Mutex.unlock st.trmu
  end;
  finish_one st serial job.conn

(* Crash containment: an exception escaping a job — an injected crash, a
   bug in {!Service.execute}'s error mapping, a failed trace merge —
   becomes a typed [internal_error] response and a restarted worker
   loop, never a dead domain that would starve the queue and hang the
   drain.  The request's accounting is settled exactly once either way. *)
let contain st serial job e =
  let msg =
    match e with
    | Obs.Failpoint.Crashed site ->
      Printf.sprintf "worker crashed (injected at %s)" site
    | Obs.Failpoint.Injected site ->
      Printf.sprintf "injected fault at %s" site
    | e -> Printf.sprintf "worker crashed: %s" (Printexc.to_string e)
  in
  (match e with
  | Obs.Failpoint.Injected _ -> ()
  | _ -> Service.bump st.svc "server.worker_restarts" 1);
  Service.bump st.svc "server.internal_error" 1;
  Conn.send job.conn
    (Protocol.error_response ~id:job.req.Protocol.id "internal_error" msg);
  log_line st ~id:job.req.Protocol.id ~peer:job.conn.Conn.peer
    ~trace_id:job.trace_id ~bytes_in:job.bytes_in
    {
      Service.status = "internal_error";
      op = Protocol.op_name job.req.Protocol.op;
      circuit = "-";
      cache = "-";
    };
  finish_one st serial job.conn

let worker st =
  let rec loop () =
    Mutex.lock st.qmu;
    while Queue.is_empty st.queue && not st.draining do
      Condition.wait st.qcv st.qmu
    done;
    if Queue.is_empty st.queue then Mutex.unlock st.qmu
    else begin
      let serial, job = Queue.pop st.queue in
      Mutex.unlock st.qmu;
      (try run_job st serial job with e -> contain st serial job e);
      loop ()
    end
  in
  loop ()

let compute_of_op = function
  | Protocol.Generate { c; _ } | Protocol.Compact { c; _ } | Protocol.Table { c }
    ->
    Some c
  | Protocol.Ping | Protocol.Stats _ | Protocol.Shutdown | Protocol.Chaos _ ->
    None

let circuit_label (c : Protocol.compute) =
  match c.Protocol.src with
  | Protocol.Catalog name -> name
  | Protocol.Bench _ -> "bench"

let request_drain st =
  Mutex.lock st.qmu;
  st.draining <- true;
  Condition.broadcast st.qcv;
  Mutex.unlock st.qmu;
  Atomic.set st.drain_flag true

let handle_payload st (conn : Conn.t) payload =
  (* Trace ids are deterministic per connection: [c<cid>-r<n>] — every
     request on a connection shares the [c<cid>] prefix, and [n] counts
     its frames in arrival order. *)
  let trace_id = Printf.sprintf "c%d-r%d" conn.cid conn.frames in
  let bytes_in = String.length payload + 4 in
  let enq_ns = Obs.Clock.now_ns () in
  match Protocol.request_of_string payload with
  | exception Protocol.Bad_request msg ->
    let id = Protocol.salvage_id payload in
    Service.bump st.svc "server.bad_request" 1;
    let resp = Protocol.error_response ~id "error" msg in
    Conn.send conn resp;
    log_line st ~id ~peer:conn.peer ~trace_id ~bytes_in
      ~bytes_out:(String.length resp + 4)
      { Service.status = "error"; op = "?"; circuit = "-"; cache = "-" }
  | req -> (
    match compute_of_op req.Protocol.op with
    | None ->
      (* Admin ops answer inline: they must stay responsive while every
         worker is busy, and shutdown must not queue behind the very work
         it is asked to drain.  They never wait in the queue, so their
         queue-wait is zero by construction. *)
      Service.bump st.svc "server.accepted" 1;
      let resp, meta =
        Service.execute st.svc ~budget:(Obs.Budget.create ()) req
      in
      Conn.send conn resp;
      let service_ns = Obs.Clock.now_ns () - enq_ns in
      Service.observe st.svc "server.queue_wait_ns" 0;
      Service.observe st.svc "server.service_ns" service_ns;
      Service.observe st.svc ("server.service_ns." ^ meta.Service.op) service_ns;
      Service.observe st.svc "server.e2e_ns" service_ns;
      log_line st ~id:req.Protocol.id ~peer:conn.peer ~trace_id ~service_ns
        ~bytes_in ~bytes_out:(String.length resp + 4) meta;
      if req.Protocol.op = Protocol.Shutdown then begin
        say st "shutdown requested by %s" conn.peer;
        request_drain st
      end
    | Some c ->
      (* The queue site models a fault in the hand-off itself (admission
         raced a reconfiguration, a delayed signal, …): the request gets
         a typed [internal_error] and never reaches the queue, so its
         accounting needs no unwinding. *)
      let queue_fault =
        match Obs.Failpoint.hit st.fp "queue" with
        | () -> false
        | exception (Obs.Failpoint.Injected _ | Obs.Failpoint.Crashed _) ->
          true
      in
      if queue_fault then begin
        Service.bump st.svc "server.internal_error" 1;
        let resp =
          Protocol.error_response ~id:req.Protocol.id "internal_error"
            "injected fault at queue"
        in
        Conn.send conn resp;
        log_line st ~id:req.Protocol.id ~peer:conn.peer ~trace_id ~bytes_in
          ~bytes_out:(String.length resp + 4)
          {
            Service.status = "internal_error";
            op = Protocol.op_name req.Protocol.op;
            circuit = circuit_label c;
            cache = "-";
          }
      end
      else begin
      let conn_inflight = Conn.inflight conn in
      Mutex.lock st.qmu;
      let reject reason =
        Mutex.unlock st.qmu;
        Service.bump st.svc "server.rejected" 1;
        let resp =
          Protocol.error_response ~id:req.Protocol.id "overloaded" reason
        in
        Conn.send conn resp;
        log_line st ~id:req.Protocol.id ~peer:conn.peer ~trace_id ~bytes_in
          ~bytes_out:(String.length resp + 4)
          {
            Service.status = "overloaded";
            op = Protocol.op_name req.Protocol.op;
            circuit = circuit_label c;
            cache = "-";
          }
      in
      if st.draining then reject "daemon is draining"
      else if conn_inflight >= st.cfg.max_inflight then
        (* Per-connection fairness: one pipelining client must not be
           able to claim the whole queue. *)
        reject "connection in-flight cap reached"
      else if Queue.length st.queue >= st.cfg.queue_depth then
        reject "request queue is full"
      else begin
        let budget =
          Obs.Budget.create ?deadline_s:c.Protocol.deadline_s
            ?max_backtracks:c.Protocol.max_backtracks ()
        in
        let serial = st.serial in
        st.serial <- serial + 1;
        Hashtbl.replace st.active serial budget;
        ignore (Atomic.fetch_and_add st.unfinished 1);
        Queue.push (serial, { conn; req; budget; trace_id; enq_ns; bytes_in })
          st.queue;
        Mutex.unlock st.qmu;
        Service.bump st.svc "server.accepted" 1;
        Service.bump st.svc "server.inflight" 1;
        Conn.admit conn;
        Condition.signal st.qcv
      end
      end)

(* Both listener and accepted fds are close-on-exec: a worker that
   shells out (or a future exec-based helper) must not hold the service
   port open past the daemon's own lifetime. *)
let listen_socket = function
  | Unix_sock path ->
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Tcp (host, port) ->
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
    Unix.listen fd 64;
    fd

let addr_to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let drain st conns listen_fd workers =
  Mutex.lock st.qmu;
  st.draining <- true;
  Condition.broadcast st.qcv;
  Mutex.unlock st.qmu;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  say st "draining: %d request(s) in flight, grace %.1fs"
    (Atomic.get st.unfinished) st.cfg.drain_grace_s;
  let deadline = Unix.gettimeofday () +. st.cfg.drain_grace_s in
  let tripped = ref false in
  while Atomic.get st.unfinished > 0 do
    if (not !tripped) && Unix.gettimeofday () >= deadline then begin
      tripped := true;
      Mutex.lock st.qmu;
      let n = Hashtbl.length st.active in
      Hashtbl.iter (fun _ b -> Obs.Budget.trip b Obs.Budget.Deadline) st.active;
      Mutex.unlock st.qmu;
      say st "grace elapsed: tripped %d in-flight budget(s)" n
    end;
    Unix.sleepf 0.02
  done;
  List.iter Domain.join workers;
  List.iter Conn.close conns;
  (match st.log with
  | None -> ()
  | Some oc ->
    Mutex.lock st.logmu;
    (try close_out oc with Sys_error _ -> ());
    Mutex.unlock st.logmu);
  (match st.cfg.metrics_path with
  | None -> ()
  | Some path -> Obs.Metrics.write_file (Service.metrics_snapshot st.svc) path);
  (match st.cfg.trace_path with
  | None -> ()
  | Some path -> (
    match st.cfg.trace_format with
    | Jsonl -> Obs.Trace.write_jsonl st.trace path
    | Chrome -> Obs.Trace.write_chrome st.trace path));
  (match st.cfg.addr with
  | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  say st "drained";
  0

let run cfg =
  (* The daemon always carries a live registry — an empty one costs one
     atomic load per site — so the [chaos] op can arm sites at runtime
     even when the daemon started without [--chaos]. *)
  let fp = Obs.Failpoint.create () in
  (match cfg.chaos with
  | None -> ()
  | Some spec -> Obs.Failpoint.configure fp spec);
  let st =
    {
      cfg;
      svc =
        Service.create ~cache_capacity:cfg.cache_capacity
          ~default_scale:cfg.default_scale ~failpoint:fp ();
      qmu = Mutex.create ();
      qcv = Condition.create ();
      queue = Queue.create ();
      draining = false;
      active = Hashtbl.create 16;
      serial = 0;
      next_cid = 0;
      unfinished = Atomic.make 0;
      drain_flag = Atomic.make false;
      logmu = Mutex.create ();
      log = Option.map open_out cfg.access_log;
      trmu = Mutex.create ();
      trace =
        (match cfg.trace_path with
         | Some _ -> Obs.Trace.create ()
         | None -> Obs.Trace.null);
      fp;
    }
  in
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  if cfg.install_signals then begin
    let h = Sys.Signal_handle (fun _ -> Atomic.set st.drain_flag true) in
    ignore (Sys.signal Sys.sigterm h);
    ignore (Sys.signal Sys.sigint h)
  end;
  let listen_fd = listen_socket cfg.addr in
  let workers = List.init cfg.jobs (fun _ -> Domain.spawn (fun () -> worker st)) in
  say st "listening on %s (%d worker%s, queue depth %d)"
    (addr_to_string cfg.addr) cfg.jobs
    (if cfg.jobs = 1 then "" else "s")
    cfg.queue_depth;
  let buf = Bytes.create 65536 in
  let count k = Service.bump st.svc ("server." ^ k) 1 in
  let rec loop conns =
    if Atomic.get st.drain_flag then conns
    else begin
      let conns = List.filter Conn.alive conns in
      let rfds =
        List.filter_map
          (fun (c : Conn.t) -> if c.eof then None else Some c.fd)
          conns
      in
      match Unix.select (listen_fd :: rfds) [] [] 0.1 with
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) ->
        loop conns
      | ready, _, _ ->
        let conns =
          if not (List.mem listen_fd ready) then conns
          else
            match
              Conn.accept ~fp:st.fp ~count ~cid:(st.next_cid + 1) listen_fd
            with
            | None -> conns
            | Some c -> (
              match Obs.Failpoint.hit st.fp "accept" with
              | exception (Obs.Failpoint.Injected _ | Obs.Failpoint.Crashed _)
                ->
                (* An injected accept failure drops the connection on
                   the floor — to the peer it looks like a reset, which
                   is exactly what the retrying client must survive. *)
                count "conn_aborted";
                Conn.close c;
                conns
              | () ->
                st.next_cid <- c.cid;
                say st "connection from %s" c.peer;
                c :: conns)
        in
        List.iter
          (fun (c : Conn.t) ->
            if List.mem c.fd ready then
              Conn.read c buf ~on_frame:(handle_payload st c))
          conns;
        (* Deadline sweep, once per select tick (so granularity is the
           select timeout, 100ms): a connection stuck mid-frame past the
           read deadline is a slowloris and is cut; a connection with no
           traffic, no partial frame and nothing in flight past the idle
           timeout is reclaimed.  Reads of [closed]/[inflight] here are
           benignly racy — a miss is caught on the next tick. *)
        let now = Obs.Clock.now_ns () in
        List.iter
          (fun (c : Conn.t) ->
            if (not c.eof) && not c.closed then begin
              (match st.cfg.read_deadline_s with
              | Some d
                when c.partial_ns > 0
                     && now - c.partial_ns > int_of_float (d *. 1e9) ->
                say st "read deadline (%.1fs) exceeded by %s, closing" d c.peer;
                Conn.abort c
              | _ -> ());
              match st.cfg.idle_timeout_s with
              | Some d
                when (not c.closed)
                     && c.partial_ns = 0 && c.inflight = 0
                     && now - c.last_ns > int_of_float (d *. 1e9) ->
                Service.bump st.svc "server.conn_idle_closed" 1;
                say st "idle timeout (%.1fs) for %s, closing" d c.peer;
                Conn.close c
              | _ -> ()
            end)
          conns;
        loop conns
    end
  in
  let conns = loop [] in
  drain st conns listen_fd workers
