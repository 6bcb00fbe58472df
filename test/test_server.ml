(* Service daemon: framing, request parsing, cache determinism, admission
   control and graceful drain (DESIGN.md #11). *)

module P = Server.Protocol
module J = Obs.Json

(* ------------------------------------------------------------- framing *)

let test_decoder_split_reads () =
  let payload = {|{"id":1,"op":"ping"}|} in
  let frame = P.encode_frame payload in
  let d = P.decoder () in
  (* one byte at a time: the frame must reassemble exactly once *)
  String.iteri
    (fun i c ->
      Alcotest.(check (option string))
        (Printf.sprintf "no frame before byte %d" i)
        None (P.next d);
      P.feed d (Bytes.make 1 c) 0 1)
    frame;
  Alcotest.(check (option string)) "frame complete" (Some payload) (P.next d);
  Alcotest.(check (option string)) "buffer drained" None (P.next d)

let test_decoder_coalesced_frames () =
  (* several frames arriving in one read must all pop, in order *)
  let payloads = [ "a"; {|{"op":"stats"}|}; ""; String.make 5000 'x' ] in
  let blob = String.concat "" (List.map P.encode_frame payloads) in
  let d = P.decoder () in
  P.feed d (Bytes.of_string blob) 0 (String.length blob);
  List.iter
    (fun p -> Alcotest.(check (option string)) "frame" (Some p) (P.next d))
    payloads;
  Alcotest.(check (option string)) "drained" None (P.next d)

let test_decoder_oversized_frame () =
  let d = P.decoder ~max_frame:64 () in
  (* announce 65 bytes: must raise on the header alone, before any payload *)
  let hdr = Bytes.of_string "\x00\x00\x00\x41" in
  P.feed d hdr 0 4;
  (match P.next d with
  | exception P.Frame_too_large { announced; max } ->
    Alcotest.(check int) "announced" 65 announced;
    Alcotest.(check int) "max" 64 max
  | _ -> Alcotest.fail "expected Frame_too_large");
  (* exactly at the limit is fine *)
  let d = P.decoder ~max_frame:64 () in
  let p = String.make 64 'y' in
  let f = P.encode_frame p in
  P.feed d (Bytes.of_string f) 0 (String.length f);
  Alcotest.(check (option string)) "at limit ok" (Some p) (P.next d)

let test_read_frame_exact () =
  (* Regression: two frames written back-to-back arrive in one kernel
     segment; read_frame must not consume bytes past the first frame
     (an over-reading implementation silently drops the second). *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let p1 = {|{"id":1}|} and p2 = {|{"id":2,"pad":"zzzz"}|} in
      let blob = P.encode_frame p1 ^ P.encode_frame p2 in
      let bl = Bytes.of_string blob in
      let n = Unix.write a bl 0 (Bytes.length bl) in
      Alcotest.(check int) "wrote blob" (Bytes.length bl) n;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      Alcotest.(check (option string)) "frame 1" (Some p1) (P.read_frame b);
      Alcotest.(check (option string)) "frame 2" (Some p2) (P.read_frame b);
      Alcotest.(check (option string)) "clean EOF" None (P.read_frame b))

let test_read_frame_truncated () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () ->
      let frame = P.encode_frame "hello" in
      let cut = String.length frame - 2 in
      let n = Unix.write_substring a frame 0 cut in
      Alcotest.(check int) "wrote partial" cut n;
      Unix.shutdown a Unix.SHUTDOWN_SEND;
      match P.read_frame b with
      | exception Failure _ -> ()
      | _ -> Alcotest.fail "expected mid-frame EOF failure")

let test_decoder_pending () =
  (* [pending] exposes the bytes stuck beyond the last complete frame —
     what the daemon checks at EOF to tell a clean hangup from a death
     mid-frame *)
  let d = P.decoder () in
  Alcotest.(check int) "empty" 0 (P.pending d);
  let frame = P.encode_frame "hello" in
  let cut = String.length frame - 2 in
  P.feed d (Bytes.of_string frame) 0 cut;
  Alcotest.(check (option string)) "incomplete" None (P.next d);
  Alcotest.(check int) "partial bytes pending" cut (P.pending d);
  P.feed d (Bytes.of_string frame) cut 2;
  Alcotest.(check (option string)) "completes" (Some "hello") (P.next d);
  Alcotest.(check int) "drained" 0 (P.pending d)

let test_frame_io_under_signals () =
  (* a 1 MiB frame through a socketpair while SIGALRM fires every 2ms:
     write_frame/read_frame must absorb EINTR and short writes/reads and
     deliver the frame intact *)
  let prev = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> ())) in
  let timer v = { Unix.it_interval = v; it_value = v } in
  ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.002));
  Fun.protect
    ~finally:(fun () ->
      ignore (Unix.setitimer Unix.ITIMER_REAL (timer 0.0));
      ignore (Sys.signal Sys.sigalrm prev))
    (fun () ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close a with Unix.Unix_error _ -> ());
          try Unix.close b with Unix.Unix_error _ -> ())
        (fun () ->
          let payload =
            String.init (1 lsl 20) (fun i ->
                Char.chr (((i * 131) + (i lsr 8)) land 0xFF))
          in
          (* the writer outpaces a reader that drains slowly, forcing
             short writes on the way *)
          let writer =
            Domain.spawn (fun () ->
                P.write_frame a payload;
                try Unix.shutdown a Unix.SHUTDOWN_SEND
                with Unix.Unix_error _ -> ())
          in
          let got = P.read_frame b in
          Domain.join writer;
          match got with
          | Some p ->
            Alcotest.(check bool) "1 MiB frame intact" true (p = payload)
          | None -> Alcotest.fail "no frame received"))

(* ----------------------------------------------------------- requests *)

let test_request_parsing () =
  let r = P.request_of_string {|{"id":7,"op":"generate","circuit":"s27"}|} in
  Alcotest.(check int) "id" 7 r.P.id;
  (match r.P.op with
  | P.Generate { c; compact; return_sequence } ->
    Alcotest.(check bool) "compact default" true compact;
    Alcotest.(check bool) "sequence default" true return_sequence;
    Alcotest.(check int) "chains default" 1 c.P.chains;
    (match c.P.src with
    | P.Catalog name -> Alcotest.(check string) "name" "s27" name
    | P.Bench _ -> Alcotest.fail "expected catalog source")
  | _ -> Alcotest.fail "expected generate");
  let r = P.request_of_string {|{"op":"ping"}|} in
  Alcotest.(check int) "missing id defaults to 0" 0 r.P.id;
  let bad s =
    match P.request_of_string s with
    | exception P.Bad_request _ -> ()
    | _ -> Alcotest.fail (Printf.sprintf "expected Bad_request for %s" s)
  in
  bad {|not json|};
  bad {|{"id":1}|};
  bad {|{"op":"frobnicate"}|};
  bad {|{"op":"generate"}|};
  bad {|{"op":"generate","circuit":"s27","bench":"INPUT(a)"}|};
  bad {|{"op":"compact","circuit":"s27"}|};
  bad {|{"op":"generate","circuit":"s27","scale":"huge"}|}

(* ------------------------------------------------- service determinism *)

let compile_phase_s svc =
  let m = Server.Service.metrics_snapshot svc in
  match List.assoc_opt "server.compile" (Obs.Metrics.phases m) with
  | Some s -> s
  | None -> Alcotest.fail "server.compile phase missing"

let counter svc name =
  let m = Server.Service.metrics_snapshot svc in
  Obs.Counters.get (Obs.Metrics.counters m) name

let test_cache_hit_determinism () =
  let svc = Server.Service.create ~cache_capacity:4 () in
  let req =
    P.request_of_string {|{"id":5,"op":"generate","circuit":"s27","seed":42}|}
  in
  let p1, m1 =
    Server.Service.execute svc ~budget:(Obs.Budget.create ()) req
  in
  Alcotest.(check string) "cold miss" "miss" m1.Server.Service.cache;
  Alcotest.(check int) "one miss" 1 (counter svc "server.cache_miss");
  let compile_cold = compile_phase_s svc in
  let p2, m2 =
    Server.Service.execute svc ~budget:(Obs.Budget.create ()) req
  in
  Alcotest.(check string) "warm hit" "hit" m2.Server.Service.cache;
  Alcotest.(check int) "one hit" 1 (counter svc "server.cache_hit");
  Alcotest.(check string) "byte-identical response" p1 p2;
  (* the warm request must not recompile: the compile phase timer is
     untouched by the second execution *)
  Alcotest.(check (float 0.0)) "no recompile" compile_cold (compile_phase_s svc);
  (* both were ok and report the same circuit *)
  Alcotest.(check string) "status" "ok" m2.Server.Service.status;
  match J.member "status" (J.parse p1) with
  | Some (J.Str s) -> Alcotest.(check string) "payload status" "ok" s
  | _ -> Alcotest.fail "payload has no status"

let test_cache_eviction () =
  let cache = Server.Cache.create ~capacity:2 in
  let compiled_stub key =
    (* eviction only exercises the LRU list, never the payload *)
    ignore key;
    let c = Circuits.Catalog.circuit ~scale:Circuits.Profiles.Quick "s27" in
    let scan = Scanins.Scan.insert c in
    {
      Server.Cache.circuit = c;
      scan;
      model = Faultmodel.Model.build scan.Scanins.Scan.circuit;
      sk = Atpg.Scan_knowledge.create scan;
    }
  in
  let compiles = ref 0 in
  let get key =
    snd
      (Server.Cache.find_or_compile cache ~key ~compile:(fun () ->
           incr compiles;
           compiled_stub key))
  in
  Alcotest.(check bool) "a miss" true (get "a" = `Miss);
  Alcotest.(check bool) "b miss" true (get "b" = `Miss);
  Alcotest.(check bool) "a hit" true (get "a" = `Hit);
  Alcotest.(check bool) "c miss evicts b" true (get "c" = `Miss);
  Alcotest.(check bool) "b evicted" true (get "b" = `Miss);
  Alcotest.(check int) "length capped" 2 (Server.Cache.length cache);
  Alcotest.(check int) "compile count" 4 !compiles

let test_bad_requests_are_typed () =
  let svc = Server.Service.create () in
  let run s =
    let payload, meta =
      Server.Service.execute svc ~budget:(Obs.Budget.create ())
        (P.request_of_string s)
    in
    (payload, meta.Server.Service.status)
  in
  let payload, status = run {|{"id":3,"op":"generate","circuit":"nosuch"}|} in
  Alcotest.(check string) "unknown circuit is an error" "error" status;
  (match J.member "id" (J.parse payload) with
  | Some (J.Int id) -> Alcotest.(check int) "error echoes id" 3 id
  | _ -> Alcotest.fail "error payload has no id");
  let _, status =
    run {|{"id":4,"op":"generate","bench":"this is not a netlist"}|}
  in
  Alcotest.(check string) "bench parse error is an error" "error" status;
  let _, status = run {|{"id":5,"op":"table","bench":"INPUT(a)"}|} in
  Alcotest.(check string) "table over bench is an error" "error" status;
  Alcotest.(check int) "typed errors counted" 3
    (counter svc "server.bad_request")

(* -------------------------------------------------------------- daemon *)

let temp_sock () =
  let path = Filename.temp_file "scanatpg_srv" ".sock" in
  (* listen_socket unlinks and rebinds the path *)
  path

let with_daemon ?(jobs = 1) ?(queue_depth = 8) ?access_log ?slow_ms
    ?(drain_grace_s = 10.0) f =
  let sock = temp_sock () in
  let addr = Server.Daemon.Unix_sock sock in
  let cfg =
    {
      (Server.Daemon.default_config addr) with
      Server.Daemon.jobs;
      queue_depth;
      access_log;
      slow_ms;
      drain_grace_s;
      install_signals = false;
      verbose = false;
    }
  in
  let d = Domain.spawn (fun () -> Server.Daemon.run cfg) in
  let rec wait_up n =
    if n > 250 then Alcotest.fail "daemon did not come up"
    else
      match Server.Client.connect addr with
      | c -> Server.Client.close c
      | exception Unix.Unix_error _ ->
        Unix.sleepf 0.02;
        wait_up (n + 1)
  in
  wait_up 0;
  let result =
    try f addr
    with e ->
      (* drain the daemon even on test failure so the domain joins *)
      (try
         let c = Server.Client.connect addr in
         ignore (Server.Client.call c {|{"id":9999,"op":"shutdown"}|});
         Server.Client.close c
       with _ -> ());
      ignore (Domain.join d);
      raise e
  in
  let c = Server.Client.connect addr in
  ignore (Server.Client.call c {|{"id":9999,"op":"shutdown"}|});
  Server.Client.close c;
  let code = Domain.join d in
  Alcotest.(check int) "daemon drained with exit 0" 0 code;
  result

let write_jsonl path lines =
  Obs.Fileio.write_string path (String.concat "\n" lines ^ "\n")

let batch addr lines =
  let input = Filename.temp_file "scanatpg_batch" ".jsonl" in
  let output = Filename.temp_file "scanatpg_batch" ".out" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove input with Sys_error _ -> ());
      try Sys.remove output with Sys_error _ -> ())
    (fun () ->
      write_jsonl input lines;
      let outcomes = Server.Client.run_batch ~addr ~input ~output () in
      List.map
        (fun o ->
          (o.Server.Client.status, Option.value ~default:"" o.Server.Client.payload))
        outcomes)

let gen_s27 = {|{"op":"generate","circuit":"s27","seed":77}|}

let test_daemon_roundtrip () =
  with_daemon (fun addr ->
      let c = Server.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let resp = Server.Client.call c {|{"id":1,"op":"ping"}|} in
          Alcotest.(check string) "ping" {|{"id":1,"op":"ping","status":"ok"}|}
            resp))

let test_daemon_jobs_determinism () =
  (* the same replay must produce byte-identical compute payloads whether
     the daemon runs one worker or two.  A stats request rides along: it
     snapshots live timing state, so it is the one op excluded from the
     byte-identity comparison (DESIGN.md §10). *)
  let lines =
    [ gen_s27; {|{"op":"stats"}|};
      {|{"op":"generate","circuit":"s298","seed":5}|}; gen_s27;
      {|{"op":"generate","circuit":"s27","seed":99,"compact_jobs":2}|} ]
  in
  let is_stats payload =
    match J.member "op" (J.parse payload) with
    | Some (J.Str "stats") -> true
    | _ -> false
  in
  let run jobs = with_daemon ~jobs (fun addr -> batch addr lines) in
  let r1 = run 1 and r2 = run 2 in
  Alcotest.(check int) "all answered (jobs 1)" (List.length lines)
    (List.length r1);
  List.iter
    (fun (status, _) -> Alcotest.(check string) "status ok" "ok" status)
    (r1 @ r2);
  let compute r = List.filter (fun (_, p) -> not (is_stats p)) r in
  let c1 = compute r1 and c2 = compute r2 in
  Alcotest.(check int) "stats filtered" (List.length lines - 1)
    (List.length c1);
  List.iter2
    (fun (_, p1) (_, p2) ->
      Alcotest.(check string) "payload identical across jobs" p1 p2)
    c1 c2

let test_daemon_bad_request_echoes_id () =
  (* A semantically invalid request (here: compact without "vectors")
     must be answered under the sender's id, or a pipelining client
     cannot correlate the failure and reports it lost. *)
  with_daemon (fun addr ->
      let c = Server.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let resp =
            Server.Client.call c {|{"id":7,"op":"compact","circuit":"s27"}|}
          in
          let j = J.parse resp in
          (match J.member "id" j with
          | Some (J.Int id) -> Alcotest.(check int) "echoes id" 7 id
          | _ -> Alcotest.fail "no id");
          match J.member "status" j with
          | Some (J.Str s) -> Alcotest.(check string) "typed error" "error" s
          | _ -> Alcotest.fail "no status"))

let test_daemon_admission_control () =
  (* queue depth 0: every compute request is answered overloaded, typed,
     while admin ops stay served *)
  with_daemon ~queue_depth:0 (fun addr ->
      let c = Server.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let resp = Server.Client.call c {|{"id":2,"op":"generate","circuit":"s27"}|} in
          let j = J.parse resp in
          (match J.member "status" j with
          | Some (J.Str s) -> Alcotest.(check string) "overloaded" "overloaded" s
          | _ -> Alcotest.fail "no status");
          (match J.member "id" j with
          | Some (J.Int id) -> Alcotest.(check int) "echoes id" 2 id
          | _ -> Alcotest.fail "no id");
          let stats = Server.Client.call c {|{"id":3,"op":"stats"}|} in
          match J.member "counters" (J.parse stats) with
          | Some counters -> (
            match J.member "server.rejected" counters with
            | Some (J.Int n) -> Alcotest.(check int) "rejected counted" 1 n
            | _ -> Alcotest.fail "server.rejected missing")
          | None -> Alcotest.fail "stats has no counters"))

let test_daemon_drain_access_log () =
  let log = Filename.temp_file "scanatpg_acc" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      let outcomes =
        with_daemon ~access_log:log (fun addr ->
            batch addr [ {|{"op":"ping"}|}; gen_s27 ])
      in
      List.iter
        (fun (status, _) -> Alcotest.(check string) "ok" "ok" status)
        outcomes;
      let ic = open_in log in
      let lines = ref [] in
      (try
         while true do
           let l = input_line ic in
           if String.trim l <> "" then lines := l :: !lines
         done
       with End_of_file -> close_in_noerr ic);
      (* ping + generate + the shutdown issued by with_daemon, plus the
         probe connections; every line must parse and carry the schema *)
      Alcotest.(check bool)
        (Printf.sprintf "at least 3 entries (got %d)" (List.length !lines))
        true
        (List.length !lines >= 3);
      List.iter
        (fun l ->
          let j = J.parse l in
          List.iter
            (fun field ->
              match J.member field j with
              | Some _ -> ()
              | None -> Alcotest.fail (Printf.sprintf "missing %s in %s" field l))
            [ "id"; "op"; "circuit"; "status"; "cache"; "peer"; "trace_id";
              "queue_wait_ns"; "service_ns"; "bytes_in"; "bytes_out" ])
        !lines)

let read_log path =
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       if String.trim l <> "" then lines := l :: !lines
     done
   with End_of_file -> close_in_noerr ic);
  List.rev_map J.parse !lines

(* Access-log entry for request [id], or fail. *)
let log_entry entries id =
  match
    List.find_opt
      (fun j -> match J.member "id" j with Some (J.Int i) -> i = id | _ -> false)
      entries
  with
  | Some j -> j
  | None -> Alcotest.failf "no access-log entry for id %d" id

let trace_id_of entry =
  match J.member "trace_id" entry with
  | Some (J.Str s) -> s
  | _ -> Alcotest.fail "entry has no trace_id"

let test_daemon_trace_ids () =
  (* trace ids are deterministic per connection: c<cid>-r<n> with n
     counting that connection's requests — unique across the daemon,
     stable under interleaving with other connections *)
  let log = Filename.temp_file "scanatpg_acc" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      with_daemon ~access_log:log (fun addr ->
          let a = Server.Client.connect addr in
          let b = Server.Client.connect addr in
          Fun.protect
            ~finally:(fun () ->
              Server.Client.close a;
              Server.Client.close b)
            (fun () ->
              ignore (Server.Client.call a {|{"id":101,"op":"ping"}|});
              ignore (Server.Client.call a {|{"id":102,"op":"ping"}|});
              ignore (Server.Client.call b {|{"id":201,"op":"ping"}|});
              ignore (Server.Client.call a {|{"id":103,"op":"ping"}|})));
      let entries = read_log log in
      let parse tid =
        try Scanf.sscanf tid "c%d-r%d%!" (fun c r -> (c, r))
        with Scanf.Scan_failure _ | Failure _ | End_of_file ->
          Alcotest.failf "malformed trace id %S" tid
      in
      let id n = parse (trace_id_of (log_entry entries n)) in
      let c1, r1 = id 101 and c2, r2 = id 102 and c3, r3 = id 103 in
      let cb, rb = id 201 in
      Alcotest.(check int) "same connection, same cid" c1 c2;
      Alcotest.(check int) "same connection, same cid (3rd)" c1 c3;
      Alcotest.(check (list int)) "request counter increments" [ 1; 2; 3 ]
        [ r1; r2; r3 ];
      Alcotest.(check bool) "other connection has a distinct cid" true
        (cb <> c1);
      Alcotest.(check int) "other connection counts from 1" 1 rb;
      (* no slow threshold configured: no span trees in the log *)
      List.iter
        (fun e ->
          match J.member "spans" e with
          | None -> ()
          | Some _ -> Alcotest.fail "spans present without --slow-ms")
        entries)

(* The direct children of a span-tree node, by name. *)
let child_spans node =
  match J.member "children" node with
  | Some (J.Arr cs) -> cs
  | _ -> []

let find_child node name =
  List.find_opt (fun c -> J.member "name" c = Some (J.Str name)) (child_spans node)

let test_daemon_slow_request_logs_spans () =
  (* --slow-ms 0: every compute request is over threshold, so its access
     log line must carry the full span tree *)
  let log = Filename.temp_file "scanatpg_acc" ".jsonl" in
  let vectors =
    String.concat ","
      (List.map (Printf.sprintf "%S")
         [ "110011";"001111";"001100";"010110";"001100";"110111";"111001";"111101";"000111";"011000" ])
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove log with Sys_error _ -> ())
    (fun () ->
      with_daemon ~access_log:log ~slow_ms:0 (fun addr ->
          let outcomes =
            batch addr
              [ {|{"id":11,"op":"generate","circuit":"s27","seed":7}|};
                Printf.sprintf
                  {|{"id":12,"op":"compact","circuit":"s27","vectors":[%s]}|}
                  vectors ]
          in
          List.iter
            (fun (status, _) -> Alcotest.(check string) "ok" "ok" status)
            outcomes);
      let entries = read_log log in
      let root id =
        match J.member "spans" (log_entry entries id) with
        | Some (J.Arr (root :: _)) -> root
        | Some _ -> Alcotest.fail "spans is not a non-empty array"
        | None -> Alcotest.fail "slow request logged without spans"
      in
      (* the tree is rooted at the request span, op recorded in its attrs *)
      let gen = root 11 in
      (match J.member "name" gen with
      | Some (J.Str n) -> Alcotest.(check string) "root span" "request" n
      | _ -> Alcotest.fail "root span has no name");
      Alcotest.(check bool) "request span has child phases" true
        (child_spans gen <> []);
      (* a compact request shows the compaction phases under [compact]:
         restoration, then omission with its per-pass spans *)
      let need node name =
        match find_child node name with
        | Some c -> c
        | None -> Alcotest.failf "no %s span under the compact request" name
      in
      let compact = need (root 12) "compact" in
      ignore (need compact "restore");
      ignore (need (need compact "omit") "omit.pass1"))

(* Responses are collected by id, so a batch in which two requests end up
   with one id is refused before any connection is tried: the call fails
   with [Failure] even though nothing listens at the address. *)
let test_batch_duplicate_ids () =
  let sock = Filename.temp_file "scanatpg_nosock" ".sock" in
  Sys.remove sock;
  let addr = Server.Daemon.Unix_sock sock in
  let input = Filename.temp_file "scanatpg_batch" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove input with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun (what, lines) ->
          write_jsonl input lines;
          match Server.Client.run_batch ~addr ~input () with
          | exception Failure _ -> ()
          | exception e ->
            Alcotest.failf "%s: expected Failure, got %s" what
              (Printexc.to_string e)
          | _ -> Alcotest.failf "%s: batch accepted" what)
        [
          ( "explicit ids",
            [ {|{"id":5,"op":"generate","circuit":"s27","seed":1}|};
              {|{"id":5,"op":"ping"}|} ] );
          ( "explicit id equal to an assigned one",
            [ {|{"op":"ping"}|}; {|{"id":1,"op":"ping"}|} ] );
        ])

let () =
  Alcotest.run "server"
    [
      ( "framing",
        [
          Alcotest.test_case "split reads" `Quick test_decoder_split_reads;
          Alcotest.test_case "coalesced frames" `Quick
            test_decoder_coalesced_frames;
          Alcotest.test_case "oversized frame" `Quick
            test_decoder_oversized_frame;
          Alcotest.test_case "read_frame exact" `Quick test_read_frame_exact;
          Alcotest.test_case "read_frame truncated" `Quick
            test_read_frame_truncated;
          Alcotest.test_case "decoder pending" `Quick test_decoder_pending;
          Alcotest.test_case "frame io under signals" `Quick
            test_frame_io_under_signals;
        ] );
      ( "requests",
        [ Alcotest.test_case "parsing" `Quick test_request_parsing ] );
      ( "service",
        [
          Alcotest.test_case "cache hit determinism" `Quick
            test_cache_hit_determinism;
          Alcotest.test_case "cache eviction" `Quick test_cache_eviction;
          Alcotest.test_case "typed errors" `Quick test_bad_requests_are_typed;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "roundtrip" `Quick test_daemon_roundtrip;
          Alcotest.test_case "bad request echoes id" `Quick
            test_daemon_bad_request_echoes_id;
          Alcotest.test_case "jobs determinism" `Quick
            test_daemon_jobs_determinism;
          Alcotest.test_case "admission control" `Quick
            test_daemon_admission_control;
          Alcotest.test_case "drain access log" `Quick
            test_daemon_drain_access_log;
          Alcotest.test_case "trace ids per connection" `Quick
            test_daemon_trace_ids;
          Alcotest.test_case "slow request logs spans" `Quick
            test_daemon_slow_request_logs_spans;
        ] );
      ( "batch",
        [
          Alcotest.test_case "duplicate ids rejected" `Quick
            test_batch_duplicate_ids;
        ] );
    ]
