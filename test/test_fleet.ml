(* Fleet layer: result-cache mechanics, canonical request rendering,
   and the sharding router — shard-count invariance, memoized-response
   byte identity, bypass ops, crash-and-retry (DESIGN.md §15). *)

module P = Server.Protocol
module J = Obs.Json
module RC = Fleet.Result_cache

(* -------------------------------------------------------- result cache *)

let test_split_splice_id () =
  let body = {|,"op":"generate","status":"ok","n":3}|} in
  (match RC.split_id ({|{"id":42|} ^ body) with
  | Some (id, suffix) ->
    Alcotest.(check int) "id" 42 id;
    Alcotest.(check string) "suffix" body suffix;
    Alcotest.(check string) "splice restamps"
      ({|{"id":7|} ^ body)
      (RC.splice_id ~id:7 suffix)
  | None -> Alcotest.fail "expected a split");
  (match RC.split_id ({|{"id":-3|} ^ body) with
  | Some (id, _) -> Alcotest.(check int) "negative id" (-3) id
  | None -> Alcotest.fail "expected a split on negative id");
  Alcotest.(check bool) "no id prefix" true
    (RC.split_id {|{"op":"ping"}|} = None);
  Alcotest.(check bool) "id not a number" true
    (RC.split_id {|{"id":x}|} = None)

let test_result_cache_lru () =
  let c = RC.create ~capacity:2 in
  RC.add c ~key:"a" ~suffix:"A";
  RC.add c ~key:"b" ~suffix:"B";
  Alcotest.(check (option string)) "a cached" (Some "A") (RC.find c ~key:"a");
  (* a is now most-recent; inserting c evicts b *)
  RC.add c ~key:"c" ~suffix:"C";
  Alcotest.(check (option string)) "b evicted" None (RC.find c ~key:"b");
  Alcotest.(check (option string)) "a survives" (Some "A") (RC.find c ~key:"a");
  Alcotest.(check (option string)) "c cached" (Some "C") (RC.find c ~key:"c");
  (* duplicate insert keeps the first payload *)
  RC.add c ~key:"a" ~suffix:"A2";
  Alcotest.(check (option string)) "dedup keeps first" (Some "A")
    (RC.find c ~key:"a");
  let s = RC.stats c in
  Alcotest.(check int) "evictions" 1 s.RC.evictions;
  Alcotest.(check int) "insertions" 3 s.RC.insertions;
  Alcotest.(check int) "entries" 2 (RC.length c)

(* ----------------------------------------------- canonical re-rendering *)

let canon ?drop_jobs line =
  P.canonical_of_request ?drop_jobs (P.request_of_string line)

let test_canonical_roundtrip () =
  (* the canonical form must re-parse to an equal canonical form: it is
     what the router sends to shards in place of the client's bytes *)
  let lines =
    [ {|{"op":"generate","circuit":"s27","seed":5,"chains":2}|};
      {|{"op":"generate","circuit":"s27","seed":5,"compact":false}|};
      {|{"op":"table","circuit":"s344","scale":"full"}|};
      {|{"op":"compact","circuit":"s27","vectors":["0101011"]}|};
      {|{"op":"ping"}|} ]
  in
  List.iter
    (fun line ->
      let c1 = canon line in
      Alcotest.(check string) ("fixpoint: " ^ line) c1 (canon c1))
    lines

let test_canonical_drop_jobs_key () =
  (* parallelism knobs must not split the result-cache key: the purity
     contract makes their payloads byte-identical *)
  let a = {|{"op":"generate","circuit":"s27","seed":5}|} in
  let b = {|{"op":"generate","circuit":"s27","seed":5,"sim_jobs":4,"compact_jobs":2}|} in
  Alcotest.(check string) "jobs knobs dropped from key"
    (canon ~drop_jobs:true a) (canon ~drop_jobs:true b);
  Alcotest.(check bool) "but kept in the dispatch body" true
    (canon a <> canon b);
  (* anything payload-affecting must stay in the key *)
  let c = {|{"op":"generate","circuit":"s27","seed":6}|} in
  Alcotest.(check bool) "seed still splits the key" true
    (canon ~drop_jobs:true a <> canon ~drop_jobs:true c)

(* -------------------------------------------------------------- router *)

(* Shards are real processes of the built CLI (a dune dependency of this
   test, next to it in the build tree), so a shard kill is a SIGKILL. *)
let shard_argv =
  let exe =
    List.fold_left Filename.concat
      (Filename.dirname Sys.executable_name)
      [ ".."; "bin"; "scanatpg.exe" ]
  in
  fun _ socket -> [| exe; "serve"; "--socket"; socket; "--quiet" |]

(* Connect to [addr], retrying for up to 5 s while nothing listens there
   yet: a router just spawned, or one of its shards — the router listens
   before its shard daemons have bound their sockets. *)
let connect_when_up ~what addr =
  let rec go n =
    match Server.Client.connect addr with
    | c -> c
    | exception Unix.Unix_error _ when n < 250 ->
      Unix.sleepf 0.02;
      go (n + 1)
    | exception Unix.Unix_error _ -> Alcotest.fail (what ^ " did not come up")
  in
  go 0

(* Run the front end [run] on a fresh socket around [f], then shut it
   down through the wire and demand a clean drain. *)
let with_front ~what run f =
  let sock = Filename.temp_file "scanatpg_fleet" ".sock" in
  let addr = Server.Daemon.Unix_sock sock in
  let d = Domain.spawn (fun () -> run addr) in
  Server.Client.close (connect_when_up ~what addr);
  let shutdown () =
    try
      let c = Server.Client.connect addr in
      ignore (Server.Client.call c {|{"id":9999,"op":"shutdown"}|});
      Server.Client.close c
    with _ -> ()
  in
  let result =
    try f addr
    with e ->
      shutdown ();
      ignore (Domain.join d);
      raise e
  in
  shutdown ();
  let code = Domain.join d in
  Alcotest.(check int) (what ^ " drained with exit 0") 0 code;
  result

let with_router ?(shards = 2) ?(result_cache_capacity = 256) ?chaos f =
  with_front ~what:"router"
    (fun addr ->
      Fleet.Router.run
        {
          (Fleet.Router.default_config addr ~shards ~launcher:shard_argv)
          with
          Fleet.Router.result_cache_capacity;
          chaos;
          drain_grace_s = 10.0;
          install_signals = false;
          verbose = false;
        })
    f

let with_serve f =
  with_front ~what:"daemon"
    (fun addr ->
      Server.Daemon.run
        {
          (Server.Daemon.default_config addr) with
          Server.Daemon.install_signals = false;
          verbose = false;
        })
    f

let write_jsonl path lines =
  Obs.Fileio.write_string path (String.concat "\n" lines ^ "\n")

let batch ?(retries = 0) addr lines =
  let input = Filename.temp_file "scanatpg_fleet" ".jsonl" in
  let output = Filename.temp_file "scanatpg_fleet" ".out" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove input with Sys_error _ -> ());
      try Sys.remove output with Sys_error _ -> ())
    (fun () ->
      write_jsonl input lines;
      let outcomes =
        Server.Client.run_batch ~addr ~input ~output ~retries ~backoff_ms:20
          ()
      in
      List.map
        (fun o ->
          ( o.Server.Client.status,
            Option.value ~default:"" o.Server.Client.payload ))
        outcomes)

let counter resp name =
  match
    Option.bind
      (Option.bind (J.member "counters" (J.parse resp)) (J.member name))
      J.get_int
  with
  | Some v -> v
  | None -> 0

let front_stats addr =
  let c = Server.Client.connect addr in
  Fun.protect
    ~finally:(fun () -> Server.Client.close c)
    (fun () -> Server.Client.call c {|{"id":1,"op":"stats"}|})

let is_stats payload =
  match J.member "op" (J.parse payload) with
  | Some (J.Str "stats") -> true
  | _ -> false

let test_router_roundtrip () =
  with_router ~shards:1 (fun addr ->
      let c = Server.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          Alcotest.(check string) "ping inline"
            {|{"id":1,"op":"ping","status":"ok"}|}
            (Server.Client.call c {|{"id":1,"op":"ping"}|});
          let resp =
            Server.Client.call c
              {|{"id":2,"op":"generate","circuit":"s27","seed":77}|}
          in
          match J.member "status" (J.parse resp) with
          | Some (J.Str "ok") -> ()
          | _ -> Alcotest.fail ("expected ok: " ^ resp)))

let stream =
  [ {|{"op":"generate","circuit":"s27","seed":77}|};
    {|{"op":"stats"}|};
    {|{"op":"generate","circuit":"s298","seed":5}|};
    {|{"op":"table","circuit":"s27"}|};
    {|{"op":"generate","circuit":"s27","seed":77,"sim_jobs":2}|};
    {|{"op":"generate","circuit":"s27","seed":99}|} ]

let test_router_shard_count_invariance () =
  (* the same stream through 1 shard and 4 shards must produce
     byte-identical compute payloads; stats snapshots live router state
     and is the one op excluded (same exclusion as the daemon's
     jobs-invariance test) *)
  let run shards = with_router ~shards (fun addr -> batch addr stream) in
  let r1 = run 1 and r4 = run 4 in
  Alcotest.(check int) "all answered" (List.length stream)
    (List.length r1);
  List.iter
    (fun (status, _) -> Alcotest.(check string) "status ok" "ok" status)
    (r1 @ r4);
  let compute r = List.filter (fun (_, p) -> not (is_stats p)) r in
  List.iter2
    (fun (_, p1) (_, p4) ->
      Alcotest.(check string) "payload identical across shard counts" p1 p4)
    (compute r1) (compute r4)

let test_router_result_cache_hit () =
  with_router ~shards:2 (fun addr ->
      let c = Server.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let req id =
            Printf.sprintf
              {|{"id":%d,"op":"generate","circuit":"s27","seed":77}|} id
          in
          (* sequential calls: the second is answered from the result
             cache and must be byte-identical to the computed first
             (modulo the client id it is re-addressed to) *)
          let r1 = Server.Client.call c (req 10) in
          let r2 = Server.Client.call c (req 20) in
          (* a jobs-knob variant shares the key by purity *)
          let r3 =
            Server.Client.call c
              {|{"id":30,"op":"generate","circuit":"s27","seed":77,"sim_jobs":2}|}
          in
          let suffix r =
            match RC.split_id r with
            | Some (_, s) -> s
            | None -> Alcotest.fail ("no id prefix: " ^ r)
          in
          Alcotest.(check string) "cached == computed" (suffix r1)
            (suffix r2);
          Alcotest.(check string) "jobs variant shares the entry"
            (suffix r1) (suffix r3);
          let stats = front_stats addr in
          Alcotest.(check int) "two hits" 2
            (counter stats "server.result_hit");
          Alcotest.(check int) "one miss" 1
            (counter stats "server.result_miss")))

let sock_path = function
  | Server.Daemon.Unix_sock path -> path
  | Server.Daemon.Tcp _ -> assert false

let has_keys what keys j =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "%s has %s" what k)
        true
        (J.member k j <> None))
    keys

let test_router_bypass_ops () =
  (* ping is answered inline, stats snapshots live state, chaos mutates
     it: none may touch the result cache.  The replies come from the
     renderer the daemon uses, so they have the daemon's shapes. *)
  with_router ~shards:1 (fun addr ->
      let c = Server.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let ping = Server.Client.call c {|{"id":1,"op":"ping"}|} in
          ignore (Server.Client.call c {|{"id":2,"op":"ping"}|});
          ignore (Server.Client.call c {|{"id":3,"op":"stats"}|});
          ignore (Server.Client.call c {|{"id":4,"op":"chaos","spec":"off"}|});
          let chaos =
            Server.Client.call c {|{"id":5,"op":"chaos","spec":"off"}|}
          in
          let stats = front_stats addr in
          Alcotest.(check int) "no result-cache hits" 0
            (counter stats "server.result_hit");
          Alcotest.(check int) "no result-cache misses" 0
            (counter stats "server.result_miss");
          has_keys "chaos reply" [ "active"; "fires" ] (J.parse chaos);
          (* the 1-shard router's shard is a daemon on <socket>.shard0 *)
          let d =
            connect_when_up ~what:"shard 0"
              (Server.Daemon.Unix_sock (sock_path addr ^ ".shard0"))
          in
          Fun.protect
            ~finally:(fun () -> Server.Client.close d)
            (fun () ->
              Alcotest.(check string) "ping byte-identical to a daemon's"
                (Server.Client.call d {|{"id":1,"op":"ping"}|})
                ping);
          (* one routed request, so the router has a histogram to render *)
          ignore
            (Server.Client.call c {|{"id":6,"op":"generate","circuit":"s27"}|});
          let stats = J.parse (front_stats addr) in
          has_keys "stats reply"
            [ "counters"; "phases"; "histograms"; "result_cache"; "shards" ]
            stats;
          match J.member "histograms" stats with
          | Some (J.Obj (_ :: _ as hists)) ->
            List.iter
              (fun (name, h) ->
                has_keys ("histogram " ^ name)
                  [ "count"; "sum"; "p50"; "p90"; "p95"; "p99" ]
                  h)
              hists
          | _ -> Alcotest.fail "stats reply has no histograms"))

(* Both front ends read clients through one [Server.Conn]: a client that
   hangs up mid-frame, and one that announces an oversized frame, each
   add exactly one [<prefix>.bad_request] and one [<prefix>.conn_aborted];
   the oversized one is answered with a typed id-0 error, then hung up
   on. *)
let test_midframe_disconnect_accounted (with_front, prefix) () =
  with_front (fun addr ->
      let sock = sock_path addr in
      let send bytes =
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX sock);
        ignore (Unix.write_substring fd bytes 0 (String.length bytes));
        fd
      in
      let count name = counter (front_stats addr) (prefix ^ name) in
      let wait_for name n =
        let rec go k =
          let v = count name in
          if v >= n || k = 0 then v
          else begin
            Unix.sleepf 0.05;
            go (k - 1)
          end
        in
        go 40
      in
      (* two bytes of a header, then vanish *)
      Unix.close (send "\x00\x00");
      Alcotest.(check int) "mid-frame EOF counted as a connection abort" 1
        (wait_for ".conn_aborted" 1);
      Alcotest.(check int) "and as a bad request" 1 (count ".bad_request");
      (* a length prefix past the 16 MiB ceiling: read the typed error
         before hanging up, so its write cannot fail and add an abort *)
      let fd = send "\x7f\xff\xff\xff" in
      (match P.read_frame fd with
      | Some reply ->
        let reply = J.parse reply in
        Alcotest.(check (option int)) "answered under id 0" (Some 0)
          (Option.bind (J.member "id" reply) J.get_int);
        Alcotest.(check (option string)) "typed error" (Some "error")
          (Option.bind (J.member "status" reply) J.get_str)
      | None -> Alcotest.fail "no reply to an oversized frame");
      Alcotest.(check bool) "then hung up on" true (P.read_frame fd = None);
      Unix.close fd;
      Alcotest.(check int) "oversized frame counted as a connection abort" 2
        (wait_for ".conn_aborted" 2);
      Alcotest.(check int) "and as a bad request" 2 (count ".bad_request"))

let test_router_result_cache_eviction () =
  (* capacity 1: alternating keys never hit *)
  with_router ~shards:1 ~result_cache_capacity:1 (fun addr ->
      let c = Server.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.Client.close c)
        (fun () ->
          let a id =
            Printf.sprintf {|{"id":%d,"op":"table","circuit":"s27"}|} id
          in
          let b id =
            Printf.sprintf {|{"id":%d,"op":"table","circuit":"s298"}|} id
          in
          ignore (Server.Client.call c (a 1));
          ignore (Server.Client.call c (b 2));
          ignore (Server.Client.call c (a 3));
          ignore (Server.Client.call c (b 4));
          let stats = front_stats addr in
          Alcotest.(check int) "every lookup missed" 4
            (counter stats "server.result_miss");
          Alcotest.(check int) "capacity-1 thrash" 0
            (counter stats "server.result_hit")))

let test_router_shard_crash_typed_outcomes () =
  (* kill the dispatch target once: the request is redispatched after
     the restart and the client still sees exactly one ok response *)
  with_router ~shards:2 ~chaos:"seed=11;shard=crash#1"
    (fun addr ->
      let outcomes =
        batch addr
          [ {|{"op":"generate","circuit":"s27","seed":77}|};
            {|{"op":"generate","circuit":"s298","seed":5}|} ]
      in
      Alcotest.(check int) "both answered" 2 (List.length outcomes);
      List.iter
        (fun (status, _) ->
          Alcotest.(check string) "typed ok outcome" "ok" status)
        outcomes;
      let stats = front_stats addr in
      Alcotest.(check int) "the kill fired" 1
        (counter stats "router.shard_kills"))

let test_router_retried_equals_clean () =
  (* a writer fault poisons the client connection mid-batch; a retrying
     client reconnects to the ROUTER and replays only the unanswered
     requests — the final payloads must be byte-identical to an
     undisturbed run (satellite of the PR 7 retried-vs-clean diff,
     routed topology) *)
  let lines =
    [ {|{"op":"generate","circuit":"s27","seed":77}|};
      {|{"op":"table","circuit":"s27"}|};
      {|{"op":"generate","circuit":"s298","seed":5}|} ]
  in
  let payloads r = List.map snd r in
  let clean = with_router ~shards:2 (fun addr -> batch addr lines) in
  let retried =
    with_router ~shards:2 ~chaos:"seed=3;writer=error#1" (fun addr ->
        batch ~retries:3 addr lines)
  in
  List.iter
    (fun (status, _) -> Alcotest.(check string) "clean ok" "ok" status)
    (clean @ retried);
  List.iter2
    (fun p1 p2 ->
      Alcotest.(check string) "retried == clean through router" p1 p2)
    (payloads clean) (payloads retried)

(* ------------------------------------------------------------- loadgen *)

let test_loadgen_pick_deterministic () =
  let draws seed = List.init 64 (fun i -> Fleet.Loadgen.pick ~seed ~n:3 i) in
  Alcotest.(check (list int)) "same seed replays" (draws 7) (draws 7);
  Alcotest.(check bool) "in range" true
    (List.for_all (fun d -> d >= 0 && d < 3) (draws 7));
  Alcotest.(check bool) "seed changes the mix" true (draws 7 <> draws 8)

let test_loadgen_against_router () =
  with_router ~shards:1 (fun addr ->
      let r =
        Fleet.Loadgen.run ~addr
          ~templates:
            [ {|{"op":"ping"}|}; {|{"op":"table","circuit":"s27"}|} ]
          ~rate:50.0 ~duration_s:0.4 ~seed:3 ()
      in
      Alcotest.(check int) "sent the whole schedule" 20 r.Fleet.Loadgen.sent;
      Alcotest.(check int) "no losses" 0 r.Fleet.Loadgen.lost;
      Alcotest.(check int) "all completed" 20 r.Fleet.Loadgen.completed;
      let ok =
        try List.assoc "ok" r.Fleet.Loadgen.by_status with Not_found -> 0
      in
      Alcotest.(check int) "all ok" 20 ok;
      Alcotest.(check bool) "p99 >= p50" true
        (r.Fleet.Loadgen.p99_ms >= r.Fleet.Loadgen.p50_ms))

(* ---------------------------------------------------------------- main *)

let () =
  Alcotest.run "fleet"
    [
      ( "result_cache",
        [
          Alcotest.test_case "split/splice id" `Quick test_split_splice_id;
          Alcotest.test_case "lru + dedup" `Quick test_result_cache_lru;
        ] );
      ( "canonical",
        [
          Alcotest.test_case "roundtrip fixpoint" `Quick
            test_canonical_roundtrip;
          Alcotest.test_case "drop_jobs key" `Quick
            test_canonical_drop_jobs_key;
        ] );
      ( "router",
        [
          Alcotest.test_case "roundtrip" `Quick test_router_roundtrip;
          Alcotest.test_case "shard-count invariance" `Quick
            test_router_shard_count_invariance;
          Alcotest.test_case "result-cache hit byte-identity" `Quick
            test_router_result_cache_hit;
          Alcotest.test_case "bypass ops" `Quick test_router_bypass_ops;
          Alcotest.test_case "mid-frame disconnect accounted" `Quick
            (test_midframe_disconnect_accounted
               ((fun f -> with_router ~shards:1 f), "router"));
          Alcotest.test_case "result-cache eviction" `Quick
            test_router_result_cache_eviction;
          Alcotest.test_case "shard crash, typed outcomes" `Quick
            test_router_shard_crash_typed_outcomes;
          Alcotest.test_case "retried == clean (routed)" `Quick
            test_router_retried_equals_clean;
        ] );
      ( "serve",
        [
          Alcotest.test_case "mid-frame disconnect accounted" `Quick
            (test_midframe_disconnect_accounted (with_serve, "server"));
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "deterministic pick" `Quick
            test_loadgen_pick_deterministic;
          Alcotest.test_case "open-loop run" `Quick
            test_loadgen_against_router;
        ] );
    ]
