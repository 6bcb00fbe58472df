(* scanatpg — command-line front-end.

   Subcommands:
     info       structural summary and fault statistics of a circuit
     export     write a catalog circuit as a .bench file
     generate   run the unified flow (Section 2), optionally compact,
                write the sequence to a file
     compact    compact an existing sequence file
     table      regenerate the paper's Table 5/6/7 rows for chosen circuits
     run        full pipeline for one circuit with deadlines, checkpoints
                and resume (DESIGN.md #8)
     diagnose   rank fault candidates against an observed failing response
     serve      ATPG service daemon over a Unix socket (DESIGN.md #11)
     batch      pipeline a JSONL request file to a running daemon
     stats      fetch a daemon's live metrics (JSON or Prometheus text)
     top        watch a daemon: rps, latency percentiles, cache hit rate

   Circuits are named from the built-in catalog ("s27", "s298", ..., "b11")
   or given as a path to a .bench file.

   Exit codes: 0 success; 1 internal error; 2 malformed input (parse
   errors, unknown circuits, corrupt checkpoints); 3 degraded run (a
   --deadline / --max-backtracks budget tripped); 4 stopped at a
   --halt-after phase boundary; 124/125 are cmdliner's usage/term
   errors. *)

open Cmdliner

let load_circuit ?(scale = Circuits.Profiles.Quick) spec =
  if Sys.file_exists spec && Filename.check_suffix spec ".bench" then
    Netlist.Bench_format.parse_file spec
  else Circuits.Catalog.circuit ~scale spec

(* ---------------------------------------------------------------- args *)

let circuit_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"CIRCUIT" ~doc:"Catalog name (e.g. s298) or .bench file path.")

let scale_arg =
  let conv_scale =
    Arg.enum [ ("quick", Circuits.Profiles.Quick); ("full", Circuits.Profiles.Full) ]
  in
  Arg.(
    value & opt conv_scale Circuits.Profiles.Quick
    & info [ "scale" ] ~docv:"SCALE"
        ~doc:"Synthetic benchmark scale: $(b,quick) or $(b,full).")

let seed_arg =
  Arg.(
    value & opt int64 0x00C0FFEE5EEDL
    & info [ "seed" ] ~docv:"SEED" ~doc:"Root seed for all random streams.")

let chains_arg =
  Arg.(
    value & opt int 1
    & info [ "chains" ] ~docv:"N" ~doc:"Number of scan chains to insert.")

let out_arg =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the result to $(docv).")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Fault-simulation parallelism (OCaml domains). Results are \
              identical at any value; see DESIGN.md \xc2\xa76.")

let compact_jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "compact-jobs" ] ~docv:"N"
        ~doc:"Static-compaction parallelism: speculative trial evaluation \
              across OCaml domains in omission rounds and restoration \
              waves. Results are identical at any value; see DESIGN.md \
              \xc2\xa710.")

let metrics_arg =
  Arg.(
    value & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:"Write counters and per-phase timings as JSON \
              (schema scanatpg-metrics/1) to $(docv).")

let trace_arg =
  Arg.(
    value & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write phase spans to $(docv) (format chosen by \
              $(b,--trace-format)).")

let trace_format_arg =
  Arg.(
    value
    & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT"
        ~doc:"Span format for $(b,--trace): $(b,jsonl) (one span object \
              per line) or $(b,chrome) (Chrome trace-event JSON, loadable \
              in Perfetto or chrome://tracing).")

let observe_arg =
  Arg.(
    value & flag
    & info [ "observe" ]
        ~doc:"Also count good-machine toggle / switching activity \
              (reported via --metrics).")

let seqfile_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"SEQFILE" ~doc:"Sequence file (one 01x vector per line).")

(* ------------------------------------------------------------- helpers *)

let write_sequence path seq =
  let b = Buffer.create 4096 in
  Array.iter
    (fun v ->
      Buffer.add_string b (Logicsim.Vectors.to_string v);
      Buffer.add_char b '\n')
    seq;
  Obs.Fileio.write_string path (Buffer.contents b)

(* Read a sequence file of [width]-bit vectors.  Malformed input (a bad
   character, a vector of the wrong width, no vector at all) is rejected
   before any simulation with a message naming the file and the 1-based
   line. *)
let read_sequence ~width path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let acc = ref [] and lineno = ref 0 in
      let bad fmt =
        Printf.ksprintf invalid_arg ("%s:%d: " ^^ fmt) path !lineno
      in
      (try
         while true do
           let line = String.trim (input_line ic) in
           incr lineno;
           if line <> "" then begin
             let v =
               try Logicsim.Vectors.parse line
               with Invalid_argument msg -> bad "%s" msg
             in
             if Array.length v <> width then
               bad "vector width %d does not match circuit inputs (%d)"
                 (Array.length v) width;
             acc := v :: !acc
           end
         done
       with End_of_file -> ());
      incr lineno;
      if !acc = [] then bad "no vectors in the sequence file";
      Array.of_list (List.rev !acc))

let setup_scan ~chains circuit =
  let scan = Scanins.Scan.insert ~chains circuit in
  let model = Faultmodel.Model.build scan.Scanins.Scan.circuit in
  scan, model, Netlist.Circuit.input_count scan.Scanins.Scan.circuit

let omission_summary (o : Compaction.Omission.stats) =
  Printf.sprintf "omission: %d trials, %d accepted, %d rejected, %d vectors removed in %d passes"
    o.Compaction.Omission.trials o.Compaction.Omission.accepted
    o.Compaction.Omission.rejected o.Compaction.Omission.removed_vectors
    o.Compaction.Omission.passes

(* Run [f] with a metrics document and a tracer (live only when a --trace
   file was requested) and write the requested files afterwards.  The
   confirmations go to stderr so machine-readable stdout (CSV, .bench)
   stays clean.  The files are written even when [f] raises (e.g. a
   --halt-after stop), so partial runs still leave well-formed
   observability output behind. *)
let with_obs metrics_path trace_path trace_format f =
  let metrics = Obs.Metrics.create () in
  let trace =
    match trace_path with
    | None -> Obs.Trace.null
    | Some _ -> Obs.Trace.create ()
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter
        (fun p ->
          Obs.Metrics.write_file metrics p;
          Printf.eprintf "wrote %s\n" p)
        metrics_path;
      Option.iter
        (fun p ->
          (match trace_format with
           | `Jsonl -> Obs.Trace.write_jsonl trace p
           | `Chrome -> Obs.Trace.write_chrome trace p);
          Printf.eprintf "wrote %s\n" p)
        trace_path)
    (fun () -> f metrics trace)

(* The --metrics/--trace/--trace-format group of the compute commands,
   yielding the [with_obs] runner. *)
let obs_term = Term.(const with_obs $ metrics_arg $ trace_arg $ trace_format_arg)

(* ---------------------------------------------------------------- info *)

let info_cmd =
  let run spec scale obs =
    obs (fun metrics trace ->
        let c =
          Obs.Metrics.timed metrics ~trace "load" (fun () ->
              load_circuit ~scale spec)
        in
        Format.printf "%a@." Netlist.Circuit.pp_summary c;
        Format.printf "%a@." Netlist.Stats.pp (Netlist.Stats.of_circuit c);
        if Netlist.Circuit.dff_count c > 0 then begin
          let scan, model =
            Obs.Metrics.timed metrics ~trace "model-build" (fun () ->
                let scan = Scanins.Scan.insert c in
                scan, Faultmodel.Model.build scan.Scanins.Scan.circuit)
          in
          Format.printf "scan version: %a@." Netlist.Circuit.pp_summary
            scan.Scanins.Scan.circuit;
          Format.printf "faults: %d collapsed (universe %d)@."
            (Faultmodel.Model.fault_count model)
            model.Faultmodel.Model.universe_size
        end;
        0)
  in
  Cmd.v (Cmd.info "info" ~doc:"Show circuit structure and fault statistics.")
    Term.(const run $ circuit_arg $ scale_arg $ obs_term)

(* -------------------------------------------------------------- export *)

let export_cmd =
  let run spec scale out obs =
    obs (fun metrics trace ->
        let c =
          Obs.Metrics.timed metrics ~trace "load" (fun () ->
              load_circuit ~scale spec)
        in
        Obs.Metrics.timed metrics ~trace "export" (fun () ->
            match out with
            | Some path ->
              Netlist.Bench_format.write_file path c;
              Printf.printf "wrote %s\n" path
            | None -> print_string (Netlist.Bench_format.to_string c));
        0)
  in
  Cmd.v (Cmd.info "export" ~doc:"Write a catalog circuit in .bench format.")
    Term.(const run $ circuit_arg $ scale_arg $ out_arg $ obs_term)

(* ------------------------------------------------------------ generate *)

let generate_cmd =
  let no_compact =
    Arg.(value & flag & info [ "no-compact" ] ~doc:"Skip static compaction.")
  in
  let tester_arg =
    Arg.(
      value & opt (some string) None
      & info [ "tester" ] ~docv:"FILE"
          ~doc:"Also write a tester program (stimulus + expected responses).")
  in
  let run spec scale seed chains jobs compact_jobs no_compact out tester
      observe obs =
    obs (fun metrics trace ->
        let c = load_circuit ~scale spec in
        let scan, model, _ = setup_scan ~chains c in
        let cfg =
          Core.Config.make ~chains ~seed ~sim_jobs:jobs ~compact_jobs ~observe c
        in
        let sk = Atpg.Scan_knowledge.create scan in
        let flow =
          Obs.Metrics.timed metrics ~trace "generate" (fun () ->
              Core.Flow.generate ~metrics cfg sk model)
        in
        Printf.printf
          "coverage %.2f%% (%d/%d targeted, %d proven redundant excluded)\n"
          (Core.Flow.coverage flow) flow.Core.Flow.detected
          flow.Core.Flow.targeted flow.Core.Flow.pruned_redundant;
        Printf.printf
          "  by random %d, by ATPG %d, by scan drain %d, by scan load %d\n"
          flow.Core.Flow.by_random flow.Core.Flow.by_atpg flow.Core.Flow.by_drain
          flow.Core.Flow.by_justify;
        let seq = flow.Core.Flow.sequence in
        Printf.printf "sequence: %d vectors (%d scan)\n" (Array.length seq)
          (Core.Pipeline.scan_count scan seq);
        let final =
          if no_compact then seq
          else begin
            let _, compacted, ostats =
              Core.Pipeline.compact ~trace ~metrics cfg model seq
                flow.Core.Flow.targets
            in
            Printf.printf "compacted: %d vectors (%d scan)\n"
              (Array.length compacted)
              (Core.Pipeline.scan_count scan compacted);
            Printf.printf "  %s\n" (omission_summary ostats);
            compacted
          end
        in
        Option.iter
          (fun path ->
            write_sequence path final;
            Printf.printf "wrote %s\n" path)
          out;
        Option.iter
          (fun path ->
            let program = Core.Tester.build scan.Scanins.Scan.circuit final in
            Core.Tester.write_file path program;
            Printf.printf "wrote %s (%d cycles, %d observing)\n" path
              (Array.length final)
              (Core.Tester.observing_cycles program))
          tester;
        0)
  in
  Cmd.v
    (Cmd.info "generate"
       ~doc:"Generate (and compact) a unified test sequence for a circuit.")
    Term.(
      const run $ circuit_arg $ scale_arg $ seed_arg $ chains_arg $ jobs_arg
      $ compact_jobs_arg $ no_compact $ out_arg $ tester_arg $ observe_arg
      $ obs_term)

(* ------------------------------------------------------------- compact *)

let compact_cmd =
  let run spec scale seed chains jobs compact_jobs seqfile out obs =
    obs (fun metrics trace ->
        let c = load_circuit ~scale spec in
        let scan, model, width = setup_scan ~chains c in
        let cfg =
          Core.Config.make ~chains ~seed ~sim_jobs:jobs ~compact_jobs c
        in
        let seq = read_sequence ~width seqfile in
        let nf = Faultmodel.Model.fault_count model in
        let targets =
          Obs.Metrics.timed metrics ~trace "target-compute" (fun () ->
              Compaction.Target.compute ~jobs:cfg.Core.Config.sim_jobs model
                seq ~fault_ids:(Array.init nf Fun.id))
        in
        Printf.printf "sequence detects %d/%d faults\n"
          (Compaction.Target.count targets) nf;
        let _, compacted, ostats =
          Core.Pipeline.compact ~trace ~metrics cfg model seq targets
        in
        Printf.printf "%d -> %d vectors (scan %d -> %d)\n" (Array.length seq)
          (Array.length compacted)
          (Core.Pipeline.scan_count scan seq)
          (Core.Pipeline.scan_count scan compacted);
        Printf.printf "%s\n" (omission_summary ostats);
        Option.iter
          (fun path ->
            write_sequence path compacted;
            Printf.printf "wrote %s\n" path)
          out;
        0)
  in
  Cmd.v
    (Cmd.info "compact"
       ~doc:"Statically compact a test sequence (restoration, then omission).")
    Term.(
      const run $ circuit_arg $ scale_arg $ seed_arg $ chains_arg $ jobs_arg
      $ compact_jobs_arg $ seqfile_arg $ out_arg $ obs_term)

(* --------------------------------------------------------------- table *)

let table_cmd =
  let which_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("5", `T5); ("6", `T6); ("7", `T7) ])) None
      & info [] ~docv:"TABLE" ~doc:"Which paper table: 5, 6 or 7.")
  in
  let circuits_arg =
    Arg.(
      value
      & opt (list string) [ "s27"; "s298"; "s344"; "b01"; "b02" ]
      & info [ "circuits" ] ~docv:"NAMES" ~doc:"Comma-separated circuit names.")
  in
  let csv_arg =
    Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV instead of the text table.")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Also print per-circuit runtime and compaction statistics.")
  in
  let run which names scale csv jobs compact_jobs verbose observe obs =
    obs (fun metrics trace ->
        let results =
          List.map
            (fun n ->
              let c = Circuits.Catalog.circuit ~scale n in
              let config =
                Core.Config.make ~chains:Core.Config.default.chains
                  ~seed:Core.Config.default.seed ~sim_jobs:jobs ~compact_jobs
                  ~observe c
              in
              Core.Pipeline.run ~scale ~config ~metrics ~trace n)
            names
        in
        let pick text_fn csv_fn rows = if csv then csv_fn rows else text_fn rows in
        (match which with
         | `T5 ->
           print_string
             (pick Core.Report.table5 Core.Report.table5_csv
                (List.map (fun r -> r.Core.Pipeline.row5) results))
         | `T6 ->
           print_string
             (pick Core.Report.table6 Core.Report.table6_csv
                (List.map (fun r -> r.Core.Pipeline.row6) results))
         | `T7 ->
           print_string
             (pick Core.Report.table7 Core.Report.table7_csv
                (List.filter_map (fun r -> r.Core.Pipeline.row7) results)));
        if verbose then
          List.iter
            (fun r ->
              Printf.printf "%s: %.2fs; %s\n" r.Core.Pipeline.circuit
                r.Core.Pipeline.runtime_s
                (omission_summary r.Core.Pipeline.omit_stats))
            results;
        0)
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Regenerate rows of the paper's Tables 5-7.")
    Term.(
      const run $ which_arg $ circuits_arg $ scale_arg $ csv_arg $ jobs_arg
      $ compact_jobs_arg $ verbose_arg $ observe_arg $ obs_term)

(* ----------------------------------------------------------------- run *)

let run_cmd =
  let deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "deadline" ] ~docv:"SECONDS"
          ~doc:"Wall-clock budget for the whole run. When it expires every \
                phase winds down at its next safe point; the run exits with \
                code 3 and degraded (but sound) results.")
  in
  let backtracks_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-backtracks" ] ~docv:"N"
          ~doc:"Global PODEM backtrack budget — a deterministic alternative \
                to $(b,--deadline) with the same degradation behaviour.")
  in
  let checkpoint_arg =
    Arg.(
      value & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:"Atomically replace $(docv) with a resumable snapshot after \
                every pipeline phase and every $(b,--every) committed \
                subsequences during generation.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:"Resume from the $(b,--checkpoint) file instead of starting \
                over. Table rows and jobs-invariant counters are \
                bit-identical to an uninterrupted run.")
  in
  let every_arg =
    Arg.(
      value & opt int 25
      & info [ "every" ] ~docv:"K"
          ~doc:"Checkpoint cadence inside the generate phase (committed \
                subsequences between snapshots).")
  in
  let halt_arg =
    let phase =
      Arg.enum
        [ ("generate", "generate"); ("compact", "compact");
          ("extra-detect", "extra-detect"); ("baseline", "baseline") ]
    in
    Arg.(
      value & opt (some phase) None
      & info [ "halt-after" ] ~docv:"PHASE"
          ~doc:"Stop with exit code 4 right after $(docv) has checkpointed \
                — an induced crash for resume testing.")
  in
  let run spec scale seed chains jobs compact_jobs observe deadline backtracks
      checkpoint resume every halt_after obs =
    obs (fun metrics trace ->
        let c = Circuits.Catalog.circuit ~scale spec in
        let config =
          Core.Config.make ~chains ~seed ~sim_jobs:jobs ~compact_jobs ~observe c
        in
        let budget =
          match deadline, backtracks with
          | None, None -> Obs.Budget.unlimited
          | deadline_s, max_backtracks ->
            Obs.Budget.create ?deadline_s ?max_backtracks ()
        in
        let resume_file =
          if not resume then None
          else
            match checkpoint with
            | None ->
              raise
                (Core.Checkpoint.Corrupt "--resume requires --checkpoint FILE")
            | Some path -> Some (Core.Checkpoint.load path)
        in
        let r =
          Core.Pipeline.run ~scale ~config ~metrics ~trace ~budget ?checkpoint
            ?resume:resume_file ~checkpoint_every:every ?halt_after spec
        in
        print_string (Core.Report.table5 [ r.Core.Pipeline.row5 ]);
        print_string (Core.Report.table6 [ r.Core.Pipeline.row6 ]);
        Option.iter
          (fun row -> print_string (Core.Report.table7 [ row ]))
          r.Core.Pipeline.row7;
        if r.Core.Pipeline.degraded then begin
          (match Obs.Budget.tripped budget with
           | Some reason ->
             Printf.eprintf "scanatpg: budget exhausted (%s); results degraded\n"
               (Obs.Budget.reason_to_string reason)
           | None -> Printf.eprintf "scanatpg: results degraded\n");
          3
        end
        else 0)
  in
  let exits =
    Cmd.Exit.info 3
      ~doc:"the $(b,--deadline) / $(b,--max-backtracks) budget tripped and \
            the results are degraded."
    :: Cmd.Exit.info 4
         ~doc:"the run stopped at the requested $(b,--halt-after) phase \
               boundary (its checkpoint was written)."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "run" ~exits
       ~doc:"Run the full pipeline for one catalog circuit with optional \
             deadline, checkpointing and resume (see DESIGN.md, Resilience).")
    Term.(
      const run $ circuit_arg $ scale_arg $ seed_arg $ chains_arg $ jobs_arg
      $ compact_jobs_arg $ observe_arg $ deadline_arg
      $ backtracks_arg $ checkpoint_arg $ resume_arg $ every_arg $ halt_arg
      $ obs_term)

(* ------------------------------------------------------------ diagnose *)

let diagnose_cmd =
  let inject_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "inject" ] ~docv:"FAULT"
          ~doc:"Collapsed fault id whose faulty response plays the observed \
                failing device (a synthetic tester log).")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"Show the $(docv) best-ranked candidates.")
  in
  let run spec scale chains seqfile inject top obs =
    obs (fun metrics trace ->
        let c = load_circuit ~scale spec in
        let _, model, width = setup_scan ~chains c in
        let seq = read_sequence ~width seqfile in
        let nf = Faultmodel.Model.fault_count model in
        if inject < 0 || inject >= nf then
          invalid_arg
            (Printf.sprintf "--inject %d out of range (collapsed faults: 0..%d)"
               inject (nf - 1));
        let observed =
          Obs.Metrics.timed metrics ~trace "observe-sim" (fun () ->
              Core.Diagnose.response model ~fault:inject seq)
        in
        let ranking =
          Obs.Metrics.timed metrics ~trace "diagnose" (fun () ->
              Core.Diagnose.run model seq ~observed ())
        in
        let perfect = Core.Diagnose.perfect ranking in
        Printf.printf
          "%d candidates ranked; %d explain the observation exactly\n"
          (List.length ranking) (List.length perfect);
        List.iteri
          (fun i cand ->
            if i < top then
              Printf.printf "%2d. fault %d: matched %d, missed %d, extra %d%s\n"
                (i + 1) cand.Core.Diagnose.fault cand.Core.Diagnose.matched
                cand.Core.Diagnose.missed cand.Core.Diagnose.extra
                (if cand.Core.Diagnose.fault = inject then "  <- injected"
                 else ""))
          ranking;
        0)
  in
  Cmd.v
    (Cmd.info "diagnose"
       ~doc:"Rank stuck-at fault candidates against an observed failing \
             response (cause-effect diagnosis).")
    Term.(
      const run $ circuit_arg $ scale_arg $ chains_arg $ seqfile_arg
      $ inject_arg $ top_arg $ obs_term)

(* --------------------------------------------------------------- serve *)

let socket_arg =
  Arg.(
    value & opt string "scanatpg.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to listen on / connect to.")

let tcp_arg =
  Arg.(
    value & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:"Use TCP instead of the Unix socket (opt-in; e.g. \
              127.0.0.1:7227).")

let quiet_arg =
  Arg.(
    value & flag
    & info [ "quiet"; "q" ] ~doc:"Suppress lifecycle messages on stderr.")

let parse_addr socket tcp =
  match tcp with
  | None -> Server.Daemon.Unix_sock socket
  | Some spec -> (
    match String.rindex_opt spec ':' with
    | None ->
      invalid_arg (Printf.sprintf "--tcp %s: expected HOST:PORT" spec)
    | Some i ->
      let host = String.sub spec 0 i in
      let port_s = String.sub spec (i + 1) (String.length spec - i - 1) in
      (try ignore (Unix.inet_addr_of_string host)
       with Failure _ ->
         invalid_arg
           (Printf.sprintf "--tcp %s: HOST must be an IP address, not %s" spec
              host));
      (match int_of_string_opt port_s with
      | Some port when port > 0 && port < 65536 -> Server.Daemon.Tcp (host, port)
      | _ -> invalid_arg (Printf.sprintf "--tcp %s: bad port %s" spec port_s)))

let serve_cmd =
  let server_jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "server-jobs" ] ~docv:"N"
          ~doc:"Worker domains executing requests concurrently. Response \
                payloads are identical at any value; see DESIGN.md \xc2\xa711.")
  in
  let queue_arg =
    Arg.(
      value & opt int 16
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Admission bound: requests beyond $(docv) waiting are \
                answered with a typed $(b,overloaded) response instead of \
                queueing unboundedly.")
  in
  let cache_arg =
    Arg.(
      value & opt int 8
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Compiled circuits (parse + levelize + fault collapse + \
                SCOAP) kept resident, evicted least-recently-used.")
  in
  let access_arg =
    Arg.(
      value & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:"Write one JSON line per request (id, op, circuit, status, \
                cache, trace_id, queue_wait_ns, service_ns, bytes in/out) \
                to $(docv), flushed per line so $(b,tail -f) follows a \
                live daemon.")
  in
  let slow_arg =
    Arg.(
      value & opt (some int) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:"Slow-request log: a request whose end-to-end latency \
                exceeds $(docv) milliseconds dumps its full span tree \
                into its access-log line.")
  in
  let grace_arg =
    Arg.(
      value & opt float 5.0
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:"On shutdown, let in-flight work run for $(docv) seconds \
                before tripping its budgets (degraded but sound responses).")
  in
  let idle_arg =
    Arg.(
      value & opt float 0.0
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Close a connection with no traffic and nothing in flight \
                after $(docv) seconds (counter \
                $(b,server.conn_idle_closed)). 0 (the default) keeps idle \
                connections forever.")
  in
  let read_deadline_arg =
    Arg.(
      value & opt float 30.0
      & info [ "read-deadline" ] ~docv:"SECONDS"
          ~doc:"A started request frame must complete within $(docv) \
                seconds or the connection is cut (slowloris defence; \
                counters $(b,server.bad_request), \
                $(b,server.conn_aborted)). 0 disables.")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Per-connection in-flight cap: a pipelining client with \
                $(docv) unanswered compute requests gets typed \
                $(b,overloaded) rejections, so one connection cannot claim \
                the whole queue.")
  in
  let chaos_arg =
    Arg.(
      value & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:"Arm deterministic fault-injection sites, e.g. \
                $(b,seed=42;worker=crash@0.03;cache.compile=error#1). \
                Sites: accept, queue, worker, cache.compile, writer; \
                actions error, crash, delay:<ms>, with optional @prob and \
                #max-fires. Reconfigure at runtime with the $(b,chaos) op; \
                $(b,off) clears. See DESIGN.md \xc2\xa713.")
  in
  let run socket tcp jobs queue cache scale access grace
      metrics_path trace_path trace_format slow_ms idle read_deadline
      max_inflight chaos quiet =
    Server.Daemon.run
      {
        Server.Daemon.addr = parse_addr socket tcp;
        jobs;
        queue_depth = queue;
        cache_capacity = cache;
        default_scale = scale;
        access_log = access;
        metrics_path;
        trace_path;
        trace_format =
          (match trace_format with
           | `Jsonl -> Server.Daemon.Jsonl
           | `Chrome -> Server.Daemon.Chrome);
        slow_ms;
        drain_grace_s = grace;
        idle_timeout_s = (if idle > 0.0 then Some idle else None);
        read_deadline_s =
          (if read_deadline > 0.0 then Some read_deadline else None);
        max_inflight;
        chaos;
        install_signals = true;
        verbose = not quiet;
      }
  in
  let exits =
    Cmd.Exit.info 0
      ~doc:"after a clean drain (SIGTERM, SIGINT or a $(b,shutdown) request)."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "serve" ~exits
       ~doc:"Run the ATPG service daemon: length-prefixed JSON requests over \
             a Unix-domain socket (or $(b,--tcp)), with circuit caching, \
             admission control, graceful drain and per-request tracing \
             (DESIGN.md \xc2\xa711-\xc2\xa712).")
    Term.(
      const run $ socket_arg $ tcp_arg $ server_jobs_arg $ queue_arg $ cache_arg $ scale_arg $ access_arg $ grace_arg
      $ metrics_arg $ trace_arg $ trace_format_arg $ slow_arg $ idle_arg
      $ read_deadline_arg $ max_inflight_arg $ chaos_arg $ quiet_arg)

(* -------------------------------------------------------------- router *)

let router_cmd =
  let shards_arg =
    Arg.(
      value & opt int 2
      & info [ "shards" ] ~docv:"N"
          ~doc:"Backend daemons to spawn and route across. Shard choice \
                hashes the request's circuit content, so a circuit's \
                requests pin to one shard and keep its compiled-circuit \
                cache hot.")
  in
  let result_cache_arg =
    Arg.(
      value & opt int 256
      & info [ "result-cache" ] ~docv:"N"
          ~doc:"Response payloads memoized by request content, evicted \
                least-recently-used. Valid by the determinism contract: a \
                cached response is byte-identical to a computed one. 0 \
                disables.")
  in
  let shard_jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "server-jobs" ] ~docv:"N"
          ~doc:"Worker domains per shard (passed through to each shard's \
                $(b,serve)).")
  in
  let cache_arg =
    Arg.(
      value & opt int 8
      & info [ "cache-capacity" ] ~docv:"N"
          ~doc:"Per-shard compiled-circuit LRU capacity (passed through).")
  in
  let grace_arg =
    Arg.(
      value & opt float 5.0
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:"On shutdown, let routed requests run down for $(docv) \
                seconds before answering the stragglers with typed errors \
                and fanning the shutdown out to the shards.")
  in
  let chaos_arg =
    Arg.(
      value & opt (some string) None
      & info [ "chaos" ] ~docv:"SPEC"
          ~doc:"Arm the router's fault-injection sites, e.g. \
                $(b,seed=42;shard=crash#1;writer=error@0.02). Site \
                $(b,shard) kills the dispatch target's process; \
                $(b,writer) faults a client response write. Reconfigure at \
                runtime with the $(b,chaos) op.")
  in
  let shard_chaos_arg =
    Arg.(
      value & opt (some string) None
      & info [ "shard-chaos" ] ~docv:"SPEC"
          ~doc:"Failpoint spec passed to every shard's $(b,serve --chaos) \
                (daemon sites: accept, queue, worker, cache.compile, \
                writer).")
  in
  let run socket tcp shards result_cache jobs cache_capacity grace
      chaos shard_chaos metrics_path quiet =
    let addr = parse_addr socket tcp in
    (* Each shard is this very binary re-exec'ed as `serve` on its own
       socket, so the router supervises real OS processes and an injected
       shard crash is a genuine SIGKILL. *)
    let exe = Sys.executable_name in
    let argv_of _idx shard_socket =
      let base =
        [ exe; "serve"; "--socket"; shard_socket; "--quiet";
          "--server-jobs"; string_of_int jobs;
          "--cache-capacity"; string_of_int cache_capacity ]
      in
      let argv =
        match shard_chaos with
        | None -> base
        | Some spec -> base @ [ "--chaos"; spec ]
      in
      Array.of_list argv
    in
    Fleet.Router.run
      {
        (Fleet.Router.default_config addr ~shards ~launcher:argv_of) with
        Fleet.Router.result_cache_capacity = result_cache;
        drain_grace_s = grace;
        chaos;
        metrics_path;
        verbose = not quiet;
      }
  in
  let exits =
    Cmd.Exit.info 0
      ~doc:"after a clean drain: shards shut down and collected."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "router" ~exits
       ~doc:"Run a sharding front end: spawn and supervise $(b,--shards) \
             backend daemons, route each request to a shard by hashing its \
             circuit content, and answer repeated requests from a \
             content-addressed result cache (DESIGN.md \xc2\xa715). Speaks \
             the same wire protocol as $(b,serve), so $(b,batch), \
             $(b,stats) and $(b,top) point at it unchanged.")
    Term.(
      const run $ socket_arg $ tcp_arg $ shards_arg $ result_cache_arg
      $ shard_jobs_arg $ cache_arg $ grace_arg $ chaos_arg
      $ shard_chaos_arg $ metrics_arg $ quiet_arg)

(* --------------------------------------------------------------- batch *)

let batch_cmd =
  let input_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"REQUESTS"
          ~doc:"JSONL file: one request object per line (ids assigned \
                sequentially when absent).")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:"Survive dropped connections: reconnect and replay only the \
                still-unanswered requests, up to $(docv) extra attempts. \
                Safe because compute payloads are pure functions of their \
                requests — a retried batch is byte-identical to an \
                uninterrupted one.")
  in
  let backoff_arg =
    Arg.(
      value & opt int 100
      & info [ "backoff-ms" ] ~docv:"MS"
          ~doc:"Base delay before the first retry, doubling per attempt \
                with deterministic jitter.")
  in
  let rate_arg =
    Arg.(
      value & opt (some float) None
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Load-harness mode: replay the input as request templates \
                at an open-loop $(docv) arrivals per second for \
                $(b,--duration) seconds, and report latency percentiles \
                instead of writing responses. The sender never waits on \
                the server, so overload shows up in the measured tail.")
  in
  let duration_arg =
    Arg.(
      value & opt float 10.0
      & info [ "duration" ] ~docv:"SECONDS"
          ~doc:"Length of the load-harness schedule (with $(b,--rate)).")
  in
  let load_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:"Seed for the deterministic template-per-arrival draw (with \
                $(b,--rate)); the same seed replays the same mix.")
  in
  let report_arg =
    Arg.(
      value & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Write the load-harness report (schema \
                $(b,scanatpg-load/1)) as JSON to $(docv).")
  in
  let run socket tcp input out retries backoff_ms rate duration seed report =
    let addr = parse_addr socket tcp in
    match rate with
    | Some rate ->
      let r =
        Fleet.Loadgen.run ~addr ~templates:(Server.Client.read_lines input)
          ~rate ~duration_s:duration ~seed ()
      in
      Fleet.Loadgen.print_report r;
      (match report with
      | None -> ()
      | Some path ->
        Obs.Fileio.write_string path
          (Obs.Json.to_string (Fleet.Loadgen.report_json r) ^ "\n"));
      if r.Fleet.Loadgen.lost > 0 then 1 else 0
    | None ->
      let outcomes =
        Server.Client.run_batch ~addr ~input ?output:out ~retries ~backoff_ms
          ()
      in
      let count s =
        List.length
          (List.filter (fun o -> o.Server.Client.status = s) outcomes)
      in
      let total = List.length outcomes in
      let ok = count "ok" and degraded = count "degraded" in
      let failed = total - ok - degraded in
      Printf.eprintf
        "scanatpg batch: %d request(s): %d ok, %d degraded, %d failed\n%!"
        total ok degraded failed;
      if failed > 0 then 1 else if degraded > 0 then 3 else 0
  in
  let exits =
    Cmd.Exit.info 3 ~doc:"every response arrived but some were degraded."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "batch" ~exits
       ~doc:"Pipeline a JSONL file of requests to a running daemon, collect \
             the responses by id, and write them in request order; or, with \
             $(b,--rate), replay the file as an open-loop load schedule and \
             report latency percentiles.")
    Term.(
      const run $ socket_arg $ tcp_arg $ input_arg $ out_arg $ retries_arg
      $ backoff_arg $ rate_arg $ duration_arg $ load_seed_arg $ report_arg)

(* --------------------------------------------------------------- stats *)

let fetch_stats conn ~prom =
  let req =
    if prom then "{\"id\": 1, \"op\": \"stats\", \"format\": \"prometheus\"}"
    else "{\"id\": 1, \"op\": \"stats\"}"
  in
  Server.Client.call conn req

let stats_cmd =
  let prom_arg =
    Arg.(
      value & flag
      & info [ "prom" ]
          ~doc:"Print the Prometheus text exposition instead of the JSON \
                document.")
  in
  let run socket tcp prom =
    let conn = Server.Client.connect (parse_addr socket tcp) in
    Fun.protect
      ~finally:(fun () -> Server.Client.close conn)
      (fun () ->
        let resp = fetch_stats conn ~prom in
        if prom then begin
          match
            Option.bind
              (Obs.Json.member "text" (Obs.Json.parse resp))
              Obs.Json.get_str
          with
          | Some text ->
            print_string text;
            0
          | None ->
            Printf.eprintf "scanatpg stats: unexpected response: %s\n" resp;
            1
        end
        else begin
          print_string resp;
          print_newline ();
          0
        end)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Fetch a running daemon's live metrics: counters, phase \
             timings, latency histograms with percentiles — as JSON or \
             ($(b,--prom)) Prometheus text exposition.")
    Term.(const run $ socket_arg $ tcp_arg $ prom_arg)

(* ----------------------------------------------------------------- top *)

(* A terse terminal dashboard over the stats op: rps from the counter
   delta between polls, percentiles from the cumulative latency
   histograms.  One refreshing line on a tty, one line per poll when
   piped. *)
let top_cmd =
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval"; "n" ] ~docv:"SECONDS"
          ~doc:"Seconds between polls.")
  in
  let count_arg =
    Arg.(
      value & opt int 0
      & info [ "count" ] ~docv:"N"
          ~doc:"Stop after $(docv) polls (0 = run until interrupted or the \
                daemon drains).")
  in
  let jfield obj name j =
    Option.bind (Obs.Json.member obj j) (Obs.Json.member name)
  in
  let counter j name =
    match Option.bind (jfield "counters" name j) Obs.Json.get_int with
    | Some v -> v
    | None -> 0
  in
  let pct j hist p =
    match
      Option.bind
        (Option.bind (jfield "histograms" hist j) (Obs.Json.member p))
        Obs.Json.get_int
    with
    | Some v -> v
    | None -> 0
  in
  let ms ns = Printf.sprintf "%.1fms" (float_of_int ns /. 1e6) in
  let render j ~rps =
    let hit = counter j "server.cache_hit" in
    let miss = counter j "server.cache_miss" in
    let cache =
      if hit + miss = 0 then "-"
      else Printf.sprintf "%.1f%%" (100. *. float_of_int hit /. float_of_int (hit + miss))
    in
    Printf.sprintf
      "rps %6.1f | inflight %d | e2e p50 %s p95 %s p99 %s | queue p95 %s | \
       cache %s | reqs %d"
      rps
      (counter j "server.inflight")
      (ms (pct j "server.e2e_ns" "p50"))
      (ms (pct j "server.e2e_ns" "p95"))
      (ms (pct j "server.e2e_ns" "p99"))
      (ms (pct j "server.queue_wait_ns" "p95"))
      cache
      (counter j "server.accepted")
  in
  let single_loop conn interval count tty =
    let rec loop i prev =
      match fetch_stats conn ~prom:false with
      | exception (Failure _ | Unix.Unix_error _) ->
        (* The daemon drained mid-watch: not an error for a monitor. *)
        if tty then print_newline ();
        Printf.eprintf "scanatpg top: daemon went away\n";
        0
      | resp ->
        let j = Obs.Json.parse resp in
        let now = Unix.gettimeofday () in
        let accepted = counter j "server.accepted" in
        let rps =
          match prev with
          | Some (pa, pt) when now > pt ->
            float_of_int (accepted - pa) /. (now -. pt)
          | _ -> 0.0
        in
        if tty then Printf.printf "\r\027[2K%s%!" (render j ~rps)
        else Printf.printf "%s\n%!" (render j ~rps);
        if count > 0 && i + 1 >= count then begin
          if tty then print_newline ();
          0
        end
        else begin
          Unix.sleepf interval;
          loop (i + 1) (Some (accepted, now))
        end
    in
    loop 0 None
  in
  (* Fleet mode (several --socket targets, e.g. a router plus its
     shards): one aggregate line — rps summed across targets, p99 the
     worst target's — then a row per target.  A target that is down
     (shard mid-restart) renders as such and is retried next poll
     instead of ending the watch. *)
  let multi_loop addrs interval count tty =
    let label = function
      | Server.Daemon.Unix_sock p -> p
      | Server.Daemon.Tcp (h, p) -> Printf.sprintf "%s:%d" h p
    in
    let width =
      List.fold_left (fun w a -> max w (String.length (label a))) 0 addrs
    in
    let targets =
      Array.of_list
        (List.map (fun a -> a, ref None, ref None (* conn, prev *)) addrs)
    in
    let poll (addr, conn, _) =
      (match !conn with
      | None -> (
        try conn := Some (Server.Client.connect addr) with _ -> ())
      | Some _ -> ());
      match !conn with
      | None -> None
      | Some c -> (
        match fetch_stats c ~prom:false with
        | exception _ ->
          (try Server.Client.close c with _ -> ());
          conn := None;
          None
        | resp -> ( try Some (Obs.Json.parse resp) with _ -> None))
    in
    let finally () =
      Array.iter
        (fun (_, conn, _) ->
          match !conn with
          | Some c -> ( try Server.Client.close c with _ -> ())
          | None -> ())
        targets
    in
    Fun.protect ~finally (fun () ->
        let nlines = Array.length targets + 1 in
        let rec loop i first =
          let now = Unix.gettimeofday () in
          let rows =
            Array.map
              (fun ((addr, _, prev) as t) ->
                match poll t with
                | None ->
                  prev := None;
                  label addr, None, 0.0
                | Some j ->
                  let accepted = counter j "server.accepted" in
                  let rps =
                    match !prev with
                    | Some (pa, pt) when now > pt ->
                      float_of_int (accepted - pa) /. (now -. pt)
                    | _ -> 0.0
                  in
                  prev := Some (accepted, now);
                  label addr, Some j, rps)
              targets
          in
          let up = ref 0
          and rps_sum = ref 0.0
          and inflight = ref 0
          and p99_max = ref 0
          and hit = ref 0
          and miss = ref 0
          and rhit = ref 0
          and rmiss = ref 0 in
          Array.iter
            (fun (_, j, rps) ->
              match j with
              | None -> ()
              | Some j ->
                incr up;
                rps_sum := !rps_sum +. rps;
                inflight := !inflight + counter j "server.inflight";
                p99_max := max !p99_max (pct j "server.e2e_ns" "p99");
                hit := !hit + counter j "server.cache_hit";
                miss := !miss + counter j "server.cache_miss";
                rhit := !rhit + counter j "server.result_hit";
                rmiss := !rmiss + counter j "server.result_miss")
            rows;
          let ratio h m =
            if h + m = 0 then "-"
            else
              Printf.sprintf "%.1f%%"
                (100. *. float_of_int h /. float_of_int (h + m))
          in
          let agg =
            Printf.sprintf
              "%-*s rps %6.1f | inflight %d | worst p99 %s | cache %s | \
               results %s | up %d/%d"
              width "fleet" !rps_sum !inflight (ms !p99_max)
              (ratio !hit !miss) (ratio !rhit !rmiss) !up
              (Array.length targets)
          in
          if tty && not first then Printf.printf "\027[%dA" nlines;
          let put line =
            if tty then Printf.printf "\r\027[2K%s\n" line
            else Printf.printf "%s\n" line
          in
          put agg;
          Array.iter
            (fun (lbl, j, rps) ->
              match j with
              | None -> put (Printf.sprintf "%-*s down" width lbl)
              | Some j ->
                put (Printf.sprintf "%-*s %s" width lbl (render j ~rps)))
            rows;
          print_string "";
          flush stdout;
          if count > 0 && i + 1 >= count then 0
          else begin
            Unix.sleepf interval;
            loop (i + 1) false
          end
        in
        loop 0 true)
  in
  let run sockets tcp interval count =
    let addrs =
      let socks =
        if sockets = [] && tcp = None then [ "scanatpg.sock" ] else sockets
      in
      List.map (fun s -> Server.Daemon.Unix_sock s) socks
      @ (match tcp with None -> [] | Some _ -> [ parse_addr "" tcp ])
    in
    let tty = Unix.isatty Unix.stdout in
    match addrs with
    | [ addr ] ->
      let conn = Server.Client.connect addr in
      Fun.protect
        ~finally:(fun () -> Server.Client.close conn)
        (fun () -> single_loop conn interval count tty)
    | addrs -> multi_loop addrs interval count tty
  in
  let sockets_arg =
    Arg.(
      value & opt_all string []
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket to watch; repeat to watch a fleet (a \
                router and/or its shards) with an aggregate line plus a \
                per-target row.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:"Watch one or more running daemons: requests per second, \
             in-flight count, queue-wait and end-to-end latency \
             percentiles, cache hit rate — refreshed every \
             $(b,--interval) seconds. Several $(b,--socket) targets \
             aggregate into a fleet-wide line plus per-shard rows.")
    Term.(const run $ sockets_arg $ tcp_arg $ interval_arg $ count_arg)

(* ---------------------------------------------------------------- main *)

let () =
  let doc =
    "Test generation and compaction for scan circuits without the \
     scan/functional distinction (Pomeranz & Reddy, DATE 2003)."
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"on an internal error."
    :: Cmd.Exit.info 2
         ~doc:"on malformed input: .bench parse errors, unknown circuit \
               names, unreadable sequence files, corrupt or mismatched \
               checkpoints."
    :: Cmd.Exit.info 3 ~doc:"on a degraded run (resource budget tripped)."
    :: Cmd.Exit.info 4 ~doc:"on a $(b,--halt-after) stop."
    :: Cmd.Exit.defaults
  in
  let code =
    try
      Cmd.eval' ~catch:false
        (Cmd.group
           (Cmd.info "scanatpg" ~version:"1.0.0" ~doc ~exits)
           [ info_cmd; export_cmd; generate_cmd; compact_cmd; table_cmd;
             run_cmd; diagnose_cmd; serve_cmd; router_cmd; batch_cmd;
             stats_cmd; top_cmd ])
    with
    | Netlist.Bench_format.Parse_error { line; col; token; message } ->
      Printf.eprintf "scanatpg: parse error at line %d, column %d (%S): %s\n"
        line col token message;
      2
    | Core.Checkpoint.Corrupt msg ->
      Printf.eprintf "scanatpg: checkpoint error: %s\n" msg;
      2
    | Core.Pipeline.Halted phase ->
      Printf.eprintf "scanatpg: halted after the %s phase (checkpoint written)\n"
        phase;
      4
    | Not_found ->
      Printf.eprintf "scanatpg: unknown circuit (not in the catalog)\n";
      2
    | Sys_error msg ->
      Printf.eprintf "scanatpg: %s\n" msg;
      2
    | Netlist.Circuit.Invalid_circuit msg ->
      Printf.eprintf "scanatpg: invalid circuit: %s\n" msg;
      2
    | Invalid_argument msg ->
      Printf.eprintf "scanatpg: %s\n" msg;
      2
    | Unix.Unix_error (e, fn, arg) ->
      Printf.eprintf "scanatpg: %s: %s%s\n" fn (Unix.error_message e)
        (if arg = "" then "" else " (" ^ arg ^ ")");
      2
    | Failure msg ->
      Printf.eprintf "%s\n" msg;
      2
    | e ->
      Printf.eprintf "scanatpg: internal error: %s\n" (Printexc.to_string e);
      1
  in
  exit code
