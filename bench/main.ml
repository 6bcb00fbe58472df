(* Paper reproducer: regenerates every table of the paper's evaluation
   (Tables 5, 6 and 7), prints paper-vs-measured comparisons, and runs the
   ablation studies called out in DESIGN.md.  Performance is measured by
   the end-to-end benchmark under bench/e2e, not here; this harness writes
   no file.

   Usage:
     dune exec bench/main.exe                       # everything, quick scale
     dune exec bench/main.exe -- --circuits s27,s298
     dune exec bench/main.exe -- --tables 5,6      # subset of tables
     dune exec bench/main.exe -- --scale full      # faithful circuit sizes
     dune exec bench/main.exe -- --no-ablation
     dune exec bench/main.exe -- --jobs 4          # parallel circuits *)

let default_circuits =
  [ "s27"; "s208"; "s298"; "s344"; "s382"; "s386"; "s400"; "s420"; "s444";
    "s510"; "s526"; "s641"; "s820"; "s953"; "s1196"; "s1423"; "s1488";
    "s5378"; "s35932"; "b01"; "b02"; "b03"; "b04"; "b06"; "b09"; "b10"; "b11" ]

type options = {
  mutable circuits : string list;
  mutable scale : Circuits.Profiles.scale;
  mutable tables : int list;
  mutable ablation : bool;
  mutable jobs : int;
}

(* Every malformed command line exits 2 with a message naming the flag. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let parse_args () =
  let o =
    {
      circuits = default_circuits;
      scale = Circuits.Profiles.Quick;
      tables = [ 5; 6; 7 ];
      ablation = true;
      jobs = max 1 (min 8 (Domain.recommended_domain_count () - 1));
    }
  in
  let rec go = function
    | [] -> ()
    | "--circuits" :: v :: rest ->
      let names = String.split_on_char ',' v in
      List.iter
        (fun n ->
          if not (List.mem n Circuits.Catalog.names) then
            usage_error "--circuits: unknown circuit %S" n)
        names;
      o.circuits <- names;
      go rest
    | "--scale" :: v :: rest ->
      o.scale <-
        (match v with
         | "quick" -> Circuits.Profiles.Quick
         | "full" -> Circuits.Profiles.Full
         | _ -> usage_error "--scale: expected quick or full, got %S" v);
      go rest
    | "--tables" :: v :: rest ->
      o.tables <-
        List.map
          (fun t ->
            match int_of_string_opt t with
            | Some (5 | 6 | 7 as n) -> n
            | _ ->
              usage_error "--tables: expected a list of 5, 6 and 7, got %S" v)
          (String.split_on_char ',' v);
      go rest
    | "--no-ablation" :: rest ->
      o.ablation <- false;
      go rest
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n >= 1 -> o.jobs <- n
       | _ -> usage_error "--jobs: expected a positive integer, got %S" v);
      go rest
    | [ ("--circuits" | "--scale" | "--tables" | "--jobs") as flag ] ->
      usage_error "%s: missing value" flag
    | arg :: _ -> usage_error "unknown argument %s" arg
  in
  go (List.tl (Array.to_list Sys.argv));
  o

(* ------------------------------------------------- parallel circuit map *)

let parallel_map ~jobs f xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        results.(i) <- Some (f xs.(i));
        loop ()
      end
    in
    loop ()
  in
  let domains = Array.init (min jobs n) (fun _ -> Domain.spawn worker) in
  Array.iter Domain.join domains;
  Array.to_list
    (Array.map
       (function
         | Some r -> r
         | None -> failwith "parallel_map: missing result")
       results)

(* --------------------------------------------------------- comparisons *)

let ratio a b = if b = 0 then nan else float_of_int a /. float_of_int b

let compare5 (rows : Core.Pipeline.table5_row list) =
  print_endline "--- Table 5: paper vs measured (fault coverage) ---";
  print_endline
    "circ        paper:faults  fcov  funct | ours:faults  fcov  funct";
  List.iter
    (fun (r : Core.Pipeline.table5_row) ->
      match Paper_data.find5 r.Core.Pipeline.name with
      | None ->
        Printf.printf "%-10s %12s %6s %5s | %11d %6.2f %5d\n" r.Core.Pipeline.name
          "-" "-" "-" r.Core.Pipeline.faults r.Core.Pipeline.fcov
          r.Core.Pipeline.funct
      | Some p ->
        Printf.printf "%-10s %12d %6.2f %5d | %11d %6.2f %5d\n"
          r.Core.Pipeline.name p.Paper_data.faults p.Paper_data.fcov
          p.Paper_data.funct r.Core.Pipeline.faults r.Core.Pipeline.fcov
          r.Core.Pipeline.funct)
    rows;
  print_newline ()

let compare6 (rows : Core.Pipeline.table6_row list) =
  print_endline
    "--- Table 6: paper vs measured (compaction vs complete-scan baseline) ---";
  print_endline
    "circ        paper: omit/test  omit<cyc26 | ours: omit/test  omit<cyc26";
  List.iter
    (fun (r : Core.Pipeline.table6_row) ->
      let ours_ratio =
        ratio r.Core.Pipeline.omit_len.Core.Pipeline.total
          r.Core.Pipeline.test_len.Core.Pipeline.total
      in
      let ours_win =
        r.Core.Pipeline.omit_len.Core.Pipeline.total < r.Core.Pipeline.baseline_cycles
      in
      match Paper_data.find6 r.Core.Pipeline.name with
      | None ->
        Printf.printf "%-10s %17s %11s | %15.2f %11b\n" r.Core.Pipeline.name "-"
          "-" ours_ratio ours_win
      | Some p ->
        let paper_ratio = ratio p.Paper_data.omit_total p.Paper_data.test_total in
        let paper_win =
          match p.Paper_data.cyc26 with
          | Some c -> Printf.sprintf "%b" (p.Paper_data.omit_total < c)
          | None -> "NA"
        in
        Printf.printf "%-10s %17.2f %11s | %15.2f %11b\n" r.Core.Pipeline.name
          paper_ratio paper_win ours_ratio ours_win)
    rows;
  print_newline ()

let compare7 (rows : Core.Pipeline.table7_row list) =
  print_endline "--- Table 7: paper vs measured (translated test sets) ---";
  print_endline "circ        paper: omit/cyc26 | ours: omit/cyc26";
  List.iter
    (fun (r : Core.Pipeline.table7_row) ->
      let ours =
        ratio r.Core.Pipeline.omit_len.Core.Pipeline.total
          r.Core.Pipeline.baseline_cycles
      in
      match Paper_data.find7 r.Core.Pipeline.name with
      | None -> Printf.printf "%-10s %17s | %15.2f\n" r.Core.Pipeline.name "-" ours
      | Some p ->
        Printf.printf "%-10s %17.2f | %15.2f\n" r.Core.Pipeline.name
          (ratio p.Paper_data.omit_total p.Paper_data.cyc26)
          ours)
    rows;
  print_newline ()

(* ------------------------------------------------------------ ablation *)

let ablation_circuits = [ "s27"; "s298"; "b01" ]

let compact_with cfg model seq targets ~restor ~omit =
  let seq, targets =
    if restor then begin
      let r = Compaction.Restoration.run model seq targets in
      let t =
        Compaction.Target.compute model r
          ~fault_ids:targets.Compaction.Target.fault_ids
      in
      r, t
    end
    else seq, targets
  in
  if omit then
    let s, _, _ =
      Compaction.Omission.run model seq targets cfg.Core.Config.omission
    in
    s
  else seq

let ablation_compaction_order () =
  print_endline "--- Ablation: compaction procedure choice ---";
  print_endline "circ        none  omit-only  restor-only  restor+omit";
  List.iter
    (fun name ->
      let c = Circuits.Catalog.circuit name in
      let cfg = Core.Config.for_circuit c in
      let scan = Scanins.Scan.insert c in
      let model = Faultmodel.Model.build scan.Scanins.Scan.circuit in
      let sk = Atpg.Scan_knowledge.create scan in
      let flow = Core.Flow.generate cfg sk model in
      let seq = flow.Core.Flow.sequence and targets = flow.Core.Flow.targets in
      let l ~restor ~omit =
        Array.length (compact_with cfg model seq targets ~restor ~omit)
      in
      Printf.printf "%-10s %5d %10d %12d %12d\n" name (Array.length seq)
        (l ~restor:false ~omit:true)
        (l ~restor:true ~omit:false)
        (l ~restor:true ~omit:true))
    ablation_circuits;
  print_newline ()

let ablation_scan_knowledge () =
  print_endline
    "--- Ablation: scan functional knowledge (drain / justification) ---";
  print_endline "circ        full-flow   no-drain   no-justify   neither";
  List.iter
    (fun name ->
      let c = Circuits.Catalog.circuit name in
      let scan = Scanins.Scan.insert c in
      let model = Faultmodel.Model.build scan.Scanins.Scan.circuit in
      let sk = Atpg.Scan_knowledge.create scan in
      let cov ~drain ~justify =
        let cfg =
          { (Core.Config.for_circuit c) with
            Core.Config.use_drain = drain;
            use_justify = justify;
            random_phase = None (* isolate the deterministic engine *) }
        in
        Core.Flow.coverage (Core.Flow.generate cfg sk model)
      in
      Printf.printf "%-10s %9.2f %10.2f %12.2f %9.2f\n" name
        (cov ~drain:true ~justify:true)
        (cov ~drain:false ~justify:true)
        (cov ~drain:true ~justify:false)
        (cov ~drain:false ~justify:false))
    ablation_circuits;
  print_newline ()

let ablation_chains () =
  print_endline "--- Ablation: number of scan chains ---";
  print_endline "circ        chains  N_SV  compacted  baseline-cycles";
  List.iter
    (fun name ->
      List.iter
        (fun chains ->
          let c = Circuits.Catalog.circuit name in
          if chains <= Netlist.Circuit.dff_count c then begin
            let cfg = { (Core.Config.for_circuit c) with Core.Config.chains } in
            let r = Core.Pipeline.run ~config:cfg name in
            Printf.printf "%-10s %6d %5d %10d %16d\n" name chains
              (Scanins.Scan.nsv (Scanins.Scan.insert ~chains c))
              r.Core.Pipeline.row6.Core.Pipeline.omit_len.Core.Pipeline.total
              r.Core.Pipeline.row6.Core.Pipeline.baseline_cycles
          end)
        [ 1; 2; 4 ])
    [ "s298"; "b01" ];
  print_newline ()

let ablation_random_phase () =
  print_endline "--- Ablation: randomized opening phase ---";
  print_endline "circ        with-random: len cov | without: len cov";
  List.iter
    (fun name ->
      let c = Circuits.Catalog.circuit name in
      let scan = Scanins.Scan.insert c in
      let model = Faultmodel.Model.build scan.Scanins.Scan.circuit in
      let sk = Atpg.Scan_knowledge.create scan in
      let run random_phase =
        let cfg = { (Core.Config.for_circuit c) with Core.Config.random_phase } in
        let f = Core.Flow.generate cfg sk model in
        Array.length f.Core.Flow.sequence, Core.Flow.coverage f
      in
      let lw, cw = run (Some Atpg.Random_phase.default_config) in
      let lo, co = run None in
      Printf.printf "%-10s %16d %6.2f | %12d %6.2f\n" name lw cw lo co)
    ablation_circuits;
  print_newline ()

let ablation_atpg_depth () =
  print_endline "--- Ablation: ATPG frame-depth budget (random phase off) ---";
  print_endline "circ        max-depth  coverage  sequence";
  List.iter
    (fun name ->
      let c = Circuits.Catalog.circuit name in
      let scan = Scanins.Scan.insert c in
      let model = Faultmodel.Model.build scan.Scanins.Scan.circuit in
      let sk = Atpg.Scan_knowledge.create scan in
      List.iter
        (fun d ->
          let depths = List.filter (fun x -> x <= d) [ 1; 2; 3; 5; 8 ] in
          let cfg =
            { (Core.Config.for_circuit c) with
              Core.Config.random_phase = None;
              atpg = { Atpg.Seq_atpg.depths; backtrack_limit = 120 } }
          in
          let f = Core.Flow.generate cfg sk model in
          Printf.printf "%-10s %9d %9.2f %9d\n" name d (Core.Flow.coverage f)
            (Array.length f.Core.Flow.sequence))
        [ 1; 2; 5; 8 ])
    [ "s298" ];
  print_newline ()

let () =
  let o = parse_args () in
  Printf.printf
    "scanatpg bench: %d circuits, scale=%s, jobs=%d\n\
     (synthetic substitutes for all benchmarks except s27 -- see DESIGN.md)\n\n%!"
    (List.length o.circuits)
    (match o.scale with Circuits.Profiles.Quick -> "quick" | _ -> "full")
    o.jobs;
  let t0 = Obs.Clock.now_ns () in
  let results =
    parallel_map ~jobs:o.jobs
      (fun name ->
        let t = Obs.Clock.now_ns () in
        let r = Core.Pipeline.run ~scale:o.scale name in
        Printf.printf "  %-8s done in %.1fs\n%!" name
          (Obs.Clock.to_s (Obs.Clock.elapsed_ns t));
        r)
      o.circuits
  in
  Printf.printf "all pipelines done in %.1fs\n\n%!"
    (Obs.Clock.to_s (Obs.Clock.elapsed_ns t0));
  if List.mem 5 o.tables then begin
    print_endline "=== Table 5 (measured) ===";
    print_string (Core.Report.table5 (List.map (fun r -> r.Core.Pipeline.row5) results));
    print_newline ();
    compare5 (List.map (fun r -> r.Core.Pipeline.row5) results)
  end;
  if List.mem 6 o.tables then begin
    print_endline "=== Table 6 (measured) ===";
    print_string (Core.Report.table6 (List.map (fun r -> r.Core.Pipeline.row6) results));
    print_newline ();
    compare6 (List.map (fun r -> r.Core.Pipeline.row6) results)
  end;
  if List.mem 7 o.tables then begin
    print_endline "=== Table 7 (measured) ===";
    let rows7 = List.filter_map (fun r -> r.Core.Pipeline.row7) results in
    print_string (Core.Report.table7 rows7);
    print_newline ();
    compare7 rows7
  end;
  if o.ablation then begin
    ablation_compaction_order ();
    ablation_scan_knowledge ();
    ablation_random_phase ();
    ablation_atpg_depth ();
    ablation_chains ()
  end
