(* Tests for the benchmark catalog: the deterministic RNG, the synthetic
   generator's structural guarantees, and the profile table. *)

module C = Netlist.Circuit
module P = Circuits.Profiles

(* ---------------------------------------------------------------- Rng *)

let test_rng_deterministic () =
  let a = Prng.Rng.create 99L and b = Prng.Rng.create 99L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.Rng.next a) (Prng.Rng.next b)
  done

let test_rng_int_bounds () =
  let rng = Prng.Rng.create 1L in
  for _ = 1 to 10_000 do
    let v = Prng.Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Prng.Rng.int rng 0))

let test_rng_labels_independent () =
  let a = Prng.Rng.of_string 5L "alpha" and b = Prng.Rng.of_string 5L "beta" in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.Rng.next a = Prng.Rng.next b then incr same
  done;
  Alcotest.(check int) "streams differ" 0 !same

let test_rng_split () =
  let parent = Prng.Rng.create 3L in
  let child = Prng.Rng.split parent in
  Alcotest.(check bool) "child differs from parent" true
    (Prng.Rng.next child <> Prng.Rng.next parent)

let test_rng_choose () =
  let rng = Prng.Rng.create 4L in
  let arr = [| 10; 20; 30 |] in
  for _ = 1 to 100 do
    let v = Prng.Rng.choose rng arr in
    Alcotest.(check bool) "member" true (Array.exists (fun x -> x = v) arr)
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Prng.Rng.choose rng [||]))

(* ---------------------------------------------------------- Synthetic *)

let gen ?(pis = 5) ?(ffs = 8) ?(gates = 60) ?(seed = 11L) () =
  Circuits.Synthetic.generate ~name:"t" ~pis ~ffs ~gates ~seed ()

let test_synth_shape () =
  let c = gen () in
  Alcotest.(check int) "pis" 5 (C.input_count c);
  Alcotest.(check int) "ffs" 8 (C.dff_count c);
  Alcotest.(check bool) "gates >= requested" true (C.gate_count c >= 60);
  Alcotest.(check bool) "has outputs" true (C.output_count c >= 1)

let test_synth_deterministic () =
  let a = Netlist.Bench_format.to_string (gen ()) in
  let b = Netlist.Bench_format.to_string (gen ()) in
  Alcotest.(check string) "same netlist" a b

let test_synth_seed_sensitivity () =
  let a = Netlist.Bench_format.to_string (gen ~seed:1L ()) in
  let b = Netlist.Bench_format.to_string (gen ~seed:2L ()) in
  Alcotest.(check bool) "different netlists" true (a <> b)

let test_synth_all_sources_used () =
  let c = gen ~pis:9 ~ffs:13 () in
  Array.iter
    (fun i ->
      if Array.length (C.fanout c i) = 0 && not (C.is_output c i) then
        Alcotest.failf "dangling source %s" (C.node c i).C.name)
    (C.inputs c);
  Array.iter
    (fun i ->
      if Array.length (C.fanout c i) = 0 && not (C.is_output c i) then
        Alcotest.failf "dangling flip-flop %s" (C.node c i).C.name)
    (C.dffs c)

let test_synth_all_gates_observable_or_consumed () =
  let c = gen () in
  Array.iter
    (fun nd ->
      match nd.C.kind with
      | Netlist.Gate.Input | Netlist.Gate.Dff -> ()
      | _ ->
        if Array.length (C.fanout c nd.C.id) = 0 && not (C.is_output c nd.C.id)
        then Alcotest.failf "dead gate %s" nd.C.name)
    (C.nodes c)

let test_synth_min_gates_raised () =
  (* Too few gates for the sources: the generator must raise the budget
     rather than leave sources dangling. *)
  let c = Circuits.Synthetic.generate ~name:"t" ~pis:30 ~ffs:30 ~gates:3 ~seed:7L () in
  Alcotest.(check bool) "raised" true (C.gate_count c >= 17)

let test_synth_invalid_args () =
  let inv f = Alcotest.(check bool) "rejects" true
      (match f () with exception Invalid_argument _ -> true | _ -> false) in
  inv (fun () -> Circuits.Synthetic.generate ~name:"t" ~pis:0 ~ffs:1 ~gates:5 ~seed:1L ());
  inv (fun () -> Circuits.Synthetic.generate ~name:"t" ~pis:1 ~ffs:(-1) ~gates:5 ~seed:1L ());
  inv (fun () -> Circuits.Synthetic.generate ~name:"t" ~pis:1 ~ffs:1 ~gates:0 ~seed:1L ())

let test_synth_single_source () =
  (* One PI, no FFs: the first gate has a single signal to draw from. *)
  let c = Circuits.Synthetic.generate ~name:"t" ~pis:1 ~ffs:0 ~gates:4 ~seed:5L () in
  Alcotest.(check int) "pis" 1 (C.input_count c);
  Alcotest.(check bool) "gates >= requested" true (C.gate_count c >= 4)

let prop_synth_no_duplicate_fanins =
  QCheck2.Test.make ~name:"gates never repeat a fanin" ~count:15
    QCheck2.Gen.(int_range 1 1000)
    (fun seed ->
      let c = gen ~seed:(Int64.of_int seed) () in
      Array.for_all
        (fun nd ->
          let l = Array.to_list nd.C.fanins in
          List.length l = List.length (List.sort_uniq compare l))
        (C.nodes c))

let prop_synth_valid =
  (* The builder validates acyclicity etc.; generation must never raise. *)
  QCheck2.Test.make ~name:"generator always builds a valid circuit" ~count:25
    QCheck2.Gen.(triple (int_range 1 8) (int_range 0 20) (int_range 4 120))
    (fun (pis, ffs, gates) ->
      let c = Circuits.Synthetic.generate ~name:"t" ~pis ~ffs ~gates ~seed:5L () in
      C.node_count c > 0)

(* ------------------------------------------------------------ Catalog *)

let test_catalog_names () =
  Alcotest.(check bool) "s27 present" true (List.mem "s27" Circuits.Catalog.names);
  Alcotest.(check int) "27 circuits" 27 (List.length Circuits.Catalog.names)

let test_catalog_s27_exact () =
  let c = Circuits.Catalog.circuit "s27" in
  Alcotest.(check int) "gates" 10 (C.gate_count c);
  Alcotest.(check bool) "not synthetic" false (Circuits.Catalog.is_synthetic "s27")

let test_catalog_profile_shapes () =
  List.iter
    (fun p ->
      let c = Circuits.Catalog.circuit p.P.name in
      Alcotest.(check int) (p.P.name ^ " pis") p.P.pis (C.input_count c);
      Alcotest.(check int) (p.P.name ^ " ffs") (P.ffs_at P.Quick p) (C.dff_count c))
    (List.filter (fun p -> P.gates_at P.Quick p <= 200) P.all)

let test_catalog_unknown () =
  Alcotest.(check bool) "raises" true
    (match Circuits.Catalog.circuit "nope" with
     | exception Not_found -> true
     | _ -> false)

let test_profiles_table7_subset () =
  List.iter
    (fun n ->
      Alcotest.(check bool) n true (List.exists (fun p -> p.P.name = n) P.all))
    P.table7_names

let test_profiles_scales () =
  let p = P.find_exn "s5378" in
  Alcotest.(check bool) "quick smaller" true (P.ffs_at P.Quick p < P.ffs_at P.Full p);
  let q = P.find_exn "s298" in
  Alcotest.(check int) "same when unscaled" (P.ffs_at P.Quick q) (P.ffs_at P.Full q)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "circuits"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "label independence" `Quick test_rng_labels_independent;
          Alcotest.test_case "split" `Quick test_rng_split;
          Alcotest.test_case "choose" `Quick test_rng_choose;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "interface shape" `Quick test_synth_shape;
          Alcotest.test_case "deterministic" `Quick test_synth_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_synth_seed_sensitivity;
          Alcotest.test_case "sources consumed" `Quick test_synth_all_sources_used;
          Alcotest.test_case "no dead gates" `Quick test_synth_all_gates_observable_or_consumed;
          Alcotest.test_case "gate budget raised" `Quick test_synth_min_gates_raised;
          Alcotest.test_case "invalid arguments" `Quick test_synth_invalid_args;
          Alcotest.test_case "single source" `Quick test_synth_single_source;
          q prop_synth_no_duplicate_fanins;
          q prop_synth_valid;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "names" `Quick test_catalog_names;
          Alcotest.test_case "s27 exact" `Quick test_catalog_s27_exact;
          Alcotest.test_case "profile shapes" `Quick test_catalog_profile_shapes;
          Alcotest.test_case "unknown circuit" `Quick test_catalog_unknown;
          Alcotest.test_case "table7 subset" `Quick test_profiles_table7_subset;
          Alcotest.test_case "scales" `Quick test_profiles_scales;
        ] );
    ]
