(* Kernel timings, the same on every workload: a PODEM decision, a
   fault-simulation gate evaluation, a good-machine frame and a null-sink
   span.  Each divides wall time by a work count the kernel reports, so a
   change to the amount of work shows apart from a change to its cost. *)

let compile name =
  let scan = Scanins.Scan.insert (Circuits.Catalog.circuit name) in
  Faultmodel.Model.build scan.Scanins.Scan.circuit

let time f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  float_of_int (Obs.Clock.elapsed_ns t0), r

(* PODEM on a fixed fault list: the first [faults] collapsed faults of
   s298 and s1196, free initial state, depth 3. *)
let podem_ns_per_decision ~faults =
  let ns = ref 0.0 and decisions = ref 0 in
  List.iter
    (fun name ->
      let model = compile name in
      let stats = Atpg.Podem.make_stats () in
      let t, () =
        time (fun () ->
            for fault = 0 to min faults (Faultmodel.Model.fault_count model) - 1 do
              ignore
                (Atpg.Podem.run model ~fault ~depth:3 ~start:Atpg.Podem.Free_state
                   ~backtrack_limit:100 ~stats ())
            done)
      in
      ns := !ns +. t;
      decisions := !decisions + stats.Atpg.Podem.decisions)
    [ "s298"; "s1196" ];
  !ns /. float_of_int (max 1 !decisions)

(* Event-driven fault simulation of every collapsed fault of s5378 and
   s35932 over a random 96-frame sequence, one domain. *)
let faultsim_ns_per_event rng ~frames models =
  let ns = ref 0.0 and events = ref 0 in
  List.iter
    (fun model ->
      let width = Netlist.Circuit.input_count model.Faultmodel.Model.circuit in
      let seq = Logicsim.Vectors.random_seq rng ~width ~length:frames in
      let fault_ids = Array.init (Faultmodel.Model.fault_count model) Fun.id in
      let session = Logicsim.Faultsim.create ~jobs:1 model ~fault_ids in
      let t, () = time (fun () -> Logicsim.Faultsim.advance session seq) in
      ns := !ns +. t;
      events := !events + (Logicsim.Faultsim.stats session).Logicsim.Faultsim.events)
    models;
  !ns /. float_of_int (max 1 !events)

let goodsim_ns_per_frame rng ~frames model =
  let circuit = model.Faultmodel.Model.circuit in
  let seq =
    Logicsim.Vectors.random_seq rng ~width:(Netlist.Circuit.input_count circuit) ~length:frames
  in
  let sim = Logicsim.Goodsim.create circuit in
  let t, _ = time (fun () -> Logicsim.Goodsim.run sim seq) in
  t /. float_of_int frames

(* One span on the null sink, and on a live collector. *)
let span_ns tr ~iters =
  let t, () =
    time (fun () ->
        for _ = 1 to iters do
          Obs.Trace.with_span tr "k" ignore
        done)
  in
  t /. float_of_int iters
