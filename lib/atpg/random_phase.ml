module Circuit = Netlist.Circuit
module Logic = Netlist.Logic
module Model = Faultmodel.Model
module Faultsim = Logicsim.Faultsim

type config = {
  burst : int;
  give_up : int;
  max_vectors : int;
  sel_one_percent : int;
}

let default_config =
  { burst = 32; give_up = 3; max_vectors = 1024; sel_one_percent = 25 }

let biased_vector cfg ~width ~scan_sel_position rng =
  let v = Logicsim.Vectors.random rng ~width in
  v.(scan_sel_position) <-
    Logic.of_bool (Prng.Rng.int rng 100 < cfg.sel_one_percent);
  v

let run ?(record = fun _ -> ()) ?(budget = Obs.Budget.unlimited) session model
    ~scan_sel_position ~rng cfg =
  let width = Circuit.input_count model.Model.circuit in
  let accepted = ref [] in
  let accepted_count = ref 0 in
  let fruitless = ref 0 in
  while
    !fruitless < cfg.give_up && !accepted_count < cfg.max_vectors
    && Obs.Budget.check budget
  do
    let burst =
      Array.init cfg.burst (fun _ -> biased_vector cfg ~width ~scan_sel_position rng)
    in
    let targets = Faultsim.undetected session in
    if Array.length targets = 0 then fruitless := cfg.give_up
    else begin
      (* Fork a probe from the live session; keep the burst only if it buys
         new detections. *)
      let probe =
        Faultsim.of_snapshot
          (Faultsim.snapshot ~fault_ids:targets session)
          ~fault_ids:targets
      in
      Faultsim.advance probe burst;
      if Faultsim.detected_count probe > 0 then begin
        Faultsim.advance session burst;
        record burst;
        accepted := burst :: !accepted;
        accepted_count := !accepted_count + cfg.burst;
        fruitless := 0
      end
      else incr fruitless
    end
  done;
  Array.concat (List.rev !accepted)
