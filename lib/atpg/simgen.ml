module Circuit = Netlist.Circuit
module Logic = Netlist.Logic
module Model = Faultmodel.Model
module Faultsim = Logicsim.Faultsim

type config = {
  candidates : int;
  stall_limit : int;
  max_vectors : int;
  sel_one_percent : int;
}

let default_config =
  { candidates = 8; stall_limit = 24; max_vectors = 2048; sel_one_percent = 20 }

let biased_vector cfg ~width ~scan_sel_position rng =
  let v = Logicsim.Vectors.random rng ~width in
  v.(scan_sel_position) <-
    Logic.of_bool (Prng.Rng.int rng 100 < cfg.sel_one_percent);
  v

let mutate rng v =
  let v = Array.copy v in
  let flips = 1 + Prng.Rng.int rng 2 in
  for _ = 1 to flips do
    let i = Prng.Rng.int rng (Array.length v) in
    v.(i) <- Logic.bnot v.(i)
  done;
  v

(* Score of applying [vec] from the captured session states: detections
   weigh heaviest, then newly latched fault effects. *)
let score snap targets vec =
  let probe = Faultsim.of_snapshot snap ~fault_ids:targets in
  Faultsim.advance probe [| vec |];
  (10_000 * Faultsim.detected_count probe) + Faultsim.effect_bits probe

let extend session model ~scan_sel_position ~rng cfg =
  let width = Circuit.input_count model.Model.circuit in
  let committed = ref [] in
  let count = ref 0 in
  let stall = ref 0 in
  let previous = ref (biased_vector cfg ~width ~scan_sel_position rng) in
  let baseline_effects = ref (Faultsim.effect_bits session) in
  while !stall < cfg.stall_limit && !count < cfg.max_vectors
        && Array.length (Faultsim.undetected session) > 0 do
    let targets = Faultsim.undetected session in
    let pool =
      Array.init cfg.candidates (fun i ->
          if i < cfg.candidates / 2 then
            biased_vector cfg ~width ~scan_sel_position rng
          else mutate rng !previous)
    in
    let best = ref pool.(0) and best_score = ref min_int in
    let snap = Faultsim.snapshot ~fault_ids:targets session in
    Array.iter
      (fun vec ->
        let s = score snap targets vec in
        if s > !best_score then begin
          best_score := s;
          best := vec
        end)
      pool;
    (* Commit the winner; progress = a detection or more latched effects
       than before the step. *)
    Faultsim.advance session [| !best |];
    committed := !best :: !committed;
    incr count;
    previous := !best;
    let effects = Faultsim.effect_bits session in
    if !best_score >= 10_000 || effects > !baseline_effects then stall := 0
    else incr stall;
    baseline_effects := effects
  done;
  Array.of_list (List.rev !committed)
