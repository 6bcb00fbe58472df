module Logic = Netlist.Logic
module Model = Faultmodel.Model

type candidate = {
  fault : int;
  matched : int;
  missed : int;
  extra : int;
}

let response model ?fault seq =
  let force =
    Option.map
      (fun fid ->
        model.Model.fault_node.(fid), Logic.of_bool model.Model.fault_stuck.(fid))
      fault
  in
  Logicsim.Goodsim.run (Logicsim.Goodsim.of_plan ?force model.Model.plan) seq

let failing_positions ~expected ~observed =
  let acc = ref [] in
  Array.iteri
    (fun t exp_row ->
      Array.iteri
        (fun j e ->
          let o = observed.(t).(j) in
          if Logic.is_binary e && Logic.is_binary o && not (Logic.equal e o)
          then acc := (t, j) :: !acc)
        exp_row)
    expected;
  List.rev !acc

module Pos = Set.Make (struct
  type t = int * int

  let compare = compare
end)

let run model seq ~observed ?candidates () =
  let good = response model seq in
  let actual = Pos.of_list (failing_positions ~expected:good ~observed) in
  let candidates =
    match candidates with
    | Some ids -> ids
    | None ->
      (* Default candidate pool: faults the sequence detects at all. *)
      let all = Array.init (Model.fault_count model) Fun.id in
      let times = Logicsim.Faultsim.detection_times model ~fault_ids:all seq in
      Array.of_list
        (List.filteri (fun i _ -> times.(i) >= 0) (Array.to_list all))
  in
  let scored =
    Array.to_list
      (Array.map
         (fun fid ->
           let fr = response model ~fault:fid seq in
           (* Sure failures: good and faulty binary and different.
              Potential failures: good binary, faulty unknown — the device
              may or may not fail there, so they can explain an observed
              failure but are never demanded. *)
           let sure = ref Pos.empty and may = ref Pos.empty in
           Array.iteri
             (fun t row ->
               Array.iteri
                 (fun j g ->
                   let f = fr.(t).(j) in
                   if Logic.is_binary g then
                     if Logic.is_binary f then begin
                       if not (Logic.equal g f) then sure := Pos.add (t, j) !sure
                     end
                     else may := Pos.add (t, j) !may)
                 row)
             good;
           let explained = Pos.union !sure !may in
           let matched = Pos.cardinal (Pos.inter explained actual) in
           {
             fault = fid;
             matched;
             missed = Pos.cardinal actual - matched;
             extra = Pos.cardinal (Pos.diff !sure actual);
           })
         candidates)
  in
  List.stable_sort
    (fun a b -> compare (a.missed, a.extra, a.fault) (b.missed, b.extra, b.fault))
    scored

let perfect cands = List.filter (fun c -> c.missed = 0 && c.extra = 0) cands
