module Logic = Netlist.Logic
module Plan = Netlist.Plan

type t = {
  plan : Plan.t;
  force : (int * Logic.t) option;
  values : Logic.t array;
  state : Logic.t array;
}

let of_plan ?force (plan : Plan.t) =
  {
    plan;
    force;
    values = Array.make plan.Plan.nodes Logic.X;
    state = Array.make (Array.length plan.Plan.dffs) Logic.X;
  }

let create c = of_plan (Plan.compile c (Netlist.Levelize.of_circuit c))

let reset t =
  Array.fill t.state 0 (Array.length t.state) Logic.X;
  Array.fill t.values 0 (Array.length t.values) Logic.X

let set_state t s =
  if Array.length s <> Array.length t.state then
    invalid_arg "Goodsim.set_state: state length mismatch";
  Array.blit s 0 t.state 0 (Array.length s)

let state t = Array.copy t.state

let step t vec =
  let p = t.plan and values = t.values in
  if Array.length vec <> Array.length p.Plan.inputs then
    invalid_arg "Goodsim.step: vector length mismatch";
  Array.iteri (fun i id -> values.(id) <- vec.(i)) p.Plan.inputs;
  Array.iteri (fun k id -> values.(id) <- t.state.(k)) p.Plan.dffs;
  (* A forced node holds its value all frame: a source is overwritten
     here, a gate is never evaluated. *)
  let forced =
    match t.force with
    | Some (n, v) ->
      values.(n) <- v;
      n
    | None -> -1
  in
  Array.iter
    (fun id -> if id <> forced then values.(id) <- Plan.eval p values id)
    p.Plan.order;
  Array.iteri (fun k d -> t.state.(k) <- values.(d)) p.Plan.dff_fanin

let po_values t = Array.map (fun o -> t.values.(o)) t.plan.Plan.outputs
let value t id = t.values.(id)

let run t seq =
  Array.map
    (fun vec ->
      step t vec;
      po_values t)
    seq
