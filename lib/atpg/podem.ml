module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Logic = Netlist.Logic
module Plan = Netlist.Plan
module Model = Faultmodel.Model

type outcome =
  | Detected of {
      vectors : Logicsim.Vectors.t;
      required_state : Logic.t array option;
    }
  | Latched of {
      vectors : Logicsim.Vectors.t;
      required_state : Logic.t array option;
      dff : int;
    }
  | Aborted
  | Exhausted

type start =
  | From_state of {
      good : Logic.t array;
      faulty : Logic.t array;
    }
  | Free_state

type stats = {
  mutable calls : int;
  mutable decisions : int;
  mutable backtracks : int;
}

let make_stats () = { calls = 0; decisions = 0; backtracks = 0 }

(* Netlist arrays (evaluation order, levels, sources, flip-flop maps) are
   read from the model's plan; [circuit] serves the structural walks. *)
type engine = {
  circuit : Circuit.t;
  plan : Plan.t;
  scoap : Netlist.Scoap.t;
  depth : int;
  fault_node : int;
  stuck : Logic.t;
  free_state : bool;
  good0 : Logic.t array;  (* meaningful when not free_state *)
  faulty0 : Logic.t array;
  asg_pi : Logic.t array array;  (* depth x inputs: decision values *)
  asg_ppi : Logic.t array;  (* dffs: frame-0 state decisions (free mode) *)
  gval : Logic.t array array;  (* depth x nodes *)
  fval : Logic.t array array;
  input_index : int array;  (* node id -> input position, -1 *)
  mutable dirty : int;  (* lowest frame whose values are stale *)
}

(* Incremental implication: frames before [e.dirty] are unchanged since the
   last call (assignments only touch their own frame and propagate forward
   through the flip-flops), so only [dirty..depth-1] are re-evaluated. *)
let simulate e =
  let p = e.plan in
  for fr = e.dirty to e.depth - 1 do
    let g = e.gval.(fr) and f = e.fval.(fr) in
    Array.iteri
      (fun i id ->
        g.(id) <- e.asg_pi.(fr).(i);
        f.(id) <- e.asg_pi.(fr).(i))
      p.Plan.inputs;
    Array.iteri
      (fun k id ->
        if fr = 0 then
          if e.free_state then begin
            g.(id) <- e.asg_ppi.(k);
            f.(id) <- e.asg_ppi.(k)
          end
          else begin
            g.(id) <- e.good0.(k);
            f.(id) <- e.faulty0.(k)
          end
        else begin
          g.(id) <- e.gval.(fr - 1).(p.Plan.dff_fanin.(k));
          f.(id) <- e.fval.(fr - 1).(p.Plan.dff_fanin.(k))
        end)
      p.Plan.dffs;
    f.(e.fault_node) <- e.stuck;
    (* If the fault sits on a source it was just forced; combinational nodes
       are forced right after their evaluation below. *)
    Array.iter
      (fun nd ->
        g.(nd) <- Plan.eval p g nd;
        f.(nd) <- (if nd = e.fault_node then e.stuck else Plan.eval p f nd))
      p.Plan.order
  done;
  e.dirty <- e.depth

let d_at e fr nd =
  let g = e.gval.(fr).(nd) and f = e.fval.(fr).(nd) in
  Logic.is_binary g && Logic.is_binary f && not (Logic.equal g f)

type success =
  | At_po of int  (* frame *)
  | At_ff of int * int  (* frame, dff index *)

(* Earliest frame exposing the fault: on a primary output, or — when
   flip-flops count as observation points — latched into a flip-flop at the
   end of the frame. *)
let find_success e ~observe_ffs =
  let rec frames fr =
    if fr >= e.depth then None
    else if Array.exists (fun po -> d_at e fr po) e.plan.Plan.outputs then
      Some (At_po fr)
    else if observe_ffs then begin
      let rec ffs k =
        if k >= Array.length e.plan.Plan.dff_fanin then frames (fr + 1)
        else if d_at e fr e.plan.Plan.dff_fanin.(k) then Some (At_ff (fr, k))
        else ffs (k + 1)
      in
      ffs 0
    end
    else frames (fr + 1)
  in
  frames 0

(* One pass over all frames: does a fault effect exist anywhere, and which
   gates form the D-frontier?  A D can only live at the fault node, at a
   combinational gate, or latched in a flip-flop. *)
let analyze e =
  let has_d = ref false in
  let cands = ref [] in
  for fr = 0 to e.depth - 1 do
    if d_at e fr e.fault_node then has_d := true;
    Array.iter (fun ff -> if d_at e fr ff then has_d := true) e.plan.Plan.dffs;
    Array.iter
      (fun nd ->
        if d_at e fr nd then has_d := true
        else if
          (Logic.equal e.gval.(fr).(nd) Logic.X
           || Logic.equal e.fval.(fr).(nd) Logic.X)
          && Array.exists (fun f -> d_at e fr f) (Circuit.node e.circuit nd).Circuit.fanins
        then cands := (fr, nd) :: !cands)
      e.plan.Plan.order
  done;
  !has_d, !cands

(* Activation objectives: make the good machine show the complement of the
   stuck value at the fault node — one candidate per frame where the value
   is still unknown, earliest first.  Later frames matter: with a fixed
   initial state the earliest frame's value may be unjustifiable while a
   deeper frame is reachable through the primary inputs (e.g. by shifting
   the scan chain). *)
let activation_objectives e =
  let want = Logic.bnot e.stuck in
  let acc = ref [] in
  for fr = e.depth - 1 downto 0 do
    if Logic.equal e.gval.(fr).(e.fault_node) Logic.X then
      acc := (fr, e.fault_node, want) :: !acc
  done;
  !acc

(* Objective for extending the D-frontier through gate [nd] at frame [fr]:
   set an unknown side input so the latched fault effect passes through. *)
let gate_objective e fr nd =
  let fanins = (Circuit.node e.circuit nd).Circuit.fanins in
  let g = e.gval.(fr) in
  match (Circuit.node e.circuit nd).Circuit.kind with
  | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
    let c =
      match Gate.controlling (Circuit.node e.circuit nd).Circuit.kind with
      | Some Logic.Zero -> Logic.Zero
      | Some Logic.One -> Logic.One
      | Some Logic.X | None -> assert false
    in
    (* Easiest non-controlling side input first (SCOAP-guided). *)
    let want = Logic.bnot c in
    let want_b = Logic.equal want Logic.One in
    let pick = ref None and best = ref max_int in
    Array.iter
      (fun f ->
        if (not (d_at e fr f)) && Logic.equal g.(f) Logic.X then begin
          let cost = Netlist.Scoap.cc e.scoap ~n:f ~v:want_b in
          if cost < !best then begin
            best := cost;
            pick := Some (fr, f, want)
          end
        end)
      fanins;
    !pick
  | Gate.Xor | Gate.Xnor ->
    let pick = ref None and best = ref max_int in
    Array.iter
      (fun f ->
        if (not (d_at e fr f)) && Logic.equal g.(f) Logic.X then begin
          let c0 = Netlist.Scoap.cc e.scoap ~n:f ~v:false in
          let c1 = Netlist.Scoap.cc e.scoap ~n:f ~v:true in
          let v = if c0 <= c1 then Logic.Zero else Logic.One in
          if min c0 c1 < !best then begin
            best := min c0 c1;
            pick := Some (fr, f, v)
          end
        end)
      fanins;
    !pick
  | Gate.Mux ->
    let s = fanins.(0) and a = fanins.(1) and b = fanins.(2) in
    if d_at e fr s then begin
      (* Select-line fault effect: the data inputs must differ. *)
      if Logic.equal g.(a) Logic.X then
        Some (fr, a, if Logic.is_binary g.(b) then Logic.bnot g.(b) else Logic.Zero)
      else if Logic.equal g.(b) Logic.X then
        Some (fr, b, if Logic.is_binary g.(a) then Logic.bnot g.(a) else Logic.One)
      else None
    end
    else if d_at e fr a then
      if Logic.equal g.(s) Logic.X then Some (fr, s, Logic.Zero) else None
    else if d_at e fr b then
      if Logic.equal g.(s) Logic.X then Some (fr, s, Logic.One) else None
    else None
  | Gate.Buf | Gate.Not | Gate.Input | Gate.Dff -> None

(* All candidate objectives for the current state: with a fault effect
   alive, the D-frontier gates sorted most-observable first (SCOAP [co],
   structural level and later frames breaking ties); otherwise the
   activation candidates.  The solver tries them in order until one
   backtraces to a decision variable. *)
let objectives e =
  let has_d, cands = analyze e in
  if not has_d then activation_objectives e
  else begin
    let scored =
      List.sort
        (fun (fr1, n1) (fr2, n2) ->
          compare
            (e.scoap.Netlist.Scoap.co.(n1), e.plan.Plan.level.(n2), fr2)
            (e.scoap.Netlist.Scoap.co.(n2), e.plan.Plan.level.(n1), fr1))
        cands
    in
    List.filter_map (fun (fr, nd) -> gate_objective e fr nd) scored
  end

(* Walk X-valued paths from the objective back to an unassigned decision
   variable.  Returns [(frame, var, value)] where [var] is an input position
   or, in free-state mode, [ninputs + dff position] at frame 0.

   Unlike textbook combinational backtrace, a path here can dead-end — the
   fixed frame-0 state blocks every route through a frame-0 flip-flop — so
   each gate keeps an ordered list of candidate fanins (SCOAP-guided:
   easiest first when one controlling value suffices, hardest first when
   every input matters) and the walk backtracks across them.  Failures are
   memoized per (frame, node, value), bounding the search linearly in the
   unrolled circuit. *)
let backtrace e (fr0, nd0, v0) =
  let ninputs = Array.length e.plan.Plan.inputs in
  let dff_index = e.plan.Plan.dff_index in
  let failed = Hashtbl.create 64 in
  let rec go fr nd v =
    if not (Logic.equal e.gval.(fr).(nd) Logic.X) then None
    else if Hashtbl.mem failed (fr, nd, v) then None
    else begin
      match attempt fr nd v with
      | Some _ as r -> r
      | None ->
        Hashtbl.add failed (fr, nd, v) ();
        None
    end
  and first_of candidates =
    List.fold_left
      (fun acc (fr, nd, v) ->
        match acc with
        | Some _ -> acc
        | None -> go fr nd v)
      None candidates
  and attempt fr nd v =
    let node = Circuit.node e.circuit nd in
    let fanins = node.Circuit.fanins in
    let g = e.gval.(fr) in
    match node.Circuit.kind with
    | Gate.Input -> Some (fr, e.input_index.(nd), v)
    | Gate.Dff ->
      if fr > 0 then go (fr - 1) e.plan.Plan.dff_fanin.(dff_index.(nd)) v
      else if e.free_state then Some (0, ninputs + dff_index.(nd), v)
      else None
    | Gate.Buf -> go fr fanins.(0) v
    | Gate.Not -> go fr fanins.(0) (Logic.bnot v)
    | Gate.And | Gate.Nand | Gate.Or | Gate.Nor ->
      let kind = node.Circuit.kind in
      let c =
        match Gate.controlling kind with
        | Some Logic.Zero -> Logic.Zero
        | Some Logic.One -> Logic.One
        | Some Logic.X | None -> assert false
      in
      let core = if Gate.inversion kind then Logic.bnot v else v in
      let cb = Logic.equal c Logic.One in
      let x_inputs want_b =
        let xs = ref [] in
        Array.iter
          (fun f ->
            if Logic.equal g.(f) Logic.X then
              xs := (Netlist.Scoap.cc e.scoap ~n:f ~v:want_b, f) :: !xs)
          fanins;
        List.sort compare (List.rev !xs)
      in
      if Logic.equal core c then
        (* One controlling input suffices: easiest first, fall through the
           alternatives on dead ends. *)
        first_of (List.map (fun (_, f) -> (fr, f, c)) (x_inputs cb))
      else begin
        (* Every input must be non-controlling: any dead-ended input kills
          the gate, so only path choice varies — hardest first. *)
        if Array.exists (fun f -> Logic.equal g.(f) c) fanins then None
        else
          first_of
            (List.map (fun (_, f) -> (fr, f, Logic.bnot c))
               (List.rev (x_inputs (not cb))))
      end
    | Gate.Xor | Gate.Xnor ->
      let core = if Gate.inversion node.Circuit.kind then Logic.bnot v else v in
      let acc = ref Logic.Zero in
      let xs = ref [] in
      Array.iter
        (fun f ->
          if Logic.equal g.(f) Logic.X then begin
            let cost =
              min (Netlist.Scoap.cc e.scoap ~n:f ~v:false)
                (Netlist.Scoap.cc e.scoap ~n:f ~v:true)
            in
            xs := (cost, f) :: !xs
          end
          else acc := Logic.bxor !acc g.(f))
        fanins;
      (* Other unknown inputs are approximated as 0; simulation and the
         solver's backtracking correct any optimism. *)
      let needed = Logic.bxor core !acc in
      first_of
        (List.map (fun (_, f) -> (fr, f, needed)) (List.sort compare (List.rev !xs)))
    | Gate.Mux ->
      let s = fanins.(0) and a = fanins.(1) and b = fanins.(2) in
      (match g.(s) with
       | Logic.Zero -> go fr a v
       | Logic.One -> go fr b v
       | Logic.X ->
         let cands =
           (if Logic.equal g.(a) v then [ (fr, s, Logic.Zero) ] else [])
           @ (if Logic.equal g.(b) v then [ (fr, s, Logic.One) ] else [])
           @ (if Logic.equal g.(a) Logic.X then [ (fr, a, v) ] else [])
           @ (if Logic.equal g.(b) Logic.X then [ (fr, b, v) ] else [])
         in
         first_of cands)
  in
  go fr0 nd0 v0

let set_var e fr var v =
  let ninputs = Array.length e.plan.Plan.inputs in
  if var < ninputs then e.asg_pi.(fr).(var) <- v else e.asg_ppi.(var - ninputs) <- v;
  if fr < e.dirty then e.dirty <- fr

let run model ~fault ~depth ~start ~backtrack_limit ?(fixed_inputs = [])
    ?(observe_ffs = false) ?stats ?(budget = Obs.Budget.unlimited) () =
  let plan = model.Model.plan in
  let nodes = plan.Plan.nodes in
  let ninputs = Array.length plan.Plan.inputs
  and nff = Array.length plan.Plan.dffs in
  let input_index = Array.make nodes (-1) in
  Array.iteri (fun i id -> input_index.(id) <- i) plan.Plan.inputs;
  let free_state, good0, faulty0 =
    match start with
    | Free_state -> true, Array.make nff Logic.X, Array.make nff Logic.X
    | From_state { good; faulty } -> false, good, faulty
  in
  let e =
    {
      circuit = model.Model.circuit;
      plan;
      scoap = model.Model.scoap;
      depth;
      fault_node = model.Model.fault_node.(fault);
      stuck = Logic.of_bool model.Model.fault_stuck.(fault);
      free_state;
      good0;
      faulty0;
      asg_pi = Array.init depth (fun _ -> Array.make ninputs Logic.X);
      asg_ppi = Array.make nff Logic.X;
      gval = Array.init depth (fun _ -> Array.make nodes Logic.X);
      fval = Array.init depth (fun _ -> Array.make nodes Logic.X);
      input_index;
      dirty = 0;
    }
  in
  List.iter
    (fun (pos, v) ->
      for fr = 0 to depth - 1 do
        e.asg_pi.(fr).(pos) <- v
      done)
    fixed_inputs;
  simulate e;
  let decisions = Stack.create () in
  let ndecisions = ref 0 in
  let backtracks = ref 0 in
  let max_steps = 50 * (depth * ninputs + nff + 1) * (backtrack_limit + 1) in
  let steps = ref 0 in
  let success s =
    let fr =
      match s with
      | At_po fr -> fr
      | At_ff (fr, _) -> fr
    in
    let vectors = Array.init (fr + 1) (fun i -> Array.copy e.asg_pi.(i)) in
    let required_state = if free_state then Some (Array.copy e.asg_ppi) else None in
    match s with
    | At_po _ -> Detected { vectors; required_state }
    | At_ff (_, dff) -> Latched { vectors; required_state; dff }
  in
  (* Undo decisions until one can be flipped; [true] when the search should
     continue, [false] when the space is exhausted. *)
  let rec backtrack () =
    if Stack.is_empty decisions then false
    else begin
      let fr, var, v, flipped = Stack.pop decisions in
      if flipped then begin
        set_var e fr var Logic.X;
        backtrack ()
      end
      else begin
        let v' = Logic.bnot v in
        set_var e fr var v';
        Stack.push (fr, var, v', true) decisions;
        incr backtracks;
        simulate e;
        true
      end
    end
  in
  (* Every decision step is a safe point: on a tripped budget the search
     abandons the fault exactly as if its backtrack budget ran out. *)
  let rec solve () =
    incr steps;
    if
      !backtracks > backtrack_limit || !steps > max_steps
      || not (Obs.Budget.check budget)
    then Aborted
    else
      match find_success e ~observe_ffs with
      | Some s -> success s
      | None ->
        (* Try each candidate objective until one backtraces to an
           unassigned decision variable. *)
        let rec try_objectives = function
          | [] -> if backtrack () then solve () else Exhausted
          | obj :: rest ->
            (match backtrace e obj with
             | None -> try_objectives rest
             | Some (fr, var, v) ->
               Stack.push (fr, var, v, false) decisions;
               incr ndecisions;
               set_var e fr var v;
               simulate e;
               solve ())
        in
        try_objectives (objectives e)
  in
  let outcome = solve () in
  Obs.Budget.add_backtracks budget !backtracks;
  (match stats with
   | None -> ()
   | Some s ->
     s.calls <- s.calls + 1;
     s.decisions <- s.decisions + !ndecisions;
     s.backtracks <- s.backtracks + !backtracks);
  outcome
