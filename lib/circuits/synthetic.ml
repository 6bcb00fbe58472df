module Circuit = Netlist.Circuit
module Gate = Netlist.Gate

(* Minimal growable array of signal names, kept in creation order. *)
module Dyn = struct
  type t = { mutable arr : string array; mutable len : int }

  let of_array a = { arr = Array.copy a; len = Array.length a }

  let push t s =
    if t.len = Array.length t.arr then begin
      let arr = Array.make (max 16 (2 * t.len)) "" in
      Array.blit t.arr 0 arr 0 t.len;
      t.arr <- arr
    end;
    t.arr.(t.len) <- s;
    t.len <- t.len + 1

  let get t i = t.arr.(i)
  let length t = t.len
end

type style = {
  xor_percent : int;
  inv_percent : int;
  fanin3_percent : int;
  recency_bias : int;
}

let default_style =
  { xor_percent = 20; inv_percent = 10; fanin3_percent = 6; recency_bias = 1 }

(* Weighted gate-kind menu: NAND/NOR/AND/OR core with the style's share of
   XOR/XNOR (which never mask fault effects) and inverters/buffers. *)
let pick_kind style rng =
  let r = Prng.Rng.int rng 100 in
  if r < style.xor_percent then
    if r mod 3 = 0 then Gate.Xnor else Gate.Xor
  else if r < style.xor_percent + style.inv_percent then
    if r mod 4 = 0 then Gate.Buf else Gate.Not
  else begin
    match r mod 4 with
    | 0 -> Gate.Nand
    | 1 -> Gate.Nor
    | 2 -> Gate.And
    | _ -> Gate.Or
  end

let fanin_count style rng kind =
  match Gate.arity kind with
  | Some n -> n
  | None -> if Prng.Rng.int rng 100 < style.fanin3_percent then 3 else 2

(* Recency-biased pick over already-created signals: taking the max of
   several uniform draws skews towards recent signals, which grows
   combinational depth the way real synthesized logic does; too strong a
   bias yields tight reconvergence and with it redundant faults. *)
let pick_recent style rng n =
  match style.recency_bias with
  | 0 -> Prng.Rng.int rng n
  | 1 ->
    let a = Prng.Rng.int rng n in
    if Prng.Rng.int rng 100 < 50 then a else max a (Prng.Rng.int rng n)
  | _ -> max (Prng.Rng.int rng n) (Prng.Rng.int rng n)

let generate ?(style = default_style) ~name ~pis ~ffs ~gates ~seed () =
  if pis <= 0 then invalid_arg "Synthetic.generate: pis must be positive";
  if ffs < 0 then invalid_arg "Synthetic.generate: ffs must be non-negative";
  if gates <= 0 then invalid_arg "Synthetic.generate: gates must be positive";
  (* Every PI and FF output must be consumed at least once; with an average
     of ~2.2 pins per gate we need enough gates to cover all sources. *)
  let gates = max gates ((pis + ffs) / 2 + 2) in
  let rng = Prng.Rng.of_string seed name in
  let b = Circuit.Builder.create ~name () in
  let pi_name i = Printf.sprintf "PI%d" i in
  let ff_name i = Printf.sprintf "FF%d" i in
  let g_name i = Printf.sprintf "N%d" i in
  for i = 0 to pis - 1 do
    Circuit.Builder.add_input b (pi_name i)
  done;
  let sources =
    Array.init (pis + ffs) (fun i -> if i < pis then pi_name i else ff_name (i - pis))
  in
  let avail = Dyn.of_array sources in
  let pending = Queue.create () in
  Array.iter (fun s -> Queue.add s pending) sources;
  let consumed = Hashtbl.create (2 * gates) in
  let gate_names = Array.init gates g_name in
  let choose_fanin () =
    if (not (Queue.is_empty pending)) && Prng.Rng.int rng 100 < 55 then Queue.pop pending
    else Dyn.get avail (pick_recent style rng (Dyn.length avail))
  in
  for gi = 0 to gates - 1 do
    let kind = pick_kind style rng in
    let n = fanin_count style rng kind in
    (* Distinct fanins need that many signals: with a single source the
       first gate becomes an inverter, and a 3-input pick over two
       signals narrows to 2.  Draws are unchanged whenever enough signals
       exist. *)
    let kind, n =
      match Dyn.length avail with
      | 1 when n > 1 -> Gate.Not, 1
      | len when n > len -> kind, len
      | _ -> kind, n
    in
    let fanins = ref [] in
    let tries = ref 0 in
    while List.length !fanins < n do
      let f = choose_fanin () in
      incr tries;
      (* Duplicate fanins degenerate the gate (XOR(a,a) is constant) and
         breed redundant faults — always resample; fall back to a linear
         scan of available signals if random picks keep colliding. *)
      if not (List.mem f !fanins) then fanins := f :: !fanins
      else if !tries > 16 then begin
        let len = Dyn.length avail in
        let k = ref 0 in
        while List.length !fanins < n && !k < len do
          let s = Dyn.get avail !k in
          if not (List.mem s !fanins) then fanins := s :: !fanins;
          incr k
        done
      end
    done;
    let fanins = List.rev !fanins in
    Circuit.Builder.add_gate b gate_names.(gi) kind fanins;
    List.iter (fun f -> Hashtbl.replace consumed f ()) fanins;
    Dyn.push avail gate_names.(gi)
  done;
  (* Any source still pending gets drained into collector OR gates so that
     no PI or FF output is dangling. *)
  let collectors = ref [] in
  let ci = ref 0 in
  while not (Queue.is_empty pending) do
    let a = Queue.pop pending in
    let b2 =
      if Queue.is_empty pending then gate_names.(Prng.Rng.int rng gates)
      else Queue.pop pending
    in
    let cname = Printf.sprintf "C%d" !ci in
    incr ci;
    Circuit.Builder.add_gate b cname Gate.Or [ a; b2 ];
    Hashtbl.replace consumed a ();
    Hashtbl.replace consumed b2 ();
    collectors := cname :: !collectors
  done;
  let all_gates = Array.append gate_names (Array.of_list (List.rev !collectors)) in
  let total_gates = Array.length all_gates in
  (* Next-state functions: prefer gates from the deeper two thirds. *)
  for fi = 0 to ffs - 1 do
    let lo = total_gates / 3 in
    let d = all_gates.(lo + Prng.Rng.int rng (max 1 (total_gates - lo))) in
    Circuit.Builder.add_gate b (ff_name fi) Gate.Dff [ d ];
    Hashtbl.replace consumed d ()
  done;
  (* Primary outputs: a handful of deliberate POs plus every gate output
     that nothing consumes, so all cones are observable. *)
  let po = Hashtbl.create 16 in
  let deliberate = max 1 (min 32 (1 + (pis / 3) + (ffs / 8))) in
  let attempts = ref 0 in
  while Hashtbl.length po < deliberate && !attempts < 20 * deliberate do
    incr attempts;
    let g = all_gates.(pick_recent style rng total_gates) in
    if not (Hashtbl.mem po g) then Hashtbl.replace po g ()
  done;
  Array.iter
    (fun g ->
      if not (Hashtbl.mem consumed g || Hashtbl.mem po g) then Hashtbl.replace po g ())
    all_gates;
  (* Deterministic output order: creation order. *)
  Array.iter (fun g -> if Hashtbl.mem po g then Circuit.Builder.add_output b g) all_gates;
  Circuit.Builder.build b
