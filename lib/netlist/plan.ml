let op_input = 8
let op_dff = 10

type t = {
  nodes : int;
  op : int array;
  fanin_off : int array;
  fanin : int array;
  fanout_off : int array;
  fanout : int array;
  order : int array;
  level : int array;
  depth : int;
  level_off : int array;
  inputs : int array;
  outputs : int array;
  dffs : int array;
  dff_fanin : int array;
  dff_feed_off : int array;
  dff_feed : int array;
  dff_index : int array;
}

let opcode = function
  | Gate.And | Gate.Buf -> 0
  | Gate.Nand | Gate.Not -> 1
  | Gate.Or -> 2
  | Gate.Nor -> 3
  | Gate.Xor -> 4
  | Gate.Xnor -> 5
  | Gate.Mux -> 6
  | Gate.Input -> op_input
  | Gate.Dff -> op_dff

(* CSR over [n] rows from an entry stream: [entries push] calls
   [push row x] for every entry, in the order rows should list them.  Two
   passes over the stream: count, then fill. *)
let csr n entries =
  let off = Array.make (n + 1) 0 in
  entries (fun row _ -> off.(row + 1) <- off.(row + 1) + 1);
  for i = 0 to n - 1 do
    off.(i + 1) <- off.(i + 1) + off.(i)
  done;
  let data = Array.make off.(n) 0 in
  let fill = Array.sub off 0 n in
  entries (fun row x ->
      data.(fill.(row)) <- x;
      fill.(row) <- fill.(row) + 1);
  off, data

let compile c (lv : Levelize.t) =
  let n = Circuit.node_count c in
  let nodes = Circuit.nodes c in
  let is_dff m = nodes.(m).Circuit.kind = Gate.Dff in
  let fanin_off, fanin =
    csr n (fun push ->
        Array.iter
          (fun nd -> Array.iter (push nd.Circuit.id) nd.Circuit.fanins)
          nodes)
  in
  let fanout_off, fanout =
    csr n (fun push ->
        for i = 0 to n - 1 do
          Array.iter (fun m -> if not (is_dff m) then push i m) (Circuit.fanout c i)
        done)
  in
  let dffs = Circuit.dffs c in
  let dff_fanin = Array.map (fun ff -> nodes.(ff).Circuit.fanins.(0)) dffs in
  let dff_index = Array.make n (-1) in
  Array.iteri (fun k id -> dff_index.(id) <- k) dffs;
  (* Several flip-flops may share a data input; the latch step walks only
     a frame's touched nodes through this map. *)
  let dff_feed_off, dff_feed =
    csr n (fun push -> Array.iteri (fun k d -> push d k) dff_fanin)
  in
  let level_off = Array.make (lv.Levelize.depth + 2) 0 in
  Array.iteri
    (fun l cnt -> level_off.(l + 1) <- level_off.(l) + cnt)
    lv.Levelize.level_counts;
  {
    nodes = n;
    op = Array.map (fun nd -> opcode nd.Circuit.kind) nodes;
    fanin_off;
    fanin;
    fanout_off;
    fanout;
    order = lv.Levelize.order;
    level = lv.Levelize.level;
    depth = lv.Levelize.depth;
    level_off;
    inputs = Circuit.inputs c;
    outputs = Circuit.outputs c;
    dffs;
    dff_fanin;
    dff_feed_off;
    dff_feed;
    dff_index;
  }

(* Scalar three-valued evaluation of one gate.  The n-ary folds are
   written out per function so the loop makes no indirect call. *)
let eval p values id =
  let fanin = p.fanin in
  let lo = p.fanin_off.(id) and hi = p.fanin_off.(id + 1) in
  let op = p.op.(id) in
  let v =
    match op lsr 1 with
    | 0 ->
      let acc = ref values.(fanin.(lo)) in
      for i = lo + 1 to hi - 1 do
        acc := Logic.band !acc values.(fanin.(i))
      done;
      !acc
    | 1 ->
      let acc = ref values.(fanin.(lo)) in
      for i = lo + 1 to hi - 1 do
        acc := Logic.bor !acc values.(fanin.(i))
      done;
      !acc
    | 2 ->
      let acc = ref values.(fanin.(lo)) in
      for i = lo + 1 to hi - 1 do
        acc := Logic.bxor !acc values.(fanin.(i))
      done;
      !acc
    | 3 ->
      Logic.mux values.(fanin.(lo)) values.(fanin.(lo + 1)) values.(fanin.(lo + 2))
    | _ -> invalid_arg "Plan.eval: source node"
  in
  if op land 1 = 0 then v else Logic.bnot v
