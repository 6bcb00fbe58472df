module Circuit = Netlist.Circuit
module Gate = Netlist.Gate
module Logic = Netlist.Logic
module Levelize = Netlist.Levelize
module Model = Faultmodel.Model
module View = Vectors.View

let width = 62
let full = (1 lsl width) - 1

(* Branch-free SWAR popcount for non-negative values below 2^62 (our group
   words).  The 64-bit constants do not fit OCaml's 63-bit literals, so each
   mask is assembled from two 32-bit halves; bit 62 of [m1] lands on the
   sign bit, which is harmless under [land]. *)
let popcount x =
  let m1 = (0x55555555 lsl 32) lor 0x55555555 in
  let m2 = (0x33333333 lsl 32) lor 0x33333333 in
  let m4 = (0x0F0F0F0F lsl 32) lor 0x0F0F0F0F in
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  let x = x + (x lsr 8) in
  let x = x + (x lsr 16) in
  let x = x + (x lsr 32) in
  x land 0x7f

(* Session telemetry.  Every field except [toggles]/[wsa] is defined purely
   in terms of per-block work (see the repack-block scheme below), so the
   totals are identical at any [jobs] setting; the activity pair is counted
   by the session domain's good machine only, which makes it deterministic
   as well. *)
type stats = {
  mutable frames : int;
  mutable gframes : int;
  mutable events : int;
  mutable wakeups : int;
  mutable kills : int;
  mutable repacks : int;
  mutable toggles : int;
  mutable wsa : int;
}

let make_stats () =
  { frames = 0; gframes = 0; events = 0; wakeups = 0; kills = 0; repacks = 0;
    toggles = 0; wsa = 0 }

type group = {
  ids : int array;  (* slot -> fault id *)
  mutable active : int;  (* bitmask of undetected machines *)
  fzero : int array;  (* per dff index: state words *)
  fone : int array;
  inj_nodes : int array;  (* nodes carrying an injection in this group *)
  inj1 : int array;  (* stuck-at-1 machine masks, parallel to inj_nodes *)
  inj0 : int array;
  (* [fzero]/[fone] are only meaningful at the [ndirty] indices listed in
     [dirty] (membership mirrored in [dmark]); every other flip-flop
     implicitly holds the good machine's state. *)
  dirty : int array;
  mutable ndirty : int;
  dmark : Bytes.t;
  inj_dff : int array;  (* dff indices whose node carries an injection *)
}

(* Per-worker evaluation state.  [wz]/[wo] hold a node's absolute words only
   while [stamp] equals the current [epoch]; any other node implicitly holds
   the frame's good-value broadcast ([gw0]/[gw1]).  One epoch per
   (group, frame), so nothing is ever cleared. *)
type scratch = {
  wz : int array;
  wo : int array;
  mz : int array;  (* per-node injection masks while a group runs *)
  mo : int array;
  gw0 : int array;  (* good-value broadcast words of the current frame *)
  gw1 : int array;
  qstamp : int array;  (* epoch at which a node was last enqueued *)
  mutable epoch : int;
  queue : int array array;  (* per level: pending gate ids *)
  qlen : int array;
  touched : int array;  (* nodes stamped this epoch, for the latch walk *)
  mutable ntouched : int;
  (* Telemetry staging: zeroed when a worker starts, flushed into the
     session's [stats] after the (possibly cross-domain) merge.  Plain
     mutable ints on worker-private state keep the hot path free of any
     shared-memory traffic. *)
  mutable s_gframes : int;
  mutable s_events : int;
  mutable s_wakeups : int;
  mutable s_kills : int;
  mutable s_repacks : int;
}

type t = {
  model : Model.t;
  jobs : int;
  order : int array;
  level : int array;
  depth : int;
  inputs : int array;
  outputs : int array;
  dffs : int array;
  dff_fanin : int array;
  dff_feed_off : int array;  (* node -> CSR range into [dff_feed] *)
  dff_feed : int array;  (* dff indices latched from that node *)
  dff_index : int array;  (* node -> dff slot, -1 for non-flip-flops *)
  kinds : Gate.kind array;
  fanins : int array array;
  comb_fanouts : int array array;  (* fanouts minus flip-flops (latch step) *)
  good : Goodsim.t;
  budget : Obs.Budget.t;
  fault_ids : int array;  (* the targeted faults, in the caller's order *)
  mutable groups : group array;  (* repacking may rewrite the array *)
  group_of : int array;  (* fault id -> group index, -1 when untargeted *)
  slot_of : int array;  (* fault id -> slot in its group *)
  det_time : int array;  (* fault id -> frame, -1 undetected *)
  mutable detected : int;
  mutable time : int;
  scratch : scratch;  (* the calling domain's worker state *)
  stats : stats;
  observe : bool;  (* count good-machine toggle / WSA activity *)
  prev_good : Logic.t array;  (* last frame's good values ([||] unless observing) *)
  fanout_count : int array;  (* node -> fanout count ([||] unless observing) *)
  frame_toggles : Obs.Hist.t;  (* per-frame toggle counts (observe mode) *)
}

let make_scratch model =
  let c = model.Model.circuit in
  let n = Circuit.node_count c in
  let lv = model.Model.levelize in
  {
    wz = Array.make n 0;
    wo = Array.make n 0;
    mz = Array.make n 0;
    mo = Array.make n 0;
    gw0 = Array.make n 0;
    gw1 = Array.make n 0;
    qstamp = Array.make n 0;
    epoch = 0;
    queue = Array.map (fun cnt -> Array.make cnt 0) lv.Levelize.level_counts;
    qlen = Array.make (lv.Levelize.depth + 1) 0;
    touched = Array.make n 0;
    ntouched = 0;
    s_gframes = 0;
    s_events = 0;
    s_wakeups = 0;
    s_kills = 0;
    s_repacks = 0;
  }

let reset_sstats sc =
  sc.s_gframes <- 0;
  sc.s_events <- 0;
  sc.s_wakeups <- 0;
  sc.s_kills <- 0;
  sc.s_repacks <- 0

let flush_sstats stats (gframes, events, wakeups, kills, repacks) =
  stats.gframes <- stats.gframes + gframes;
  stats.events <- stats.events + events;
  stats.wakeups <- stats.wakeups + wakeups;
  stats.kills <- stats.kills + kills;
  stats.repacks <- stats.repacks + repacks

let read_sstats sc =
  (sc.s_gframes, sc.s_events, sc.s_wakeups, sc.s_kills, sc.s_repacks)

(* Injection tables of one word of faults: per distinct site, the
   stuck-at-1/0 machine masks, plus the dff slots among the sites. *)
let build_injections model dff_index ids =
  let inj = Hashtbl.create 16 in
  Array.iteri
    (fun slot fid ->
      let node = model.Model.fault_node.(fid) in
      let m1, m0 =
        match Hashtbl.find_opt inj node with
        | Some p -> p
        | None -> 0, 0
      in
      let bit = 1 lsl slot in
      let p =
        if model.Model.fault_stuck.(fid) then m1 lor bit, m0
        else m1, m0 lor bit
      in
      Hashtbl.replace inj node p)
    ids;
  let inj_nodes = Array.of_seq (Hashtbl.to_seq_keys inj) in
  Array.sort compare inj_nodes;
  let inj1 = Array.map (fun nd -> fst (Hashtbl.find inj nd)) inj_nodes in
  let inj0 = Array.map (fun nd -> snd (Hashtbl.find inj nd)) inj_nodes in
  let inj_dff =
    Array.of_list
      (List.filter_map
         (fun nd -> if dff_index.(nd) >= 0 then Some dff_index.(nd) else None)
         (Array.to_list inj_nodes))
  in
  inj_nodes, inj1, inj0, inj_dff

(* Test instrumentation: called once per advance per scheduled block with
   the block's canonical id, from whichever domain owns the block.  The
   fault-injection tests poison a specific block to exercise the
   cross-domain error path; production leaves the hook at its no-op. *)
let block_hook : (int -> unit) ref = ref (fun _ -> ())
let set_block_hook f = block_hook := f
let clear_block_hook () = block_hook := fun _ -> ()

let create ?good_state ?faulty_states ?(jobs = 1)
    ?(observe = false) ?(budget = Obs.Budget.unlimited) model ~fault_ids =
  let c = model.Model.circuit in
  let dffs = Circuit.dffs c in
  let nff = Array.length dffs in
  let n = Circuit.node_count c in
  let dff_index = Array.make n (-1) in
  Array.iteri (fun k id -> dff_index.(id) <- k) dffs;
  (* CSR map: node -> dff slots it drives (several flip-flops may share a
     fanin).  The event engine's latch walks only the frame's touched nodes
     through this map instead of scanning every flip-flop. *)
  let dff_fanin =
    Array.map (fun ff -> (Circuit.node c ff).Circuit.fanins.(0)) dffs
  in
  let dff_feed_off = Array.make (n + 1) 0 in
  Array.iter
    (fun d -> dff_feed_off.(d + 1) <- dff_feed_off.(d + 1) + 1)
    dff_fanin;
  for i = 0 to n - 1 do
    dff_feed_off.(i + 1) <- dff_feed_off.(i + 1) + dff_feed_off.(i)
  done;
  let dff_feed = Array.make nff 0 in
  let fill = Array.copy dff_feed_off in
  Array.iteri
    (fun k d ->
      dff_feed.(fill.(d)) <- k;
      fill.(d) <- fill.(d) + 1)
    dff_fanin;
  let fault_total = Model.fault_count model in
  let good = Goodsim.create ~levelize:model.Model.levelize c in
  let good_state =
    match good_state with
    | Some s -> s
    | None -> Array.make nff Logic.X
  in
  Goodsim.set_state good good_state;
  let faulty_state_of =
    match faulty_states with
    | Some f -> f
    | None -> fun _ -> good_state
  in
  let ngroups = (Array.length fault_ids + width - 1) / width in
  let group_of = Array.make fault_total (-1) in
  let slot_of = Array.make fault_total (-1) in
  let groups =
    Array.init ngroups (fun gi ->
        let lo = gi * width in
        let len = min width (Array.length fault_ids - lo) in
        let ids = Array.sub fault_ids lo len in
        Array.iteri
          (fun slot fid ->
            if group_of.(fid) >= 0 then
              invalid_arg "Faultsim.create: duplicate fault id";
            group_of.(fid) <- gi;
            slot_of.(fid) <- slot)
          ids;
        let fzero = Array.make nff 0 and fone = Array.make nff 0 in
        Array.iteri
          (fun slot fid ->
            let st = faulty_state_of fid in
            let bit = 1 lsl slot in
            Array.iteri
              (fun k v ->
                match v with
                | Logic.Zero -> fzero.(k) <- fzero.(k) lor bit
                | Logic.One -> fone.(k) <- fone.(k) lor bit
                | Logic.X -> ())
              st)
          ids;
        let inj_nodes, inj1, inj0, inj_dff =
          build_injections model dff_index ids
        in
        { ids; active = (if len = width then full else (1 lsl len) - 1);
          fzero; fone; inj_nodes; inj1; inj0;
          dirty = Array.init nff (fun k -> k);
          ndirty = nff;
          dmark = Bytes.make nff '\001';
          inj_dff })
  in
  {
    model;
    jobs = max 1 jobs;
    order = model.Model.levelize.Levelize.order;
    level = model.Model.levelize.Levelize.level;
    depth = model.Model.levelize.Levelize.depth;
    inputs = Circuit.inputs c;
    outputs = Circuit.outputs c;
    dffs;
    dff_fanin;
    dff_feed_off;
    dff_feed;
    dff_index;
    kinds = Array.map (fun nd -> nd.Circuit.kind) (Circuit.nodes c);
    fanins = Array.map (fun nd -> nd.Circuit.fanins) (Circuit.nodes c);
    comb_fanouts =
      Array.init n (fun nd ->
          Array.of_list
            (List.filter
               (fun m -> (Circuit.node c m).Circuit.kind <> Gate.Dff)
               (Array.to_list (Circuit.fanout c nd))));
    good;
    budget;
    fault_ids = Array.copy fault_ids;
    groups;
    group_of;
    slot_of;
    det_time = Array.make fault_total (-1);
    detected = 0;
    time = 0;
    scratch = make_scratch model;
    stats = make_stats ();
    observe;
    prev_good = (if observe then Array.make n Logic.X else [||]);
    fanout_count =
      (if observe then
         Array.init n (fun nd -> Array.length (Circuit.fanout c nd))
       else [||]);
    frame_toggles = Obs.Hist.create ();
  }

let time t = t.time

(* Toggle / weighted-switching activity of the good machine, counted right
   after its step.  Only the session domain calls this (spawned workers
   merely replay the good trace), so plain mutation of [t.stats] is safe
   and the totals never depend on [jobs].  A toggle is a binary-to-opposite
   transition; X transitions carry no defined switching energy.  The WSA
   weight [1 + fanouts] is the usual gate-plus-fanout capacitance proxy. *)
let count_activity t gsim =
  let prev = t.prev_good in
  let toggles = ref 0 and wsa = ref 0 in
  for nd = 0 to Array.length prev - 1 do
    let v = Goodsim.value gsim nd in
    (match prev.(nd), v with
     | Logic.Zero, Logic.One | Logic.One, Logic.Zero ->
       incr toggles;
       wsa := !wsa + 1 + t.fanout_count.(nd)
     | _ -> ());
    prev.(nd) <- v
  done;
  t.stats.toggles <- t.stats.toggles + !toggles;
  t.stats.wsa <- t.stats.wsa + !wsa;
  Obs.Hist.observe t.frame_toggles !toggles

(* -------------------------------------------------- event-driven engine *)

(* HOPE-style selective trace over difference words.  The good machine is
   simulated once per worker; a group's frame starts from the fact that
   every node equals the good broadcast unless a fault effect reaches it.
   During an event frame [wz]/[wo] hold each rail XORed with the broadcast,
   so an untouched node reads as all-zero without any per-node tag: seeds
   and evaluated gates store only genuine divergences, the frame's touched
   nodes are reset afterwards (O(activity), never O(nodes)), and a node
   whose recomputed words collapse back to the broadcast stops the
   trace. *)

let schedule_fanouts t sc nd =
  let fos = t.comb_fanouts.(nd) in
  for i = 0 to Array.length fos - 1 do
    let m = fos.(i) in
    if sc.qstamp.(m) <> sc.epoch then begin
      sc.qstamp.(m) <- sc.epoch;
      let lvl = t.level.(m) in
      sc.queue.(lvl).(sc.qlen.(lvl)) <- m;
      sc.qlen.(lvl) <- sc.qlen.(lvl) + 1
    end
  done

(* Evaluate a scheduled gate from difference-word fanins; record and
   propagate only a genuine divergence from the good broadcast. *)
let eval_event t sc nd =
  let f = t.fanins.(nd) in
  let wz = sc.wz and wo = sc.wo and gw0 = sc.gw0 and gw1 = sc.gw1 in
  let z = ref 0 and o = ref 0 in
  (match t.kinds.(nd) with
   | Gate.Buf ->
     z := wz.(f.(0)) lxor gw0.(f.(0));
     o := wo.(f.(0)) lxor gw1.(f.(0))
   | Gate.Not ->
     z := wo.(f.(0)) lxor gw1.(f.(0));
     o := wz.(f.(0)) lxor gw0.(f.(0))
   | Gate.And | Gate.Nand ->
     z := wz.(f.(0)) lxor gw0.(f.(0));
     o := wo.(f.(0)) lxor gw1.(f.(0));
     for i = 1 to Array.length f - 1 do
       z := !z lor (wz.(f.(i)) lxor gw0.(f.(i)));
       o := !o land (wo.(f.(i)) lxor gw1.(f.(i)))
     done;
     if t.kinds.(nd) = Gate.Nand then begin
       let tmp = !z in
       z := !o;
       o := tmp
     end
   | Gate.Or | Gate.Nor ->
     z := wz.(f.(0)) lxor gw0.(f.(0));
     o := wo.(f.(0)) lxor gw1.(f.(0));
     for i = 1 to Array.length f - 1 do
       z := !z land (wz.(f.(i)) lxor gw0.(f.(i)));
       o := !o lor (wo.(f.(i)) lxor gw1.(f.(i)))
     done;
     if t.kinds.(nd) = Gate.Nor then begin
       let tmp = !z in
       z := !o;
       o := tmp
     end
   | Gate.Xor | Gate.Xnor ->
     z := wz.(f.(0)) lxor gw0.(f.(0));
     o := wo.(f.(0)) lxor gw1.(f.(0));
     for i = 1 to Array.length f - 1 do
       let z2 = wz.(f.(i)) lxor gw0.(f.(i))
       and o2 = wo.(f.(i)) lxor gw1.(f.(i)) in
       let no = !o land z2 lor (!z land o2) in
       let nz = !z land z2 lor (!o land o2) in
       z := nz;
       o := no
     done;
     if t.kinds.(nd) = Gate.Xnor then begin
       let tmp = !z in
       z := !o;
       o := tmp
     end
   | Gate.Mux ->
     let zs = wz.(f.(0)) lxor gw0.(f.(0)) and os = wo.(f.(0)) lxor gw1.(f.(0)) in
     let za = wz.(f.(1)) lxor gw0.(f.(1)) and oa = wo.(f.(1)) lxor gw1.(f.(1)) in
     let zb = wz.(f.(2)) lxor gw0.(f.(2)) and ob = wo.(f.(2)) lxor gw1.(f.(2)) in
     o := zs land oa lor (os land ob) lor (oa land ob);
     z := zs land za lor (os land zb) lor (za land zb)
   | Gate.Input | Gate.Dff -> assert false);
  let m1 = sc.mo.(nd) and m0 = sc.mz.(nd) in
  if m1 lor m0 <> 0 then begin
    z := !z land lnot m1 lor m0;
    o := !o land lnot m0 lor m1
  end;
  let zd = !z lxor gw0.(nd) and od = !o lxor gw1.(nd) in
  if zd lor od <> 0 then begin
    sc.touched.(sc.ntouched) <- nd;
    sc.ntouched <- sc.ntouched + 1;
    wz.(nd) <- zd;
    wo.(nd) <- od;
    schedule_fanouts t sc nd
  end

(* One frame of one group.  [sc.gw0]/[sc.gw1] must hold the frame's good
   broadcast.  Detections write [t.det_time] (slots are disjoint across
   groups, so concurrent workers never collide) and count into
   [detections]. *)
let sim_frame_event t sc g time detections =
  sc.epoch <- sc.epoch + 1;
  sc.ntouched <- 0;
  sc.s_gframes <- sc.s_gframes + 1;
  sc.s_wakeups <- sc.s_wakeups + g.ndirty;
  let epoch = sc.epoch in
  (* Detected machines are dead weight: masking their bits out of every
     seed (their state snaps to the good value, their injections stop
     firing) makes a group's event cone shrink as its faults retire,
     long before all 62 are gone. *)
  let act = g.active in
  let ninj = Array.length g.inj_nodes in
  for i = 0 to ninj - 1 do
    sc.mo.(g.inj_nodes.(i)) <- g.inj1.(i) land act;
    sc.mz.(g.inj_nodes.(i)) <- g.inj0.(i) land act
  done;
  (* Seed a flip-flop whose (injected) faulty words differ from the good
     state.  [dz]/[dv] are the stored state words, already restricted to
     active machines. *)
  let seed_dff k dz dv =
    let id = t.dffs.(k) in
    let z = ref dz and o = ref dv in
    let m1 = sc.mo.(id) and m0 = sc.mz.(id) in
    if m1 lor m0 <> 0 then begin
      z := !z land lnot m1 lor m0;
      o := !o land lnot m0 lor m1
    end;
    let zd = !z lxor sc.gw0.(id) and od = !o lxor sc.gw1.(id) in
    if zd lor od <> 0 then begin
      sc.touched.(sc.ntouched) <- id;
      sc.ntouched <- sc.ntouched + 1;
      sc.wz.(id) <- zd;
      sc.wo.(id) <- od;
      schedule_fanouts t sc id
    end
  in
  (* Only flip-flops on the dirty list can differ from the good machine;
     injection sites on clean flip-flops start from the implicit good
     words. *)
  for i = 0 to g.ndirty - 1 do
    let k = g.dirty.(i) in
    let id = t.dffs.(k) in
    seed_dff k
      (g.fzero.(k) land act lor (sc.gw0.(id) land lnot act))
      (g.fone.(k) land act lor (sc.gw1.(id) land lnot act))
  done;
  for i = 0 to Array.length g.inj_dff - 1 do
    let k = g.inj_dff.(i) in
    if Bytes.unsafe_get g.dmark k = '\000' then
      seed_dff k sc.gw0.(t.dffs.(k)) sc.gw1.(t.dffs.(k))
  done;
  (* Seed: injection sites (gates self-schedule; forced sources diverge
     directly). *)
  for i = 0 to ninj - 1 do
    let nd = g.inj_nodes.(i) in
    match t.kinds.(nd) with
    | Gate.Dff -> ()  (* handled with the state seeds above *)
    | Gate.Input ->
      let m1 = sc.mo.(nd) and m0 = sc.mz.(nd) in
      let z = sc.gw0.(nd) land lnot m1 lor m0 in
      let o = sc.gw1.(nd) land lnot m0 lor m1 in
      let zd = z lxor sc.gw0.(nd) and od = o lxor sc.gw1.(nd) in
      if zd lor od <> 0 then begin
        sc.touched.(sc.ntouched) <- nd;
        sc.ntouched <- sc.ntouched + 1;
        sc.wz.(nd) <- zd;
        sc.wo.(nd) <- od;
        schedule_fanouts t sc nd
      end
    | _ ->
      if sc.qstamp.(nd) <> epoch then begin
        sc.qstamp.(nd) <- epoch;
        let lvl = t.level.(nd) in
        sc.queue.(lvl).(sc.qlen.(lvl)) <- nd;
        sc.qlen.(lvl) <- sc.qlen.(lvl) + 1
      end
  done;
  (* Propagate, level-ordered; a gate only ever schedules strictly deeper
     gates. *)
  for lvl = 1 to t.depth do
    let q = sc.queue.(lvl) in
    let len = sc.qlen.(lvl) in
    sc.s_events <- sc.s_events + len;
    for j = 0 to len - 1 do
      eval_event t sc q.(j)
    done;
    sc.qlen.(lvl) <- 0
  done;
  (* Detection, branch-free: under [land] with the opposite good rail the
     difference word equals the absolute word, and untouched outputs are
     all-zero, so every output folds in without a test. *)
  let det = ref 0 in
  for p = 0 to Array.length t.outputs - 1 do
    let id = t.outputs.(p) in
    det :=
      !det lor (sc.wz.(id) land sc.gw1.(id)) lor (sc.wo.(id) land sc.gw0.(id))
  done;
  let det = !det land g.active in
  if det <> 0 then begin
    sc.s_kills <- sc.s_kills + popcount det;
    Array.iteri
      (fun slot fid ->
        if det land (1 lsl slot) <> 0 then begin
          t.det_time.(fid) <- time;
          incr detections
        end)
      g.ids;
    g.active <- g.active land lnot det
  end;
  (* Latch: a flip-flop captures a non-good word only when its fanin was
     touched this frame, so rebuilding the dirty set from the touched nodes
     covers every divergence; everything else implicitly latches the good
     value. *)
  for i = 0 to g.ndirty - 1 do
    Bytes.unsafe_set g.dmark g.dirty.(i) '\000'
  done;
  g.ndirty <- 0;
  for i = 0 to sc.ntouched - 1 do
    let nd = sc.touched.(i) in
    for j = t.dff_feed_off.(nd) to t.dff_feed_off.(nd + 1) - 1 do
      let k = t.dff_feed.(j) in
      g.fzero.(k) <- sc.wz.(nd) lxor sc.gw0.(nd);
      g.fone.(k) <- sc.wo.(nd) lxor sc.gw1.(nd);
      Bytes.unsafe_set g.dmark k '\001';
      g.dirty.(g.ndirty) <- k;
      g.ndirty <- g.ndirty + 1
    done
  done;
  (* Reset this frame's difference words so the next (group, frame) starts
     from an all-clean array. *)
  for i = 0 to sc.ntouched - 1 do
    let nd = sc.touched.(i) in
    sc.wz.(nd) <- 0;
    sc.wo.(nd) <- 0
  done;
  for i = 0 to ninj - 1 do
    sc.mo.(g.inj_nodes.(i)) <- 0;
    sc.mz.(g.inj_nodes.(i)) <- 0
  done

(* Repack a worker's surviving machines into as few words as possible.
   Machines are independent, so word packing is invisible to every
   per-fault outcome; it only shrinks the number of group-frames the
   simulator executes once fault dropping has hollowed the words out.
   [sc] must still hold the broadcast of the frame just simulated: a
   flip-flop that is dirty for one source group but clean for another
   reads the clean faults' values off the good next-state, i.e. the
   broadcast at the flip-flop's fanin. *)
let repack t sc groups =
  let nff = Array.length t.dffs in
  let acc = ref [] in
  Array.iter
    (fun g ->
      if g.active <> 0 then
        Array.iteri
          (fun slot fid ->
            if g.active land (1 lsl slot) <> 0 then
              acc := (fid, g, slot) :: !acc)
          g.ids)
    groups;
  let live = Array.of_list (List.rev !acc) in
  let ngroups = (Array.length live + width - 1) / width in
  Array.init ngroups (fun gi ->
      let lo = gi * width in
      let len = min width (Array.length live - lo) in
      let ids = Array.init len (fun i -> let fid, _, _ = live.(lo + i) in fid) in
      let fzero = Array.make nff 0 and fone = Array.make nff 0 in
      let dirty = Array.make nff 0 in
      let dmark = Bytes.make nff '\000' in
      let ndirty = ref 0 in
      for i = 0 to len - 1 do
        let _, og, _ = live.(lo + i) in
        for j = 0 to og.ndirty - 1 do
          let k = og.dirty.(j) in
          if Bytes.get dmark k = '\000' then begin
            Bytes.set dmark k '\001';
            dirty.(!ndirty) <- k;
            incr ndirty
          end
        done
      done;
      let amask = if len = width then full else (1 lsl len) - 1 in
      for j = 0 to !ndirty - 1 do
        let k = dirty.(j) in
        let d = t.dff_fanin.(k) in
        let z = ref (if sc.gw0.(d) <> 0 then amask else 0) in
        let o = ref (if sc.gw1.(d) <> 0 then amask else 0) in
        for i = 0 to len - 1 do
          let _, og, oslot = live.(lo + i) in
          if Bytes.get og.dmark k <> '\000' then begin
            let bit = 1 lsl i in
            z := !z land lnot bit;
            o := !o land lnot bit;
            if og.fzero.(k) lsr oslot land 1 <> 0 then z := !z lor bit;
            if og.fone.(k) lsr oslot land 1 <> 0 then o := !o lor bit
          end
        done;
        fzero.(k) <- !z;
        fone.(k) <- !o
      done;
      let inj_nodes, inj1, inj0, inj_dff =
        build_injections t.model t.dff_index ids
      in
      { ids; active = amask;
        fzero; fone; inj_nodes; inj1; inj0;
        dirty; ndirty = !ndirty; dmark; inj_dff })

(* Scheduling unit for workers and repacking alike: a fixed run of up to
   [repack_block] consecutive groups.  Blocks — not individual groups — are
   dealt round-robin across domains, and a block only ever repacks within
   itself, at a trigger computed from its own machine counts.  Because the
   partition into blocks depends only on the pre-advance group order (never
   on [jobs]), each block evolves identically no matter which worker owns
   it, which is what makes every telemetry counter (and the repack schedule
   itself) bit-identical across job counts. *)
let repack_block = 8

type block = {
  bid : int;  (* canonical position for the post-merge reassembly *)
  mutable bgroups : group array;
  mutable bretired : group list;  (* reverse retirement order *)
  mutable blive : int;  (* groups in [bgroups] with active machines *)
  mutable bmachines : int;  (* live machines across the block *)
}

(* Run [blocks] over the whole view with worker-owned state.  [gsim] is the
   worker's good machine (the session's own for the calling domain, a
   replayed copy for spawned ones).  [step_all] keeps stepping the good
   machine after every group retired — required for the session machine,
   whose final state is observable.  Blocks are mutated in place; the
   caller reads them back after the domain join.  Returns the worker's
   detection count and its staged telemetry counters. *)
let run_worker t sc gsim view t0 ~blocks ~step_all =
  let nframes = View.length view in
  let n = Array.length sc.gw0 in
  reset_sstats sc;
  Array.iter (fun b -> !block_hook b.bid) blocks;
  let detections = ref 0 in
  let live = ref (Array.fold_left (fun a b -> a + b.blive) 0 blocks) in
  (* A tripped budget freezes this worker's fault machines at the current
     frame (sound: no detection is ever invented, faults merely stay
     undetected).  Only the session domain probes the clock; spawned
     workers read the atomic tripped flag, keeping the budget's non-atomic
     probe state single-domain.  The session's good machine still steps
     through every frame so its final state stays consistent. *)
  let limited = Obs.Budget.limited t.budget in
  let stopped = ref false in
  let fi = ref 0 in
  while !fi < nframes && ((!live > 0 && not !stopped) || step_all) do
    Goodsim.step gsim (View.get view !fi);
    if step_all && t.observe then count_activity t gsim;
    if limited && not !stopped
       && (if step_all then Obs.Budget.expired t.budget
           else Obs.Budget.tripped t.budget <> None)
    then stopped := true;
    if !live > 0 && not !stopped then begin
      for nd = 0 to n - 1 do
        match Goodsim.value gsim nd with
        | Logic.Zero ->
          sc.gw0.(nd) <- full;
          sc.gw1.(nd) <- 0
        | Logic.One ->
          sc.gw0.(nd) <- 0;
          sc.gw1.(nd) <- full
        | Logic.X ->
          sc.gw0.(nd) <- 0;
          sc.gw1.(nd) <- 0
      done;
      Array.iter
        (fun b ->
          if b.blive > 0 then begin
            let before = !detections in
            Array.iter
              (fun g ->
                if g.active <> 0 then begin
                  sim_frame_event t sc g (t0 + !fi) detections;
                  if g.active = 0 then begin
                    b.blive <- b.blive - 1;
                    decr live
                  end
                end)
              b.bgroups;
            b.bmachines <- b.bmachines - (!detections - before);
            (* Fault dropping hollows the words out; once half the block's
               live groups could be saved, repack its survivors into fresh
               full words. *)
            let needed = (b.bmachines + width - 1) / width in
            if b.blive > 1 && 2 * needed <= b.blive && !fi < nframes - 1
            then begin
              Array.iter
                (fun g -> if g.active = 0 then b.bretired <- g :: b.bretired)
                b.bgroups;
              let packed = repack t sc b.bgroups in
              sc.s_repacks <- sc.s_repacks + 1;
              live := !live - b.blive + Array.length packed;
              b.blive <- Array.length packed;
              b.bgroups <- packed
            end
          end)
        blocks;
    end;
    incr fi
  done;
  !detections, read_sstats sc

let advance_event t view =
  let nframes = View.length view in
  let t0 = t.time in
  let pre_retired =
    Array.of_list (List.filter (fun g -> g.active = 0) (Array.to_list t.groups))
  in
  let active =
    Array.of_list
      (List.filter (fun g -> g.active <> 0) (Array.to_list t.groups))
  in
  let nblocks = (Array.length active + repack_block - 1) / repack_block in
  let blocks =
    Array.init nblocks (fun bi ->
        let lo = bi * repack_block in
        let len = min repack_block (Array.length active - lo) in
        let bgroups = Array.sub active lo len in
        { bid = bi;
          bgroups;
          bretired = [];
          blive = len;
          bmachines =
            Array.fold_left (fun a g -> a + popcount g.active) 0 bgroups })
  in
  let jobs = min t.jobs nblocks in
  let worker_stats =
    if jobs <= 1 then begin
      let d, ws =
        run_worker t t.scratch t.good view t0 ~blocks ~step_all:true
      in
      t.detected <- t.detected + d;
      [ ws ]
    end
    else begin
      (* Blocks are independent given the good trace: deal them round-robin
         across domains.  Each spawned worker replays the good machine from
         the pre-advance state with its own scratch; detection times and
         group states land in disjoint slots, so the merged outcome is
         identical to the sequential schedule regardless of
         interleaving. *)
      let init_state = Goodsim.state t.good in
      let share w =
        let acc = ref [] in
        Array.iter (fun b -> if b.bid mod jobs = w then acc := b :: !acc) blocks;
        Array.of_list (List.rev !acc)
      in
      (* An exception in any worker (including the session domain's own
         share) must not leave sibling domains unjoined: capture each
         worker's outcome, join everything, then re-raise the first error —
         session domain first, then spawn order — with its backtrace. *)
      let spawned =
        Array.init (jobs - 1) (fun k ->
            let blocks = share (k + 1) in
            Domain.spawn (fun () ->
                match
                  let sc = make_scratch t.model in
                  let gsim =
                    Goodsim.create ~levelize:t.model.Model.levelize
                      t.model.Model.circuit
                  in
                  Goodsim.set_state gsim init_state;
                  run_worker t sc gsim view t0 ~blocks ~step_all:false
                with
                | r -> Ok r
                | exception e -> Error (e, Printexc.get_raw_backtrace ())))
      in
      let main_result =
        match
          run_worker t t.scratch t.good view t0 ~blocks:(share 0)
            ~step_all:true
        with
        | r -> Ok r
        | exception e -> Error (e, Printexc.get_raw_backtrace ())
      in
      let results = Array.map Domain.join spawned in
      let reraise = function
        | Error (e, bt) -> Printexc.raise_with_backtrace e bt
        | Ok _ -> ()
      in
      reraise main_result;
      Array.iter reraise results;
      let unwrap = function Ok r -> r | Error _ -> assert false in
      let d0, ws0 = unwrap main_result in
      let results = Array.map unwrap results in
      let d = Array.fold_left (fun acc (dm, _) -> acc + dm) d0 results in
      t.detected <- t.detected + d;
      ws0 :: Array.to_list (Array.map snd results)
    end
  in
  List.iter (flush_sstats t.stats) worker_stats;
  (* Reassemble in canonical block order — the merged group array (hence
     the next advance's block partition) is independent of which worker
     owned which block. *)
  t.groups <-
    Array.concat
      (Array.to_list
         (Array.map
            (fun b ->
              Array.append b.bgroups (Array.of_list (List.rev b.bretired)))
            blocks)
      @ [ pre_retired ]);
  (* Repacking may have rearranged faults across words, and faults that
     were detected out of a still-live group are no longer packed at all:
     refresh the fault -> (group, slot) maps, leaving the dropped (all
     detected) faults on the -2 sentinel. *)
  Array.iter
    (fun fid ->
      t.group_of.(fid) <- -2;
      t.slot_of.(fid) <- -1)
    t.fault_ids;
  Array.iteri
    (fun gi g ->
      Array.iteri
        (fun slot fid ->
          t.group_of.(fid) <- gi;
          t.slot_of.(fid) <- slot)
        g.ids)
    t.groups;
  t.time <- t0 + nframes

let advance_view t view =
  if View.length view > 0 then begin
    t.stats.frames <- t.stats.frames + View.length view;
    advance_event t view
  end

let advance t seq = advance_view t (View.of_seq seq)

(* -------------------------------------------------------------- queries *)

let check_target t fid =
  if fid < 0 || fid >= Array.length t.group_of || t.group_of.(fid) = -1 then
    invalid_arg "Faultsim: fault not targeted by this session"

let detection_time t fid =
  check_target t fid;
  if t.det_time.(fid) >= 0 then Some t.det_time.(fid) else None

let detected_count t = t.detected

let stats t = t.stats

let frame_toggles t = t.frame_toggles

let undetected t =
  let acc = ref [] in
  Array.iter
    (fun fid ->
      if t.det_time.(fid) < 0 then begin
        let g = t.groups.(t.group_of.(fid)) in
        if g.active land (1 lsl t.slot_of.(fid)) <> 0 then acc := fid :: !acc
      end)
    t.fault_ids;
  Array.of_list (List.rev !acc)

let good_state t = Goodsim.state t.good

(* A flip-flop off the dirty list implicitly holds the good machine's
   state. *)

let faulty_state t fid =
  check_target t fid;
  let good = Goodsim.state t.good in
  if t.det_time.(fid) >= 0 then good
    (* detected machines stop being updated; their state is the good one *)
  else begin
    let g = t.groups.(t.group_of.(fid)) in
    let bit = 1 lsl t.slot_of.(fid) in
    Array.mapi
      (fun k _ ->
        if Bytes.get g.dmark k = '\000' then good.(k)
        else if g.fone.(k) land bit <> 0 then Logic.One
        else if g.fzero.(k) land bit <> 0 then Logic.Zero
        else Logic.X)
      t.dffs
  end

let ff_effects t fid =
  check_target t fid;
  if t.det_time.(fid) >= 0 then []
  else begin
  let g = t.groups.(t.group_of.(fid)) in
  let bit = 1 lsl t.slot_of.(fid) in
  let good = Goodsim.state t.good in
  let acc = ref [] in
  for k = Array.length t.dffs - 1 downto 0 do
    let effect =
      Bytes.get g.dmark k <> '\000'
      &&
      match good.(k) with
      | Logic.One -> g.fzero.(k) land bit <> 0
      | Logic.Zero -> g.fone.(k) land bit <> 0
      | Logic.X -> false
    in
    if effect then acc := k :: !acc
  done;
  !acc
  end

let effect_bits t =
  let good = Goodsim.state t.good in
  let total = ref 0 in
  Array.iter
    (fun g ->
      if g.active <> 0 then
        Array.iteri
          (fun k gv ->
            if Bytes.get g.dmark k <> '\000' then
              match gv with
              | Logic.One ->
                total := !total + popcount (g.fzero.(k) land g.active)
              | Logic.Zero ->
                total := !total + popcount (g.fone.(k) land g.active)
              | Logic.X -> ())
          good)
    t.groups;
  !total

(* ------------------------------------------------------------ snapshots *)

(* A snapshot keeps the session's faulty states in their packed group
   representation — two state words plus a dirty byte per flip-flop per
   group of up to 62 faults — so capturing costs ~1/62 of materializing
   per-fault state arrays.  Individual states are unpacked on demand when
   [of_snapshot]'s [create] reads them, i.e. only for the faults a probe
   session actually targets. *)

type snap_group = {
  sg_fzero : int array;
  sg_fone : int array;
  sg_dmark : Bytes.t;
}

type snapshot = {
  snap_model : Model.t;
  snap_good : Logic.t array;
  snap_captured : Bytes.t;  (* fault id -> '\001' when captured *)
  snap_group_of : int array;
  snap_slot_of : int array;
  snap_det : int array;  (* det_time at capture *)
  snap_groups : snap_group array;
  snap_nff : int;
}

(* A snapshot arena recycles one capture's buffers into the next: the
   per-fault index/det arrays, the good-state array, and the per-group
   packed words are all overwritten in place when their sizes still fit
   (repacking shrinks the group count; the pool keeps the high-water
   set).  Taking a new snapshot from an arena therefore invalidates the
   previous snapshot taken from it — callers must finish every probe of
   a round before capturing the next (the speculative [Spec.map] join is
   exactly that barrier). *)
type snapshot_arena = {
  mutable ar_captured : Bytes.t;
  mutable ar_group_of : int array;
  mutable ar_slot_of : int array;
  mutable ar_det : int array;
  mutable ar_good : Logic.t array;
  mutable ar_pool : snap_group array;  (* reusable group buffers *)
  mutable ar_hits : int;  (* captures that reused at least one buffer *)
}

let arena () =
  { ar_captured = Bytes.empty;
    ar_group_of = [||];
    ar_slot_of = [||];
    ar_det = [||];
    ar_good = [||];
    ar_pool = [||];
    ar_hits = 0 }

let arena_hits a = a.ar_hits

let snapshot ?arena:ar ?fault_ids t =
  let ids =
    match fault_ids with
    | Some a -> a
    | None -> t.fault_ids
  in
  let fault_total = Array.length t.group_of in
  let nff = Array.length t.dffs in
  let reused = ref false in
  let captured =
    match ar with
    | Some a when Bytes.length a.ar_captured = fault_total ->
      reused := true;
      Bytes.fill a.ar_captured 0 fault_total '\000';
      a.ar_captured
    | _ -> Bytes.make fault_total '\000'
  in
  Array.iter
    (fun fid ->
      check_target t fid;
      Bytes.set captured fid '\001')
    ids;
  let copy_into get src =
    match ar with
    | Some a when Array.length (get a) = Array.length src ->
      reused := true;
      let dst = get a in
      Array.blit src 0 dst 0 (Array.length src);
      dst
    | _ -> Array.copy src
  in
  let good =
    match ar with
    | Some a when Array.length a.ar_good = nff ->
      reused := true;
      Goodsim.state_into t.good a.ar_good;
      a.ar_good
    | _ -> good_state t
  in
  let ngroups = Array.length t.groups in
  let groups =
    Array.mapi
      (fun gi g ->
        let buf =
          match ar with
          | Some a
            when gi < Array.length a.ar_pool
                 && Array.length a.ar_pool.(gi).sg_fzero = nff ->
            reused := true;
            a.ar_pool.(gi)
          | _ ->
            { sg_fzero = Array.make nff 0;
              sg_fone = Array.make nff 0;
              sg_dmark = Bytes.make nff '\000' }
        in
        Array.blit g.fzero 0 buf.sg_fzero 0 nff;
        Array.blit g.fone 0 buf.sg_fone 0 nff;
        Bytes.blit g.dmark 0 buf.sg_dmark 0 nff;
        buf)
      t.groups
  in
  (match ar with
   | Some a ->
     a.ar_captured <- captured;
     a.ar_good <- good;
     (* Keep the high-water buffer set so a shrinking group count still
        reuses every live buffer next round. *)
     if ngroups > 0 then
       if Array.length a.ar_pool < ngroups then begin
         let pool = Array.make ngroups groups.(0) in
         Array.blit groups 0 pool 0 ngroups;
         a.ar_pool <- pool
       end
       else Array.blit groups 0 a.ar_pool 0 ngroups;
     if !reused then a.ar_hits <- a.ar_hits + 1
   | None -> ());
  let snap =
    {
      snap_model = t.model;
      snap_good = good;
      snap_captured = captured;
      snap_group_of = copy_into (fun a -> a.ar_group_of) t.group_of;
      snap_slot_of = copy_into (fun a -> a.ar_slot_of) t.slot_of;
      snap_det = copy_into (fun a -> a.ar_det) t.det_time;
      snap_groups = groups;
      snap_nff = nff;
    }
  in
  (match ar with
   | Some a ->
     a.ar_group_of <- snap.snap_group_of;
     a.ar_slot_of <- snap.snap_slot_of;
     a.ar_det <- snap.snap_det
   | None -> ());
  snap

(* Mirror of [faulty_state], reading the captured words. *)
let snapshot_state snap fid =
  if
    fid < 0
    || fid >= Bytes.length snap.snap_captured
    || Bytes.get snap.snap_captured fid = '\000'
  then invalid_arg "Faultsim.of_snapshot: fault not captured";
  if snap.snap_det.(fid) >= 0 then snap.snap_good
  else begin
    let g = snap.snap_groups.(snap.snap_group_of.(fid)) in
    let bit = 1 lsl snap.snap_slot_of.(fid) in
    Array.init snap.snap_nff (fun k ->
        if Bytes.get g.sg_dmark k = '\000' then snap.snap_good.(k)
        else if g.sg_fone.(k) land bit <> 0 then Logic.One
        else if g.sg_fzero.(k) land bit <> 0 then Logic.Zero
        else Logic.X)
  end

let of_snapshot ?jobs ?budget snap ~fault_ids =
  create ?jobs ?budget ~good_state:snap.snap_good
    ~faulty_states:(snapshot_state snap) snap.snap_model ~fault_ids

(* --------------------------------------------------------- conveniences *)

let detection_times_view ?jobs ?budget model ~fault_ids view =
  let s = create ?jobs ?budget model ~fault_ids in
  advance_view s view;
  Array.map (fun fid -> s.det_time.(fid)) fault_ids

let detection_times ?jobs ?budget model ~fault_ids seq =
  detection_times_view ?jobs ?budget model ~fault_ids (View.of_seq seq)

let detects_single_view ?budget model ~fault ?start view =
  let s =
    match start with
    | None -> create ?budget model ~fault_ids:[| fault |]
    | Some (good_state, faulty) ->
      create ?budget ~good_state ~faulty_states:(fun _ -> faulty) model
        ~fault_ids:[| fault |]
  in
  advance_view s view;
  detection_time s fault

let detects_single ?budget model ~fault ?start seq =
  detects_single_view ?budget model ~fault ?start (View.of_seq seq)
