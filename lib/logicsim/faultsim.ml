module Logic = Netlist.Logic
module Plan = Netlist.Plan
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

(* Per-domain evaluation state, sized for any plan of at most [Array.length
   wz] nodes and [Array.length qlen] levels.  [gw0]/[gw1] hold the frame's
   good machine as broadcast words (all-ones or zero per rail).  During a
   group frame [wz]/[wo] hold the group's divergence from that broadcast;
   one epoch per (group, frame), so [qstamp] is never cleared.  Between
   advances a scratch is clean: [wz]/[wo]/[mz]/[mo] all zero, [qlen] all
   zero and every [qstamp] below [epoch]. *)
type scratch = {
  wz : int array;
  wo : int array;
  mz : int array;  (* per-node injection masks while a group runs *)
  mo : int array;
  gw0 : int array;
  gw1 : int array;
  qstamp : int array;  (* epoch at which a node was last enqueued *)
  mutable epoch : int;
  queue : int array;  (* pending gate ids; level [l] at [Plan.level_off.(l)] *)
  qlen : int array;  (* per level *)
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
  plan : Plan.t;
  jobs : int;
  good0 : int array;  (* per dff index: good state, broadcast words *)
  good1 : int array;
  budget : Obs.Budget.t;
  fault_ids : int array;  (* the targeted faults, in the caller's order *)
  mutable groups : group array;  (* repacking may rewrite the array *)
  group_of : int array;  (* fault id -> group index, -1 when untargeted *)
  slot_of : int array;  (* fault id -> slot in its group *)
  det_time : int array;  (* fault id -> frame, -1 undetected *)
  mutable detected : int;
  mutable time : int;
  stats : stats;
  observe : bool;  (* count good-machine toggle / WSA activity *)
  prev_good : int array;
  (* last frame's good value per node, 0 = X, 1 = zero, 2 = one ([||]
     unless observing) *)
  frame_toggles : Obs.Hist.t;  (* per-frame toggle counts (observe mode) *)
}

let make_scratch ~nodes ~levels =
  {
    wz = Array.make nodes 0;
    wo = Array.make nodes 0;
    mz = Array.make nodes 0;
    mo = Array.make nodes 0;
    gw0 = Array.make nodes 0;
    gw1 = Array.make nodes 0;
    qstamp = Array.make nodes 0;
    epoch = 0;
    queue = Array.make nodes 0;
    qlen = Array.make levels 0;
    touched = Array.make nodes 0;
    ntouched = 0;
    s_gframes = 0;
    s_events = 0;
    s_wakeups = 0;
    s_kills = 0;
    s_repacks = 0;
  }

(* Each domain keeps at most one scratch, lent to one advance at a time:
   [borrow] takes it out of the slot (growing it when the plan does not
   fit, so sessions of different models alternate on one high-water
   scratch) and [release] puts it back.  An advance that raises never
   releases, so a scratch left mid-frame is dropped rather than reused.
   The daemon and the speculative map run sessions on domains, never on
   threads sharing one, so the slot needs no lock. *)
let slot : scratch option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let borrow (p : Plan.t) =
  let held = Domain.DLS.get slot in
  Domain.DLS.set slot None;
  match held with
  | Some sc when Array.length sc.wz >= p.nodes && Array.length sc.qlen > p.depth
    -> sc
  | Some sc ->
    make_scratch ~nodes:(max p.nodes (Array.length sc.wz))
      ~levels:(max (p.depth + 1) (Array.length sc.qlen))
  | None -> make_scratch ~nodes:p.nodes ~levels:(p.depth + 1)

let release sc = Domain.DLS.set slot (Some sc)

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

(* Injection tables of one word of faults: per distinct site (ascending
   node id), the stuck-at-1/0 machine masks, plus the dff slots among the
   sites. *)
let build_injections model (p : Plan.t) ids =
  let node slot = model.Model.fault_node.(ids.(slot)) in
  let slots = Array.init (Array.length ids) Fun.id in
  Array.sort (fun a b -> Int.compare (node a) (node b)) slots;
  let sites = ref 0 in
  Array.iteri
    (fun i slot -> if i = 0 || node slot <> node slots.(i - 1) then incr sites)
    slots;
  let inj_nodes = Array.make !sites 0 in
  let inj1 = Array.make !sites 0 and inj0 = Array.make !sites 0 in
  let j = ref (-1) in
  Array.iteri
    (fun i slot ->
      if i = 0 || node slot <> node slots.(i - 1) then begin
        incr j;
        inj_nodes.(!j) <- node slot
      end;
      if model.Model.fault_stuck.(ids.(slot)) then
        inj1.(!j) <- inj1.(!j) lor (1 lsl slot)
      else inj0.(!j) <- inj0.(!j) lor (1 lsl slot))
    slots;
  let inj_dff =
    Array.of_list
      (List.filter_map
         (fun nd -> if p.dff_index.(nd) >= 0 then Some p.dff_index.(nd) else None)
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

(* A session over [fault_ids] starting from the good state words
   [good0]/[good1].  [load ids fzero fone] writes each slot's initial
   flip-flop state into a fresh group's words; every flip-flop starts
   dirty, so the first frame seeds from exactly those words. *)
let session ~jobs ~observe ~budget model ~good0 ~good1 ~fault_ids ~load =
  let p = model.Model.plan in
  let nff = Array.length p.dffs in
  let fault_total = Model.fault_count model in
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
        load ids fzero fone;
        let inj_nodes, inj1, inj0, inj_dff = build_injections model p ids in
        { ids; active = (if len = width then full else (1 lsl len) - 1);
          fzero; fone; inj_nodes; inj1; inj0;
          dirty = Array.init nff (fun k -> k);
          ndirty = nff;
          dmark = Bytes.make nff '\001';
          inj_dff })
  in
  {
    model;
    plan = p;
    jobs = max 1 jobs;
    good0;
    good1;
    budget;
    fault_ids = Array.copy fault_ids;
    groups;
    group_of;
    slot_of;
    det_time = Array.make fault_total (-1);
    detected = 0;
    time = 0;
    stats = make_stats ();
    observe;
    prev_good = (if observe then Array.make p.nodes 0 else [||]);
    frame_toggles = Obs.Hist.create ();
  }

let words_of_state nff st =
  if Array.length st <> nff then
    invalid_arg "Faultsim.create: state length mismatch";
  let z = Array.make nff 0 and o = Array.make nff 0 in
  Array.iteri
    (fun k v ->
      match v with
      | Logic.Zero -> z.(k) <- full
      | Logic.One -> o.(k) <- full
      | Logic.X -> ())
    st;
  z, o

(* Every slot of a fresh group at the good state words [g0]/[g1]. *)
let load_good g0 g1 ids fzero fone =
  let amask = (1 lsl Array.length ids) - 1 in
  for k = 0 to Array.length g0 - 1 do
    fzero.(k) <- g0.(k) land amask;
    fone.(k) <- g1.(k) land amask
  done

let create ?good_state ?faulty_states ?(jobs = 1)
    ?(observe = false) ?(budget = Obs.Budget.unlimited) model ~fault_ids =
  let nff = Array.length model.Model.plan.Plan.dffs in
  let good0, good1 =
    match good_state with
    | Some s -> words_of_state nff s
    | None -> Array.make nff 0, Array.make nff 0
  in
  let load =
    match faulty_states with
    | None -> load_good good0 good1
    | Some state_of ->
      fun ids fzero fone ->
        Array.iteri
          (fun slot fid ->
            let st = state_of fid in
            if Array.length st <> nff then
              invalid_arg "Faultsim.create: state length mismatch";
            let bit = 1 lsl slot in
            Array.iteri
              (fun k v ->
                match v with
                | Logic.Zero -> fzero.(k) <- fzero.(k) lor bit
                | Logic.One -> fone.(k) <- fone.(k) lor bit
                | Logic.X -> ())
              st)
          ids
  in
  session ~jobs ~observe ~budget model ~good0 ~good1 ~fault_ids ~load

let time t = t.time

(* Toggle / weighted-switching activity of the good machine, counted right
   after its frame.  Only the session domain calls this (the other shares
   merely replay the good trace), so plain mutation of [t.stats] is safe
   and the totals never depend on [jobs].  A toggle is a binary-to-opposite
   transition; X transitions carry no defined switching energy.  The WSA
   weight [1 + fanouts] is the usual gate-plus-fanout capacitance proxy,
   with fanouts counted as distinct sink nodes (gates and flip-flops). *)
let count_activity t sc =
  let p = t.plan in
  let prev = t.prev_good in
  let toggles = ref 0 and wsa = ref 0 in
  for nd = 0 to Array.length prev - 1 do
    let v =
      if sc.gw0.(nd) <> 0 then 1 else if sc.gw1.(nd) <> 0 then 2 else 0
    in
    if prev.(nd) lor v = 3 then begin
      incr toggles;
      wsa :=
        !wsa + 1
        + (p.fanout_off.(nd + 1) - p.fanout_off.(nd))
        + (p.dff_feed_off.(nd + 1) - p.dff_feed_off.(nd))
    end;
    prev.(nd) <- v
  done;
  t.stats.toggles <- t.stats.toggles + !toggles;
  t.stats.wsa <- t.stats.wsa + !wsa;
  Obs.Hist.observe t.frame_toggles !toggles

(* ------------------------------------------------------- good machine *)

(* One frame of the fault-free machine straight into the broadcast words:
   every node's two rails as all-ones/zero words, gates evaluated in
   level order over the plan, then the next state latched into
   [good0]/[good1] (the flip-flop nodes keep this frame's values in
   [gw0]/[gw1]). *)
let good_frame (p : Plan.t) sc good0 good1 vec =
  if Array.length vec <> Array.length p.inputs then
    invalid_arg "Faultsim: vector length mismatch";
  let gw0 = sc.gw0 and gw1 = sc.gw1 in
  let fin = p.fanin and off = p.fanin_off in
  Array.iteri
    (fun i id ->
      match vec.(i) with
      | Logic.Zero ->
        gw0.(id) <- full;
        gw1.(id) <- 0
      | Logic.One ->
        gw0.(id) <- 0;
        gw1.(id) <- full
      | Logic.X ->
        gw0.(id) <- 0;
        gw1.(id) <- 0)
    p.inputs;
  let dffs = p.dffs in
  for k = 0 to Array.length dffs - 1 do
    gw0.(dffs.(k)) <- good0.(k);
    gw1.(dffs.(k)) <- good1.(k)
  done;
  let order = p.order in
  for i = 0 to Array.length order - 1 do
    let nd = order.(i) in
    let op = p.op.(nd) in
    let lo = off.(nd) and hi = off.(nd + 1) in
    let a = fin.(lo) in
    let z = ref gw0.(a) and o = ref gw1.(a) in
    (match op lsr 1 with
     | 0 (* AND *) ->
       for j = lo + 1 to hi - 1 do
         let b = fin.(j) in
         z := !z lor gw0.(b);
         o := !o land gw1.(b)
       done
     | 1 (* OR *) ->
       for j = lo + 1 to hi - 1 do
         let b = fin.(j) in
         z := !z land gw0.(b);
         o := !o lor gw1.(b)
       done
     | 2 (* XOR *) ->
       for j = lo + 1 to hi - 1 do
         let b = fin.(j) in
         let z2 = gw0.(b) and o2 = gw1.(b) in
         let no = !o land z2 lor (!z land o2) in
         z := !z land z2 lor (!o land o2);
         o := no
       done
     | _ (* MUX *) ->
       let x = fin.(lo + 1) and y = fin.(lo + 2) in
       let zs = !z and os = !o in
       o := zs land gw1.(x) lor (os land gw1.(y)) lor (gw1.(x) land gw1.(y));
       z := zs land gw0.(x) lor (os land gw0.(y)) lor (gw0.(x) land gw0.(y)));
    if op land 1 = 0 then begin
      gw0.(nd) <- !z;
      gw1.(nd) <- !o
    end
    else begin
      gw0.(nd) <- !o;
      gw1.(nd) <- !z
    end
  done;
  let dff_fanin = p.dff_fanin in
  for k = 0 to Array.length dff_fanin - 1 do
    good0.(k) <- gw0.(dff_fanin.(k));
    good1.(k) <- gw1.(dff_fanin.(k))
  done

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

let[@inline] enqueue (p : Plan.t) sc m =
  if sc.qstamp.(m) <> sc.epoch then begin
    sc.qstamp.(m) <- sc.epoch;
    let lvl = p.level.(m) in
    sc.queue.(p.level_off.(lvl) + sc.qlen.(lvl)) <- m;
    sc.qlen.(lvl) <- sc.qlen.(lvl) + 1
  end

let schedule_fanouts (p : Plan.t) sc nd =
  let fos = p.fanout in
  for i = p.fanout_off.(nd) to p.fanout_off.(nd + 1) - 1 do
    enqueue p sc fos.(i)
  done

(* Record a node whose words [z]/[o] differ from the good broadcast, and
   propagate. *)
let[@inline] diverge p sc nd z o =
  let zd = z lxor sc.gw0.(nd) and od = o lxor sc.gw1.(nd) in
  if zd lor od <> 0 then begin
    sc.touched.(sc.ntouched) <- nd;
    sc.ntouched <- sc.ntouched + 1;
    sc.wz.(nd) <- zd;
    sc.wo.(nd) <- od;
    schedule_fanouts p sc nd
  end

(* Evaluate a scheduled gate from difference-word fanins; record and
   propagate only a genuine divergence from the good broadcast. *)
let eval_event (p : Plan.t) sc nd =
  let fin = p.fanin in
  let lo = p.fanin_off.(nd) and hi = p.fanin_off.(nd + 1) in
  let op = p.op.(nd) in
  let wz = sc.wz and wo = sc.wo and gw0 = sc.gw0 and gw1 = sc.gw1 in
  let a = fin.(lo) in
  let z = ref (wz.(a) lxor gw0.(a)) and o = ref (wo.(a) lxor gw1.(a)) in
  (match op lsr 1 with
   | 0 (* AND *) ->
     for i = lo + 1 to hi - 1 do
       let b = fin.(i) in
       z := !z lor (wz.(b) lxor gw0.(b));
       o := !o land (wo.(b) lxor gw1.(b))
     done
   | 1 (* OR *) ->
     for i = lo + 1 to hi - 1 do
       let b = fin.(i) in
       z := !z land (wz.(b) lxor gw0.(b));
       o := !o lor (wo.(b) lxor gw1.(b))
     done
   | 2 (* XOR *) ->
     for i = lo + 1 to hi - 1 do
       let b = fin.(i) in
       let z2 = wz.(b) lxor gw0.(b) and o2 = wo.(b) lxor gw1.(b) in
       let no = !o land z2 lor (!z land o2) in
       z := !z land z2 lor (!o land o2);
       o := no
     done
   | _ (* MUX *) ->
     let x = fin.(lo + 1) and y = fin.(lo + 2) in
     let za = wz.(x) lxor gw0.(x) and oa = wo.(x) lxor gw1.(x) in
     let zb = wz.(y) lxor gw0.(y) and ob = wo.(y) lxor gw1.(y) in
     let zs = !z and os = !o in
     o := zs land oa lor (os land ob) lor (oa land ob);
     z := zs land za lor (os land zb) lor (za land zb));
  if op land 1 = 1 then begin
    let tmp = !z in
    z := !o;
    o := tmp
  end;
  let m1 = sc.mo.(nd) and m0 = sc.mz.(nd) in
  if m1 lor m0 <> 0 then begin
    z := !z land lnot m1 lor m0;
    o := !o land lnot m0 lor m1
  end;
  diverge p sc nd !z !o

(* One frame of one group.  [sc.gw0]/[sc.gw1] must hold the frame's good
   broadcast.  Detections write [t.det_time] (slots are disjoint across
   groups, so concurrent workers never collide) and count into
   [detections]. *)
let sim_frame_event t sc g time detections =
  let p = t.plan in
  sc.epoch <- sc.epoch + 1;
  sc.ntouched <- 0;
  sc.s_gframes <- sc.s_gframes + 1;
  sc.s_wakeups <- sc.s_wakeups + g.ndirty;
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
    let id = p.dffs.(k) in
    let m1 = sc.mo.(id) and m0 = sc.mz.(id) in
    diverge p sc id (dz land lnot m1 lor m0) (dv land lnot m0 lor m1)
  in
  (* Only flip-flops on the dirty list can differ from the good machine;
     injection sites on clean flip-flops start from the implicit good
     words. *)
  for i = 0 to g.ndirty - 1 do
    let k = g.dirty.(i) in
    let id = p.dffs.(k) in
    seed_dff k
      (g.fzero.(k) land act lor (sc.gw0.(id) land lnot act))
      (g.fone.(k) land act lor (sc.gw1.(id) land lnot act))
  done;
  for i = 0 to Array.length g.inj_dff - 1 do
    let k = g.inj_dff.(i) in
    if Bytes.unsafe_get g.dmark k = '\000' then
      seed_dff k sc.gw0.(p.dffs.(k)) sc.gw1.(p.dffs.(k))
  done;
  (* Seed: injection sites (gates self-schedule; forced sources diverge
     directly). *)
  for i = 0 to ninj - 1 do
    let nd = g.inj_nodes.(i) in
    let op = p.op.(nd) in
    if op = Plan.op_input then begin
      let m1 = sc.mo.(nd) and m0 = sc.mz.(nd) in
      diverge p sc nd
        (sc.gw0.(nd) land lnot m1 lor m0)
        (sc.gw1.(nd) land lnot m0 lor m1)
    end
    else if op <> Plan.op_dff (* handled with the state seeds above *) then
      enqueue p sc nd
  done;
  (* Propagate, level-ordered; a gate only ever schedules strictly deeper
     gates. *)
  for lvl = 1 to p.depth do
    let base = p.level_off.(lvl) in
    let len = sc.qlen.(lvl) in
    sc.s_events <- sc.s_events + len;
    for j = base to base + len - 1 do
      eval_event p sc sc.queue.(j)
    done;
    sc.qlen.(lvl) <- 0
  done;
  (* Detection, branch-free: under [land] with the opposite good rail the
     difference word equals the absolute word, and untouched outputs are
     all-zero, so every output folds in without a test. *)
  let det = ref 0 in
  for i = 0 to Array.length p.outputs - 1 do
    let id = p.outputs.(i) in
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
    for j = p.dff_feed_off.(nd) to p.dff_feed_off.(nd + 1) - 1 do
      let k = p.dff_feed.(j) in
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
   per-fault outcome; it only reduces the number of group-frames the
   simulator executes once fault dropping has hollowed the words out.
   [sc] must still hold the broadcast of the frame just simulated: a
   flip-flop that is dirty for one source group but clean for another
   reads the clean faults' values off the good next-state, i.e. the
   broadcast at the flip-flop's fanin. *)
let repack t sc groups =
  let p = t.plan in
  let nff = Array.length p.dffs in
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
        let d = p.dff_fanin.(k) in
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
      let inj_nodes, inj1, inj0, inj_dff = build_injections t.model p ids in
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

(* Run [blocks] over the whole view with worker-owned state.  [good0]/
   [good1] are the worker's good state words (the session's own for the
   calling domain, a copy for the other shares), stepped in place.
   [step_all] keeps stepping the good machine after every group retired —
   required for the session machine, whose final state is observable.
   Blocks are mutated in place; the caller reads them back after the
   round.  Returns the worker's detection count and its staged
   telemetry counters. *)
let run_worker t sc good0 good1 view t0 ~blocks ~step_all =
  let nframes = View.length view in
  reset_sstats sc;
  Array.iter (fun b -> !block_hook b.bid) blocks;
  let detections = ref 0 in
  let live = ref (Array.fold_left (fun a b -> a + b.blive) 0 blocks) in
  (* A tripped budget freezes this worker's fault machines at the current
     frame (sound: no detection is ever invented, faults merely stay
     undetected).  Only the session domain probes the clock; other
     shares read the atomic tripped flag, keeping the budget's non-atomic
     probe state single-domain.  The session's good machine still steps
     through every frame so its final state stays consistent. *)
  let limited = Obs.Budget.limited t.budget in
  let stopped = ref false in
  let fi = ref 0 in
  while !fi < nframes && ((!live > 0 && not !stopped) || step_all) do
    good_frame t.plan sc good0 good1 (View.get view !fi);
    if step_all && t.observe then count_activity t sc;
    if limited && not !stopped
       && (if step_all then Obs.Budget.expired t.budget
           else Obs.Budget.tripped t.budget <> None)
    then stopped := true;
    if !live > 0 && not !stopped then begin
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

(* [run_worker] on a scratch borrowed from the calling domain, returned
   only when the run finishes cleanly. *)
let run_borrowed t good0 good1 view t0 ~blocks ~step_all =
  let sc = borrow t.plan in
  let r = run_worker t sc good0 good1 view t0 ~blocks ~step_all in
  release sc;
  r

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
  (* Blocks are independent given the good trace: deal them round-robin
     across the shares of one {!Workers.run}.  Share 0 steps the session's
     own good machine; every other share replays it from a copy of the
     pre-advance state words, taken here before any share starts, with its
     domain's own scratch.  Detection times and group states land in
     disjoint slots, so the merged outcome is identical to the sequential
     schedule regardless of interleaving. *)
  let jobs = max 1 (min t.jobs nblocks) in
  let goods =
    Array.init jobs (fun w ->
        if w = 0 then t.good0, t.good1
        else Array.copy t.good0, Array.copy t.good1)
  in
  let results = Array.make jobs (0, (0, 0, 0, 0, 0)) in
  Workers.run ~jobs (fun w ->
      let mine =
        List.filter (fun b -> b.bid mod jobs = w) (Array.to_list blocks)
      in
      let good0, good1 = goods.(w) in
      results.(w) <-
        run_borrowed t good0 good1 view t0 ~blocks:(Array.of_list mine)
          ~step_all:(w = 0));
  Array.iter
    (fun (d, ws) ->
      t.detected <- t.detected + d;
      flush_sstats t.stats ws)
    results;
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

let logic_of_words z o =
  if o <> 0 then Logic.One else if z <> 0 then Logic.Zero else Logic.X

let good_state t = Array.map2 logic_of_words t.good0 t.good1

(* A flip-flop off the dirty list implicitly holds the good machine's
   state. *)

let faulty_state t fid =
  check_target t fid;
  if t.det_time.(fid) >= 0 then good_state t
    (* detected machines stop being updated; their state is the good one *)
  else begin
    let g = t.groups.(t.group_of.(fid)) in
    let bit = 1 lsl t.slot_of.(fid) in
    Array.init (Array.length t.good0) (fun k ->
        if Bytes.get g.dmark k = '\000' then
          logic_of_words t.good0.(k) t.good1.(k)
        else if g.fone.(k) land bit <> 0 then Logic.One
        else if g.fzero.(k) land bit <> 0 then Logic.Zero
        else Logic.X)
  end

(* Machines holding a strict effect at flip-flop [k] of group [g]: the good
   value is binary and the faulty value the opposite binary. *)
let effect_word t g k =
  if Bytes.get g.dmark k = '\000' then 0
  else (g.fzero.(k) land t.good1.(k)) lor (g.fone.(k) land t.good0.(k))

let ff_effects t fid =
  check_target t fid;
  if t.det_time.(fid) >= 0 then []
  else begin
    let g = t.groups.(t.group_of.(fid)) in
    let bit = 1 lsl t.slot_of.(fid) in
    let acc = ref [] in
    for k = Array.length t.good0 - 1 downto 0 do
      if effect_word t g k land bit <> 0 then acc := k :: !acc
    done;
    !acc
  end

let effect_bits t =
  let total = ref 0 in
  Array.iter
    (fun g ->
      if g.active <> 0 then
        for k = 0 to Array.length t.good0 - 1 do
          total := !total + popcount (effect_word t g k land g.active)
        done)
    t.groups;
  !total

(* ------------------------------------------------------------ snapshots *)

(* A snapshot keeps the session's faulty states in their packed group
   representation — two state words plus a dirty byte per flip-flop per
   group of up to 62 faults — so capturing costs ~1/62 of materializing
   per-fault state arrays.  [of_snapshot] moves each targeted fault's bits
   straight from its captured word into its new slot. *)

type snap_group = {
  sg_fzero : int array;
  sg_fone : int array;
  sg_dirty : int array;  (* the group's dirty list at capture ... *)
  mutable sg_ndirty : int;  (* ... and its length *)
}

type snapshot = {
  snap_model : Model.t;
  snap_good0 : int array;
  snap_good1 : int array;
  snap_captured : Bytes.t;  (* fault id -> '\001' when captured *)
  snap_group_of : int array;
  snap_slot_of : int array;
  snap_det : int array;  (* det_time at capture *)
  snap_groups : snap_group array;
}

(* A snapshot arena recycles one capture's buffers into the next: the
   per-fault index/det arrays, the good-state words, and the per-group
   packed words are all overwritten in place when their sizes still fit
   (repacking lowers the group count; the pool keeps the high-water
   set).  Taking a new snapshot from an arena therefore invalidates the
   previous snapshot taken from it — callers must finish every probe of
   a round before capturing the next (the speculative [Spec.map] join is
   exactly that barrier). *)
type snapshot_arena = {
  mutable ar_captured : Bytes.t;
  mutable ar_group_of : int array;
  mutable ar_slot_of : int array;
  mutable ar_det : int array;
  mutable ar_good0 : int array;
  mutable ar_good1 : int array;
  mutable ar_pool : snap_group array;  (* reusable group buffers *)
  mutable ar_hits : int;  (* captures that reused at least one buffer *)
}

let arena () =
  { ar_captured = Bytes.empty;
    ar_group_of = [||];
    ar_slot_of = [||];
    ar_det = [||];
    ar_good0 = [||];
    ar_good1 = [||];
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
  let nff = Array.length t.good0 in
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
              sg_dirty = Array.make nff 0;
              sg_ndirty = 0 }
        in
        Array.blit g.fzero 0 buf.sg_fzero 0 nff;
        Array.blit g.fone 0 buf.sg_fone 0 nff;
        Array.blit g.dirty 0 buf.sg_dirty 0 g.ndirty;
        buf.sg_ndirty <- g.ndirty;
        buf)
      t.groups
  in
  let snap =
    {
      snap_model = t.model;
      snap_good0 = copy_into (fun a -> a.ar_good0) t.good0;
      snap_good1 = copy_into (fun a -> a.ar_good1) t.good1;
      snap_captured = captured;
      snap_group_of = copy_into (fun a -> a.ar_group_of) t.group_of;
      snap_slot_of = copy_into (fun a -> a.ar_slot_of) t.slot_of;
      snap_det = copy_into (fun a -> a.ar_det) t.det_time;
      snap_groups = groups;
    }
  in
  (match ar with
   | Some a ->
     a.ar_captured <- captured;
     a.ar_good0 <- snap.snap_good0;
     a.ar_good1 <- snap.snap_good1;
     a.ar_group_of <- snap.snap_group_of;
     a.ar_slot_of <- snap.snap_slot_of;
     a.ar_det <- snap.snap_det;
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
  snap

(* Each slot's initial words, read the way [faulty_state] reads a session:
   every slot starts from the good words, then each undetected fault's
   captured bits overwrite its slot at the flip-flops its source group
   had dirty (one over zero, as [faulty_state] decodes them). *)
let of_snapshot ?(jobs = 1) ?(budget = Obs.Budget.unlimited) snap ~fault_ids =
  let g0 = snap.snap_good0 and g1 = snap.snap_good1 in
  let load ids fzero fone =
    load_good g0 g1 ids fzero fone;
    Array.iteri
      (fun slot fid ->
        if
          fid < 0
          || fid >= Bytes.length snap.snap_captured
          || Bytes.get snap.snap_captured fid = '\000'
        then invalid_arg "Faultsim.of_snapshot: fault not captured";
        if snap.snap_det.(fid) < 0 then begin
          let sg = snap.snap_groups.(snap.snap_group_of.(fid)) in
          let s = snap.snap_slot_of.(fid) in
          let keep = lnot (1 lsl slot) in
          for j = 0 to sg.sg_ndirty - 1 do
            let k = sg.sg_dirty.(j) in
            let o = (sg.sg_fone.(k) lsr s) land 1 in
            let z = (sg.sg_fzero.(k) lsr s) land 1 land lnot o in
            fzero.(k) <- fzero.(k) land keep lor (z lsl slot);
            fone.(k) <- fone.(k) land keep lor (o lsl slot)
          done
        end)
      ids
  in
  session ~jobs ~observe:false ~budget snap.snap_model ~good0:(Array.copy g0)
    ~good1:(Array.copy g1) ~fault_ids ~load

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
