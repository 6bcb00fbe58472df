type compiled = {
  circuit : Netlist.Circuit.t;
  scan : Scanins.Scan.t;
  model : Faultmodel.Model.t;
  sk : Atpg.Scan_knowledge.t;
}

type entry = {
  key : string;
  hash : int64;
  compiled : compiled;
}

type t = {
  capacity : int;
  mu : Mutex.t;
  mutable entries : entry list;  (* most recently used first *)
}

let create ~capacity = { capacity = max 1 capacity; mu = Mutex.create (); entries = [] }

let capacity t = t.capacity

let length t =
  Mutex.lock t.mu;
  let n = List.length t.entries in
  Mutex.unlock t.mu;
  n

let key_of src ~scale ~chains =
  let scale_tag =
    match scale with
    | Circuits.Profiles.Quick -> "quick"
    | Circuits.Profiles.Full -> "full"
  in
  match src with
  | Protocol.Catalog name ->
    Printf.sprintf "catalog/%s/%s/chains=%d" name scale_tag chains
  | Protocol.Bench text ->
    (* Content addressing: the key embeds the netlist text itself, so the
       hash covers every byte; the scale tag is irrelevant for explicit
       netlists. *)
    Printf.sprintf "bench/chains=%d\x00%s" chains text

let find_or_compile t ~key ~compile =
  Mutex.lock t.mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mu)
    (fun () ->
      match List.find_opt (fun e -> e.key = key) t.entries with
      | Some e ->
        (* bump to front *)
        t.entries <- e :: List.filter (fun e' -> e' != e) t.entries;
        e, `Hit
      | None ->
        let compiled = compile () in
        let e = { key; hash = Prng.Rng.fnv1a64 key; compiled } in
        let kept =
          if List.length t.entries >= t.capacity then
            List.filteri (fun i _ -> i < t.capacity - 1) t.entries
          else t.entries
        in
        t.entries <- e :: kept;
        e, `Miss)
