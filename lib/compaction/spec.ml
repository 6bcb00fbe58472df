type counters = {
  mutable dispatched : int;
  mutable committed : int;
  mutable discarded : int;
  mutable revalidated : int;
}

let make () = { dispatched = 0; committed = 0; discarded = 0; revalidated = 0 }

let record c counters =
  Obs.Counters.add counters "compaction.speculative.dispatched" c.dispatched;
  Obs.Counters.add counters "compaction.speculative.committed" c.committed;
  Obs.Counters.add counters "compaction.speculative.discarded" c.discarded;
  Obs.Counters.add counters "compaction.speculative.revalidated" c.revalidated

type adaptive = { mutable arena_reuses : int }

let make_adaptive () = { arena_reuses = 0 }

let record_adaptive a counters =
  Obs.Counters.add counters "compaction.adaptive.arena_reuses" a.arena_reuses

let jobs_dependent name =
  String.starts_with ~prefix:"compaction.speculative." name
  || String.starts_with ~prefix:"compaction.adaptive." name

(* Round-robin deal, like the fault simulator's group scheduling: index k
   runs on domain (k mod jobs).  Writes land in disjoint array slots, so
   no synchronization is needed; the join is the only barrier. *)
let map ~jobs n f =
  let jobs = max 1 (min jobs n) in
  let results = Array.make n None in
  let run w =
    let k = ref w in
    while !k < n do
      results.(!k) <- Some (f !k);
      k := !k + jobs
    done
  in
  if jobs = 1 then run 0
  else begin
    let guarded w = match run w with () -> Ok () | exception e -> Error e in
    let workers =
      Array.init (jobs - 1) (fun i -> Domain.spawn (fun () -> guarded (i + 1)))
    in
    let mine = guarded 0 in
    let theirs = Array.map Domain.join workers in
    let first =
      Array.fold_left
        (fun acc r ->
          match acc with
          | Error _ -> acc
          | Ok () -> r)
        mine theirs
    in
    match first with
    | Ok () -> ()
    | Error e -> raise e
  end;
  Array.map
    (function
      | Some v -> v
      | None -> assert false)
    results
