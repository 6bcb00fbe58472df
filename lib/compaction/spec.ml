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

(* Round-robin deal, like the fault simulator's block scheduling: index k
   runs in share (k mod jobs).  Writes land in disjoint array slots, so
   no synchronization is needed beyond the end of the round. *)
let map ~jobs n f =
  let jobs = max 1 (min jobs n) in
  let results = Array.make n None in
  Logicsim.Workers.run ~jobs (fun w ->
      let k = ref w in
      while !k < n do
        results.(!k) <- Some (f !k);
        k := !k + jobs
      done);
  Array.map
    (function
      | Some v -> v
      | None -> assert false)
    results
