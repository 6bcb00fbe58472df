type scope = {
  width : int;  (* the widest [run] this scope serves *)
  mutable domains : int;  (* domains running shares, the caller included *)
  mu : Mutex.t;
  wake : Condition.t;  (* a new round was posted, or the scope closes *)
  idle : Condition.t;  (* the last worker finished the round *)
  mutable round : int;
  mutable task : int -> unit;  (* runs every share of one domain *)
  mutable pending : int;  (* workers still inside the current round *)
  mutable closing : bool;
  mutable busy : bool;  (* the caller is inside a round: nested runs must not post *)
  mutable workers : unit Domain.t list;
}

(* The scope open on this domain.  Only its owner reads or writes it, so
   [busy] needs no lock; worker domains never have one. *)
let current : scope option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* A worker waits for a round newer than the last it ran, runs its shares
   and reports back.  [task] never raises: shares capture their errors. *)
let rec work sc d seen =
  Mutex.lock sc.mu;
  while sc.round = seen && not sc.closing do
    Condition.wait sc.wake sc.mu
  done;
  if sc.round = seen then Mutex.unlock sc.mu
  else begin
    let round = sc.round and task = sc.task in
    Mutex.unlock sc.mu;
    task d;
    Mutex.lock sc.mu;
    sc.pending <- sc.pending - 1;
    if sc.pending = 0 then Condition.signal sc.idle;
    Mutex.unlock sc.mu;
    work sc d round
  end

let close sc =
  Mutex.lock sc.mu;
  sc.closing <- true;
  Condition.broadcast sc.wake;
  Mutex.unlock sc.mu;
  List.iter Domain.join sc.workers

let open_scope ~jobs =
  let sc =
    {
      width = jobs;
      domains = 1;
      mu = Mutex.create ();
      wake = Condition.create ();
      idle = Condition.create ();
      round = 0;
      task = ignore;
      pending = 0;
      closing = false;
      busy = false;
      workers = [];
    }
  in
  (* A new domain does not inherit backtrace recording; a share's error
     should carry its backtrace whichever domain ran it.  Past the
     runtime's domain limit, run with the workers already up: the shares
     only take turns on fewer domains. *)
  let record = Printexc.backtrace_status () in
  let start d () =
    Printexc.record_backtrace record;
    work sc d 0
  in
  (try
     for d = 1 to min jobs (Domain.recommended_domain_count ()) - 1 do
       sc.workers <- Domain.spawn (start d) :: sc.workers;
       sc.domains <- d + 1
     done
   with Failure _ -> ());
  sc

let with_scope ~jobs f =
  let sc = open_scope ~jobs in
  Fun.protect ~finally:(fun () -> close sc) (fun () -> f sc)

let scoped ~jobs f =
  match Domain.DLS.get current with
  | _ when jobs <= 1 -> f ()
  | Some sc when sc.width >= jobs && not sc.busy -> f ()
  | prev ->
    with_scope ~jobs (fun sc ->
        Domain.DLS.set current (Some sc);
        Fun.protect ~finally:(fun () -> Domain.DLS.set current prev) f)

(* Domain [d] runs shares [d], [d + domains], ...; the errors land in
   per-share slots, and the mutex hand-off at the end of the round makes
   them visible to the caller. *)
let run_in sc ~jobs f =
  let domains = min jobs sc.domains in
  let errors = Array.make jobs None in
  let task d =
    let s = ref d in
    while !s < jobs do
      (match f !s with
       | () -> ()
       | exception e -> errors.(!s) <- Some (e, Printexc.get_raw_backtrace ()));
      s := !s + domains
    done
  in
  sc.busy <- true;
  Mutex.lock sc.mu;
  sc.task <- (fun d -> if d < domains then task d);
  sc.pending <- sc.domains - 1;
  sc.round <- sc.round + 1;
  Condition.broadcast sc.wake;
  Mutex.unlock sc.mu;
  task 0;
  Mutex.lock sc.mu;
  while sc.pending > 0 do
    Condition.wait sc.idle sc.mu
  done;
  Mutex.unlock sc.mu;
  sc.busy <- false;
  Array.iter
    (function
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())
    errors

let run ~jobs f =
  if jobs <= 1 then f 0
  else
    match Domain.DLS.get current with
    | Some sc when sc.width >= jobs && not sc.busy -> run_in sc ~jobs f
    | _ -> with_scope ~jobs (fun sc -> run_in sc ~jobs f)
