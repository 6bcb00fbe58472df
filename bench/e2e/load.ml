(* Load generators.  One bench process drives at most two connections from
   at most two threads; the server runs in its own process tree, so the
   client never shares a stop-the-world minor GC with it. *)

module Protocol = Server.Protocol
module Client = Server.Client

let now = Obs.Clock.now_ns

(* A wedged server fails the run after a minute instead of hanging it. *)
let connect socket =
  let c = Client.connect (Server.Daemon.Unix_sock socket) in
  Unix.setsockopt_float (Client.fd c) Unix.SO_RCVTIMEO 60.0;
  c

(* Poll until the server answers a ping on a fresh connection. *)
let await_ping ~timeout_s socket =
  let ready () =
    match connect socket with
    | exception Unix.Unix_error _ -> false
    | c ->
      Unix.setsockopt_float (Client.fd c) Unix.SO_RCVTIMEO 1.0;
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.call c {|{"id":0,"op":"ping"}|} with
          | _ -> true
          | exception _ -> false)
  in
  if not (Procs.wait_until ~timeout_s ready) then
    failwith (Printf.sprintf "server on %s never answered a ping" socket)

(* One request's record.  [due_ns] is when the request was meant to go
   out (the send time in a closed loop, the schedule in an open one), so
   [recv_ns - due_ns] charges a late send to the server that caused it. *)
type sample = {
  due_ns : int;
  sent_ns : int;
  recv_ns : int;  (* 0 when no response arrived *)
  payload : string;  (* "" when no response arrived *)
}

let missing = { due_ns = 0; sent_ns = 0; recv_ns = 0; payload = "" }

let latency_ms s = float_of_int (s.recv_ns - s.due_ns) /. 1e6

type run = {
  samples : sample array;  (* by request index *)
  wall_s : float;  (* first send to last response *)
}

(* Closed loop: [conns] connections share one ordered request list; each
   sends the next unsent request as soon as its previous one returned. *)
let closed_loop ~socket ~conns requests =
  let n = Array.length requests in
  let samples = Array.make n missing in
  let next = Atomic.make 0 in
  let client () =
    let c = connect socket in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            let t0 = now () in
            let payload = Client.call c requests.(i) in
            samples.(i) <- { due_ns = t0; sent_ns = t0; recv_ns = now (); payload };
            go ()
          end
        in
        try go () with _ -> ())
  in
  let t0 = now () in
  List.iter Thread.join (List.init conns (fun _ -> Thread.create client ()));
  { samples; wall_s = Obs.Clock.to_s (Obs.Clock.elapsed_ns t0) }

(* Open loop on one connection: request [i] (id [i + 1]) is due at
   [t0 + i / rate] whether or not earlier ones have returned.  A reader
   thread matches responses by id: they may come back out of order
   (result-cache hits overtake computing misses). *)
let open_loop ~socket ~rate requests =
  let n = Array.length requests in
  let samples = Array.make n missing in
  let c = connect socket in
  Fun.protect
    ~finally:(fun () -> Client.close c)
    (fun () ->
      let fd = Client.fd c in
      let t0 = now () + 1_000_000 in
      let due i = t0 + int_of_float (float_of_int i /. rate *. 1e9) in
      let sent = Array.make n 0 in
      let reader =
        Thread.create
          (fun () ->
            let rec go got =
              if got < n then
                match Protocol.read_frame fd with
                | None | (exception _) -> ()
                | Some payload ->
                  (match Fleet.Result_cache.split_id payload with
                  | Some (id, _) when id >= 1 && id <= n ->
                    let i = id - 1 in
                    samples.(i) <-
                      { due_ns = due i; sent_ns = sent.(i); recv_ns = now (); payload }
                  | _ -> ());
                  go (got + 1)
            in
            go 0)
          ()
      in
      (try
         Array.iteri
           (fun i req ->
             let wait = due i - now () in
             if wait > 0 then Unix.sleepf (float_of_int wait /. 1e9);
             sent.(i) <- now ();
             Protocol.write_frame fd req)
           requests
       with _ -> ());
      Thread.join reader;
      { samples; wall_s = Obs.Clock.to_s (Obs.Clock.elapsed_ns t0) })

(* How far behind schedule the open-loop generator ran, in ms. *)
let late_ms_max run =
  Array.fold_left
    (fun acc s ->
      if s.recv_ns = 0 then acc
      else Float.max acc (float_of_int (s.sent_ns - s.due_ns) /. 1e6))
    0.0 run.samples
