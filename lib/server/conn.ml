(* [dec], [frames], [eof], [last_ns] and [partial_ns] belong to the
   front end's select loop alone; [inflight] and [closed] are shared with
   the daemon's workers and guarded by [wmu], which also serialises
   response writes so frames never interleave. *)
type t = {
  fd : Unix.file_descr;
  cid : int;
  peer : string;
  dec : Protocol.decoder;
  wmu : Mutex.t;
  fp : Obs.Failpoint.t;
  count : string -> unit;
  mutable frames : int;
  mutable inflight : int;
  mutable eof : bool;
  mutable closed : bool;
  mutable last_ns : int;
  mutable partial_ns : int;
}

let peer_of_sockaddr = function
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p

let accept ~fp ~count ~cid listen_fd =
  match Unix.accept ~cloexec:true listen_fd with
  | exception Unix.Unix_error _ -> None
  | fd, sa ->
    (match sa with
    | Unix.ADDR_INET _ -> (
      try Unix.setsockopt fd Unix.SO_KEEPALIVE true
      with Unix.Unix_error _ -> ())
    | Unix.ADDR_UNIX _ -> ());
    (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.0
     with Unix.Unix_error _ -> ());
    Some
      {
        fd;
        cid;
        peer = peer_of_sockaddr sa;
        dec = Protocol.decoder ();
        wmu = Mutex.create ();
        fp;
        count;
        frames = 0;
        inflight = 0;
        eof = false;
        closed = false;
        last_ns = Obs.Clock.now_ns ();
        partial_ns = 0;
      }

let close_locked c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

let close c = Mutex.protect c.wmu (fun () -> close_locked c)
let alive c = Mutex.protect c.wmu (fun () -> not c.closed)
let inflight c = Mutex.protect c.wmu (fun () -> c.inflight)
let admit c = Mutex.protect c.wmu (fun () -> c.inflight <- c.inflight + 1)

let finish c =
  Mutex.protect c.wmu (fun () ->
      c.inflight <- c.inflight - 1;
      if c.eof && c.inflight = 0 then close_locked c)

(* A dead peer (EPIPE, reset, send timeout) or an injected [writer] fault
   poisons this connection but never the front end; the loss is counted
   so it is visible without relying on writer-side EPIPE handling. *)
let send c payload =
  Mutex.protect c.wmu (fun () ->
      if not c.closed then
        try
          Obs.Failpoint.hit c.fp "writer";
          Protocol.write_frame c.fd payload
        with _ ->
          c.count "conn_aborted";
          close_locked c)

let lose c =
  c.count "bad_request";
  c.count "conn_aborted"

let abort c =
  lose c;
  close c

let read c buf ~on_frame =
  if not (c.eof || c.closed) then
    match
      Protocol.pump c.dec c.fd buf ~on_frame:(fun payload ->
          c.frames <- c.frames + 1;
          on_frame payload)
    with
    | Protocol.Open ->
      c.last_ns <- Obs.Clock.now_ns ();
      if Protocol.pending c.dec = 0 then c.partial_ns <- 0
      else if c.partial_ns = 0 then c.partial_ns <- c.last_ns
    | Protocol.Eof ->
      c.eof <- true;
      (* the buffered prefix of a frame can never become a request *)
      if Protocol.pending c.dec > 0 then lose c;
      Mutex.protect c.wmu (fun () -> if c.inflight = 0 then close_locked c)
    | Protocol.Oversized { announced; max } ->
      (* best effort: the sender may already be gone *)
      lose c;
      send c
        (Protocol.error_response ~id:0 "error"
           (Printf.sprintf "frame of %d bytes exceeds maximum %d" announced
              max));
      close c
