type conn = { fd : Unix.file_descr }

let sockaddr_of_addr = function
  | Daemon.Unix_sock path -> Unix.ADDR_UNIX path
  | Daemon.Tcp (host, port) ->
    Unix.ADDR_INET (Unix.inet_addr_of_string host, port)

let connect addr =
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let domain =
    match addr with
    | Daemon.Unix_sock _ -> Unix.PF_UNIX
    | Daemon.Tcp _ -> Unix.PF_INET
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (sockaddr_of_addr addr)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd }

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()
let fd conn = conn.fd

let call conn payload =
  Protocol.write_frame conn.fd payload;
  match Protocol.read_frame conn.fd with
  | Some resp -> resp
  | None -> failwith "scanatpg batch: daemon closed the connection"

type outcome = {
  id : int;
  status : string;
  payload : string option;
}

let read_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> failwith ("scanatpg batch: " ^ msg)
  | text ->
    List.filter
      (fun line -> String.trim line <> "")
      (String.split_on_char '\n' text)

let object_fields ~what idx line =
  match Obs.Json.parse line with
  | exception Obs.Json.Parse_error { pos; message } ->
    failwith
      (Printf.sprintf "scanatpg batch: %s %d: parse error at %d: %s" what
         (idx + 1) pos message)
  | Obs.Json.Obj fields -> fields
  | _ ->
    failwith
      (Printf.sprintf "scanatpg batch: %s %d is not a JSON object" what
         (idx + 1))

(* Normalise one input line into (id, payload): keep an explicit integer
   id, otherwise stamp the 1-based line position. *)
let prepare idx line =
  let fields = object_fields ~what:"request" idx line in
  match List.assoc_opt "id" fields with
  | Some (Obs.Json.Int id) -> (id, Obs.Json.to_string (Obs.Json.Obj fields))
  | _ ->
    let id = idx + 1 in
    (id, Obs.Json.to_string (Obs.Json.Obj (("id", Obs.Json.Int id) :: fields)))

let status_of_payload payload =
  match Obs.Json.parse payload with
  | exception Obs.Json.Parse_error _ -> "error"
  | doc -> (
    match Option.bind (Obs.Json.member "status" doc) Obs.Json.get_str with
    | Some s -> s
    | None -> "error")

let id_of_payload payload =
  match Obs.Json.parse payload with
  | exception Obs.Json.Parse_error _ -> None
  | doc -> Option.bind (Obs.Json.member "id" doc) Obs.Json.get_int

(* Deterministic backoff jitter: a fixed integer hash of the attempt
   number, so a retry schedule is reproducible run to run (no
   wall-clock or PRNG input). *)
let jitter_ms attempt = attempt * 0x9E3779B1 land 0x3F

(* The reader domain collects while the caller is still writing, so a
   full socket buffer in either direction can never deadlock the
   pipeline.  It stops once every written frame is answered, or at the
   peer's hang-up.  Both sides absorb connection failure. *)
let pipeline conn ~write ~on_response =
  let sent = Atomic.make 0 in
  let written = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let rec go got =
          if Atomic.get written && got >= Atomic.get sent then got
          else
            match Protocol.read_frame conn.fd with
            | exception _ -> got
            | None -> got
            | Some payload ->
              on_response payload;
              go (got + 1)
        in
        go 0)
  in
  (try
     write (fun payload ->
         Protocol.write_frame conn.fd payload;
         Atomic.incr sent)
   with _ -> ());
  Atomic.set written true;
  (try Unix.shutdown conn.fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let received = Domain.join reader in
  (Atomic.get sent, received)

(* Responses are collected by id, so two requests sharing one would
   silently swap or lose a response. *)
let check_unique_ids requests =
  let seen = Hashtbl.create 64 in
  List.iteri
    (fun idx (id, _) ->
      match Hashtbl.find_opt seen id with
      | Some first ->
        failwith
          (Printf.sprintf "scanatpg batch: requests %d and %d share id %d"
             (first + 1) (idx + 1) id)
      | None -> Hashtbl.add seen id idx)
    requests

let run_batch ~addr ~input ?output ?(retries = 0) ?(backoff_ms = 100) () =
  let requests = List.mapi prepare (read_lines input) in
  check_unique_ids requests;
  let got = Hashtbl.create 64 in
  let missing () =
    List.filter (fun (id, _) -> not (Hashtbl.mem got id)) requests
  in
  (* Reconnect-and-replay of unanswered requests only: a request that
     already has a response — any typed status, errors included — is
     final and never resent.  Replay is safe because compute payloads
     are pure functions of their requests (DESIGN.md §10), so a
     duplicate execution returns byte-identical bytes. *)
  let attempt = ref 0 in
  let finished = ref false in
  while not !finished do
    let todo = missing () in
    if todo = [] || !attempt > retries then finished := true
    else begin
      if !attempt > 0 then begin
        let scale = 1 lsl min (!attempt - 1) 16 in
        Unix.sleepf
          (float_of_int ((backoff_ms * scale) + jitter_ms !attempt) /. 1000.0)
      end;
      (match connect addr with
      | exception e when !attempt = 0 ->
        (* Nothing was ever sent: connection refusal is the caller's
           problem, not a retryable transport fault. *)
        raise e
      | exception _ -> ()
      | conn ->
        Fun.protect
          ~finally:(fun () -> close conn)
          (fun () ->
            ignore
              (pipeline conn
                 ~write:(fun send -> List.iter (fun (_, p) -> send p) todo)
                 ~on_response:(fun payload ->
                   Option.iter
                     (fun id -> Hashtbl.replace got id payload)
                     (id_of_payload payload)))));
      incr attempt
    end
  done;
  let outcomes =
    List.map
      (fun (id, _) ->
        match Hashtbl.find_opt got id with
        | Some payload ->
          { id; status = status_of_payload payload; payload = Some payload }
        | None -> { id; status = "lost"; payload = None })
      requests
  in
  let rendered =
    String.concat ""
      (List.map
         (fun o ->
           match o.payload with
           | Some p -> p ^ "\n"
           | None ->
             Protocol.error_response ~id:o.id "lost"
               "no response before the daemon hung up"
             ^ "\n")
         outcomes)
  in
  (match output with
  | Some path -> Obs.Fileio.write_string path rendered
  | None -> print_string rendered);
  outcomes
