module Json = Obs.Json

(* ------------------------------------------------------------ framing *)

let max_frame_default = 16 * 1024 * 1024

exception Frame_too_large of { announced : int; max : int }

type decoder = {
  max_frame : int;
  buf : Buffer.t;  (* reassembly buffer; consumed from the front *)
  mutable start : int;  (* offset of the next unread byte in [buf] *)
}

let decoder ?(max_frame = max_frame_default) () =
  { max_frame; buf = Buffer.create 4096; start = 0 }

let feed d bytes off len = Buffer.add_subbytes d.buf bytes off len

let available d = Buffer.length d.buf - d.start

let pending = available

(* Drop consumed bytes once they dominate the buffer, so a long-lived
   connection does not grow its buffer forever. *)
let compact_buf d =
  if d.start > 65536 && d.start > Buffer.length d.buf / 2 then begin
    let rest = Buffer.sub d.buf d.start (available d) in
    Buffer.clear d.buf;
    Buffer.add_string d.buf rest;
    d.start <- 0
  end

let peek_len d =
  let b i = Char.code (Buffer.nth d.buf (d.start + i)) in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let next d =
  if available d < 4 then None
  else begin
    let len = peek_len d in
    if len > d.max_frame then
      raise (Frame_too_large { announced = len; max = d.max_frame });
    if available d < 4 + len then None
    else begin
      let payload = Buffer.sub d.buf (d.start + 4) len in
      d.start <- d.start + 4 + len;
      compact_buf d;
      Some payload
    end
  end

let encode_frame payload =
  let len = String.length payload in
  let b = Bytes.create (4 + len) in
  Bytes.set b 0 (Char.chr ((len lsr 24) land 0xFF));
  Bytes.set b 1 (Char.chr ((len lsr 16) land 0xFF));
  Bytes.set b 2 (Char.chr ((len lsr 8) land 0xFF));
  Bytes.set b 3 (Char.chr (len land 0xFF));
  Bytes.blit_string payload 0 b 4 len;
  Bytes.unsafe_to_string b

(* Short writes and EINTR are ordinary events on a socket (a signal
   lands, the peer drains slowly); both loop until the frame is fully
   on the wire. *)
let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let written = ref 0 in
  while !written < n do
    match Unix.write fd b !written (n - !written) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | k -> written := !written + k
  done

let write_frame fd payload = write_all fd (encode_frame payload)

(* Reads exact byte counts (header, then payload) so no bytes past the
   frame are ever consumed — with an internal scratch buffer, a second
   frame arriving in the same segment would be silently dropped between
   calls.  EINTR restarts the read: an interrupted syscall is not a
   protocol event. *)
let read_frame ?(max_frame = max_frame_default) fd =
  let rec fill b off len =
    if len = 0 then true
    else
      match Unix.read fd b off len with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill b off len
      | 0 -> false
      | n -> fill b (off + n) (len - n)
  in
  let hdr = Bytes.create 4 in
  let rec read_hdr () =
    match Unix.read fd hdr 0 4 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_hdr ()
    | n -> n
  in
  match read_hdr () with
  | 0 -> None
  | n ->
    if not (fill hdr n (4 - n)) then failwith "connection closed mid-frame";
    let b i = Char.code (Bytes.get hdr i) in
    let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    if len > max_frame then
      raise (Frame_too_large { announced = len; max = max_frame });
    let body = Bytes.create len in
    if not (fill body 0 len) then failwith "connection closed mid-frame";
    Some (Bytes.unsafe_to_string body)

type pumped =
  | Open
  | Eof
  | Oversized of { announced : int; max : int }

let pump d fd buf ~on_frame =
  match Unix.read fd buf 0 (Bytes.length buf) with
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> Eof
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
    Open
  | 0 -> Eof
  | n ->
    feed d buf 0 n;
    let rec frames () =
      match next d with
      | exception Frame_too_large { announced; max } ->
        Oversized { announced; max }
      | Some payload ->
        on_frame payload;
        frames ()
      | None -> Open
    in
    frames ()

(* ----------------------------------------------------------- requests *)

exception Bad_request of string

type circuit_src =
  | Catalog of string
  | Bench of string

type compute = {
  src : circuit_src;
  scale : Circuits.Profiles.scale;
  seed : int64;
  chains : int;
  sim_jobs : int;
  compact_jobs : int;
  deadline_s : float option;
  max_backtracks : int option;
}

type op =
  | Ping
  | Stats of { prom : bool }
  | Shutdown
  | Chaos of { spec : string option }
  | Generate of {
      c : compute;
      compact : bool;
      return_sequence : bool;
    }
  | Compact of {
      c : compute;
      sequence : string list;
    }
  | Table of { c : compute }

type request = {
  id : int;
  op : op;
}

let op_name = function
  | Ping -> "ping"
  | Stats _ -> "stats"
  | Shutdown -> "shutdown"
  | Chaos _ -> "chaos"
  | Generate _ -> "generate"
  | Compact _ -> "compact"
  | Table _ -> "table"

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_request m)) fmt

let field_int j name default =
  match Json.member name j with
  | None -> default
  | Some v -> (
    match Json.get_int v with
    | Some i -> i
    | None -> bad "field %S must be an integer" name)

let field_bool j name default =
  match Json.member name j with
  | None -> default
  | Some v -> (
    match Json.get_bool v with
    | Some b -> b
    | None -> bad "field %S must be a boolean" name)

let field_float_opt j name =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.get_float v with
    | Some f when Float.is_finite f -> Some f
    | _ -> bad "field %S must be a finite number" name)

let field_int_opt j name =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v -> (
    match Json.get_int v with
    | Some i -> Some i
    | None -> bad "field %S must be an integer" name)

let compute_of_json j =
  let src =
    match Json.member "circuit" j, Json.member "bench" j with
    | Some v, None -> (
      match Json.get_str v with
      | Some name -> Catalog name
      | None -> bad "field \"circuit\" must be a string")
    | None, Some v -> (
      match Json.get_str v with
      | Some text -> Bench text
      | None -> bad "field \"bench\" must be a string")
    | Some _, Some _ -> bad "give either \"circuit\" or \"bench\", not both"
    | None, None -> bad "missing \"circuit\" name or inline \"bench\" text"
  in
  let scale =
    match Json.member "scale" j with
    | None -> Circuits.Profiles.Quick
    | Some (Json.Str "quick") -> Circuits.Profiles.Quick
    | Some (Json.Str "full") -> Circuits.Profiles.Full
    | Some _ -> bad "field \"scale\" must be \"quick\" or \"full\""
  in
  {
    src;
    scale;
    seed = Int64.of_int (field_int j "seed" 0xC0FFEE5EED);
    chains = field_int j "chains" 1;
    sim_jobs = max 1 (field_int j "sim_jobs" 1);
    compact_jobs = max 1 (field_int j "compact_jobs" 1);
    deadline_s = field_float_opt j "deadline_s";
    max_backtracks = field_int_opt j "max_backtracks";
  }

let request_of_string payload =
  let j =
    try Json.parse payload with
    | Json.Parse_error { pos; message } ->
      bad "invalid JSON at byte %d: %s" pos message
  in
  let id = field_int j "id" 0 in
  let op =
    match Json.member "op" j with
    | None -> bad "missing \"op\""
    | Some v -> (
      match Json.get_str v with
      | None -> bad "field \"op\" must be a string"
      | Some "ping" -> Ping
      | Some "stats" ->
        let prom =
          match Json.member "format" j with
          | None | Some (Json.Str "json") -> false
          | Some (Json.Str "prometheus") -> true
          | Some _ -> bad "field \"format\" must be \"json\" or \"prometheus\""
        in
        Stats { prom }
      | Some "shutdown" -> Shutdown
      | Some "chaos" ->
        let spec =
          match Json.member "spec" j with
          | None | Some Json.Null -> None
          | Some v -> (
            match Json.get_str v with
            | Some s -> Some s
            | None -> bad "field \"spec\" must be a string")
        in
        Chaos { spec }
      | Some "generate" ->
        Generate
          {
            c = compute_of_json j;
            compact = field_bool j "compact" true;
            return_sequence = field_bool j "sequence" true;
          }
      | Some "compact" ->
        let sequence =
          match Json.member "vectors" j with
          | None -> bad "compact needs a \"vectors\" array of 01x strings"
          | Some v -> (
            match Json.get_arr v with
            | None -> bad "field \"vectors\" must be an array"
            | Some xs ->
              List.map
                (fun x ->
                  match Json.get_str x with
                  | Some s -> s
                  | None -> bad "\"vectors\" entries must be strings")
                xs)
        in
        Compact { c = compute_of_json j; sequence }
      | Some "table" -> Table { c = compute_of_json j }
      | Some other -> bad "unknown op %S" other)
  in
  { id; op }

(* ----------------------------------------------- canonical rendering *)

(* Re-render a parsed request as the canonical wire form: [id] first,
   [op] second, every compute field explicit (parser defaults applied),
   object keys in a fixed order.  The rendering round-trips:
   [request_of_string (canonical_of_request r)] parses to [r] (with the
   given id), which is what lets the router forward the canonical form
   to a shard in place of the client's original bytes.

   [drop_jobs] omits [sim_jobs]/[compact_jobs] — the two knobs the PR 5
   purity contract proves payload-invisible — so two requests differing
   only in parallelism share one result-cache key. *)
let compute_fields ?(drop_jobs = false) (c : compute) =
  (match c.src with
   | Catalog name -> [ "circuit", Json.Str name ]
   | Bench text -> [ "bench", Json.Str text ])
  @ [
      ( "scale",
        Json.Str
          (match c.scale with
           | Circuits.Profiles.Quick -> "quick"
           | Circuits.Profiles.Full -> "full") );
      "seed", Json.Int (Int64.to_int c.seed);
      "chains", Json.Int c.chains;
    ]
  @ (if drop_jobs then []
     else
       [ "sim_jobs", Json.Int c.sim_jobs;
         "compact_jobs", Json.Int c.compact_jobs ])
  @ (match c.deadline_s with
     | None -> []
     | Some d -> [ "deadline_s", Json.Float d ])
  @ (match c.max_backtracks with
     | None -> []
     | Some n -> [ "max_backtracks", Json.Int n ])

let canonical_of_request ?(id = 0) ?drop_jobs (req : request) =
  let base = [ "id", Json.Int id; "op", Json.Str (op_name req.op) ] in
  let rest =
    match req.op with
    | Ping | Shutdown -> []
    | Stats { prom } ->
      [ "format", Json.Str (if prom then "prometheus" else "json") ]
    | Chaos { spec } -> (
      match spec with None -> [] | Some s -> [ "spec", Json.Str s ])
    | Generate { c; compact; return_sequence } ->
      compute_fields ?drop_jobs c
      @ [ "compact", Json.Bool compact; "sequence", Json.Bool return_sequence ]
    | Compact { c; sequence } ->
      compute_fields ?drop_jobs c
      @ [ "vectors", Json.Arr (List.map (fun v -> Json.Str v) sequence) ]
    | Table { c } -> compute_fields ?drop_jobs c
  in
  Json.to_string (Json.Obj (base @ rest))

(* ---------------------------------------------------------- responses *)

(* A malformed request must still be answered under the sender's id
   whenever the payload parses as a JSON object with an integer [id] —
   otherwise a pipelining client cannot correlate the failure and
   reports the request as lost. *)
let salvage_id payload =
  match Json.parse payload with
  | exception Json.Parse_error _ -> 0
  | j -> (
    match Option.bind (Json.member "id" j) Json.get_int with
    | Some id -> id
    | None -> 0)

let error_response ~id kind message =
  Json.to_string
    (Json.Obj
       [ "id", Json.Int id; "status", Json.Str kind;
         "error", Json.Str message ])

(* Admin replies, rendered here once for the daemon and the router. *)

let ok_head ~id op =
  [ "id", Json.Int id; "op", Json.Str op; "status", Json.Str "ok" ]

let ok_response ~id op = Json.to_string (Json.Obj (ok_head ~id op))

let stats_response ~id ~prom ~extra m =
  let body =
    if prom then
      [ "format", Json.Str "prometheus";
        "text", Json.Str (Obs.Metrics.to_prometheus m) ]
    else
      let hist h =
        Json.Obj
          [ "count", Json.Int (Obs.Hist.count h);
            "sum", Json.Int (Obs.Hist.sum h);
            "p50", Json.Int (Obs.Hist.percentile h 0.50);
            "p90", Json.Int (Obs.Hist.percentile h 0.90);
            "p95", Json.Int (Obs.Hist.percentile h 0.95);
            "p99", Json.Int (Obs.Hist.percentile h 0.99) ]
      in
      [ ( "counters",
          Json.Obj
            (List.map
               (fun (name, v) -> name, Json.Int v)
               (Obs.Counters.to_alist (Obs.Metrics.counters m))) );
        ( "phases",
          Json.Obj
            (List.map
               (fun (name, s) -> name, Json.Float s)
               (Obs.Metrics.phases m)) );
        ( "histograms",
          Json.Obj
            (List.map (fun (name, h) -> name, hist h) (Obs.Metrics.hists m)) ) ]
      @ extra
  in
  Json.to_string (Json.Obj (ok_head ~id "stats" @ body))

let chaos_response ~id fp =
  Json.to_string
    (Json.Obj
       (ok_head ~id "chaos"
       @ [ "active", Json.Str (Obs.Failpoint.describe fp);
           ( "fires",
             Json.Obj
               (List.map (fun (n, k) -> n, Json.Int k) (Obs.Failpoint.fires fp))
           ) ]))
