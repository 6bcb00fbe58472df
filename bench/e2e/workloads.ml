(* The four workloads.  A workload's request set is fixed: it is drawn
   from one constant stream, so test length and detections repeat
   exactly on every run and can carry a zero bound.  [--seed] draws the
   order the requests go out in, which decides which requests run
   concurrently in a closed loop and when each arrives in the open loop.
   (With request seeds drawn from [--seed], those exact metrics moved by
   2-5% between seeds; see README.md.)  The number of timed requests
   scales with [--seconds] at a rate fixed by calibration on a quiet
   2-core host. *)

module Json = Obs.Json

type server =
  | Serve of int  (** [serve --server-jobs N --access-log] *)
  | Router of int  (** [router --shards N], default result cache *)

type shape =
  | Closed of int  (** closed loop on N connections *)
  | Open of float  (** open loop at this many arrivals per second *)

type t = {
  name : string;
  server : server;
  shape : shape;
  circuits : string list;  (** compiled during set-up, one 1-vector compact each *)
  pool : string list;  (** answered once during set-up, to warm the result cache *)
  requests : string array;  (** the timed phase; request [i] has id [i + 1] *)
  replay : string array;  (** the traced run's subset, same ids scheme *)
}

let names = [ "generate-mix"; "atpg-only"; "compact-large"; "fleet-repeat" ]

(* ------------------------------------------------------------ requests *)

let generate ~circuit ~seed ~compact ~sequence =
  [ "op", Json.Str "generate"; "circuit", Json.Str circuit; "seed", Json.Int seed;
    "compact", Json.Bool compact; "sequence", Json.Bool sequence;
    "compact_jobs", Json.Int 1 ]

let compact ~circuit ~seed ~compact_jobs vectors =
  [ "op", Json.Str "compact"; "circuit", Json.Str circuit; "seed", Json.Int seed;
    "compact_jobs", Json.Int compact_jobs;
    "vectors", Json.Arr (List.map (fun v -> Json.Str v) vectors) ]

let with_id id fields = Json.to_string (Json.Obj (("id", Json.Int id) :: fields))

(* Stamp ids [1..n] by position. *)
let number fields = Array.of_list (List.mapi (fun i f -> with_id (i + 1) f) fields)

(* Inputs of C_scan: the circuit's inputs plus scan_sel and scan_inp. *)
let scan_width circuit =
  let scan = Scanins.Scan.insert (Circuits.Catalog.circuit circuit) in
  Netlist.Circuit.input_count scan.Scanins.Scan.circuit

let random_vectors rng ~width ~length =
  List.init length (fun _ ->
      String.init width (fun _ -> if Prng.Rng.bool rng then '1' else '0'))

(* Compile warm-up: a 1-vector compact fills the compile cache. *)
let warm_up circuit =
  with_id 0
    (compact ~circuit ~seed:0 ~compact_jobs:1 [ String.make (scan_width circuit) '0' ])

let inputs name = Prng.Rng.of_string 0L ("inputs/" ^ name)
let draw_seed rng = Prng.Rng.int rng 1_000_000_000

let shuffle ~seed name xs =
  let rng = Prng.Rng.of_string (Int64.of_int seed) ("order/" ^ name) in
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Prng.Rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let scaled ~seconds ~per_s = max 1 (int_of_float (Float.round (seconds *. per_s)))

(* ----------------------------------------------------------- workloads *)

(* Rounds per second of [--seconds], each round one request per circuit,
   calibrated so a timed phase takes about [--seconds] on a quiet 2-core
   host and yields at least 40 latency samples at the default 20 s.  The
   open-loop reference rate is about a fifth of the knee [--sweep] finds
   on a quiet host (116 req/s), so it stays well under the knee when the
   host runs at half speed.  See README.md for the measurements. *)
let generate_mix_per_s = 0.30
let atpg_only_per_s = 0.80
let compact_large_per_s = 1.0
let fleet_rate = 25.0

(* [rounds] rounds over [circuits], a fresh request seed each; the first
   round is the traced run's subset.  Sorted by latency, the requests
   fall into one block per circuit.  The mixes are sized so the median
   lands inside a block (an odd number of circuits) and, for atpg-only,
   so does the tail (16 rounds of 3): an order statistic on the gap
   between two blocks jumped by 15% from one order to the next. *)
let closed ~name ~server ~conns ~smoke ~seed ~seconds ~per_s circuits mk =
  let rng = inputs name in
  let rounds = if smoke then 2 else scaled ~seconds ~per_s in
  let reqs =
    List.concat
      (List.init rounds (fun _ ->
           List.map (fun circuit -> mk rng circuit (draw_seed rng)) circuits))
  in
  { name; server; shape = Closed conns; circuits; pool = [];
    requests = number (shuffle ~seed name reqs);
    replay = number (List.filteri (fun i _ -> i < List.length circuits) reqs) }

let generate_mix ~smoke =
  closed ~name:"generate-mix" ~server:(Serve 2) ~conns:2 ~smoke ~per_s:generate_mix_per_s
    (if smoke then [ "s27"; "b02" ]
     else [ "s208"; "s298"; "s344"; "s386"; "s420"; "s641"; "s820" ])
    (fun _ circuit seed -> generate ~circuit ~seed ~compact:true ~sequence:false)

let atpg_only ~smoke =
  closed ~name:"atpg-only" ~server:(Serve 2) ~conns:2 ~smoke ~per_s:atpg_only_per_s
    (if smoke then [ "s27"; "b02" ] else [ "s400"; "b09"; "b10" ])
    (fun _ circuit seed -> generate ~circuit ~seed ~compact:false ~sequence:false)

let compact_large ~smoke =
  let circuits = if smoke then [ "s27"; "b02" ] else [ "s5378"; "s35932" ] in
  let widths = List.map (fun c -> c, scan_width c) circuits in
  closed ~name:"compact-large" ~server:(Serve 1) ~conns:1 ~smoke ~per_s:compact_large_per_s
    circuits (fun rng circuit seed ->
      compact ~circuit ~seed ~compact_jobs:2
        (random_vectors rng ~width:(List.assoc circuit widths)
           ~length:(if smoke then 8 else 22)))

(* A warm pool of 16 requests, repeated by four in five arrivals; every
   fifth arrival is a miss with a seed used once ([salt] keeps the steps
   of a sweep apart), its circuit in rotation.  [--seed] shuffles which
   repeat and which miss fill the slots.  Evenly spaced misses do not
   pile up on a shard, so the tail is the misses' compute time: with
   misses placed at random, the tail's spread over 10 runs was 30%. *)
let fleet_mix ~smoke ~seed ~rate ~seconds ~salt =
  let circuits = if smoke then [ "s27"; "b02" ] else [ "s27"; "b02"; "b06"; "s208" ] in
  let rng = inputs "fleet-repeat" in
  let pool =
    Array.of_list
      (List.concat_map
         (fun circuit ->
           List.init (if smoke then 2 else 4) (fun _ ->
               generate ~circuit ~seed:(draw_seed rng) ~compact:true ~sequence:true))
         circuits)
  in
  let n = max 1 (int_of_float (rate *. seconds)) in
  let misses = n / 5 in
  let repeats = Array.of_list (shuffle ~seed "fleet-repeat/repeats"
    (List.init (n - misses) (fun i -> pool.(i mod Array.length pool)))) in
  (* miss [k] is circuit [k mod nc] with seed [base + k]; slot [s] takes
     a miss of circuit [s mod nc] *)
  let nc = List.length circuits in
  let by_circuit =
    Array.init nc (fun c ->
        Array.of_list
          (shuffle ~seed (Printf.sprintf "fleet-repeat/misses%d" c)
             (List.filter (fun k -> k mod nc = c) (List.init misses Fun.id))))
  in
  let arrivals =
    List.init n (fun i ->
        let slot = i / 5 in
        if i mod 5 = 4 && slot < misses then
          let k = by_circuit.(slot mod nc).(slot / nc) in
          generate ~circuit:(List.nth circuits (k mod nc))
            ~seed:(1_000_000_000 + (salt * 100_000) + k) ~compact:true ~sequence:true
        else repeats.(i - min misses ((i + 1) / 5)))
  in
  { name = "fleet-repeat"; server = Router 2; shape = Open rate; circuits;
    pool = Array.to_list (Array.map (with_id 0) pool); requests = number arrivals;
    replay = number (Array.to_list pool) }

let fleet_repeat ~smoke ~seed ~seconds =
  if smoke then fleet_mix ~smoke ~seed ~rate:50.0 ~seconds:0.4 ~salt:0
  else fleet_mix ~smoke ~seed ~rate:fleet_rate ~seconds ~salt:0

let make ~smoke ~seed ~seconds = function
  | "generate-mix" -> generate_mix ~smoke ~seed ~seconds
  | "atpg-only" -> atpg_only ~smoke ~seed ~seconds
  | "compact-large" -> compact_large ~smoke ~seed ~seconds
  | "fleet-repeat" -> fleet_repeat ~smoke ~seed ~seconds
  | other -> invalid_arg (Printf.sprintf "unknown workload %S" other)

let argv server ~exe ~socket ~access_log =
  match server with
  | Serve jobs ->
    [| exe; "serve"; "--socket"; socket; "--quiet"; "--server-jobs"; string_of_int jobs;
       "--access-log"; access_log |]
  | Router shards ->
    [| exe; "router"; "--socket"; socket; "--quiet"; "--shards"; string_of_int shards |]
