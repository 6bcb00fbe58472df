(* Named, deterministically-seeded fault-injection sites.

   A failpoint registry follows the Trace.null discipline: the [null]
   registry is permanently disabled and [hit] on it is one immutable
   branch; a live registry with no sites configured costs one atomic
   load.  Only a site that is actually configured pays for a draw.

   Draws are deterministic: the [n]-th draw at site [name] hashes
   (seed, name, n) with FNV-1a 64 and fires when the hash lands under
   the site's probability.  Two registries with the same seed and spec
   fire at exactly the same draw indices, which is what makes a chaos
   soak replayable (CHAOS_SEED in CI). *)

type action =
  | Error  (* raise [Injected] at the site *)
  | Crash  (* raise [Crashed]: models a worker/domain death *)
  | Delay of int  (* sleep this many milliseconds, then continue *)

type site = {
  action : action;
  prob_ppm : int;  (* fire probability, parts per million *)
  max_fires : int;  (* [max_int] = unlimited *)
  draws : int Atomic.t;
  fired : int Atomic.t;
}

type t = {
  live : bool;
  seed : int64 Atomic.t;
  sites : (string * site) list Atomic.t;
}

exception Injected of string
exception Crashed of string

let null = { live = false; seed = Atomic.make 0L; sites = Atomic.make [] }

let create ?(seed = 0L) () =
  { live = true; seed = Atomic.make seed; sites = Atomic.make [] }

let enabled t = t.live

let active t = t.live && Atomic.get t.sites <> []

(* ----------------------------------------------------------------- spec *)

let invalid fmt = Printf.ksprintf invalid_arg fmt

(* One entry: <site>=<base>[@prob][#count] with base one of error, crash,
   delay:<ms>; or seed=<int>; or the single word "off" clearing all. *)
let parse_action site s =
  let s, max_fires =
    match String.index_opt s '#' with
    | None -> s, max_int
    | Some i -> (
      let n = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt n with
      | Some k when k >= 0 -> String.sub s 0 i, k
      | _ -> invalid "failpoint %s: bad fire count %S" site n)
  in
  let s, prob =
    match String.index_opt s '@' with
    | None -> s, 1.0
    | Some i -> (
      let p = String.sub s (i + 1) (String.length s - i - 1) in
      match float_of_string_opt p with
      | Some f when f >= 0.0 && f <= 1.0 -> String.sub s 0 i, f
      | _ -> invalid "failpoint %s: probability %S not in [0,1]" site p)
  in
  let action =
    match s with
    | "error" -> Error
    | "crash" -> Crash
    | _ when String.length s > 6 && String.sub s 0 6 = "delay:" -> (
      let ms = String.sub s 6 (String.length s - 6) in
      match int_of_string_opt ms with
      | Some k when k >= 0 -> Delay k
      | _ -> invalid "failpoint %s: bad delay %S (milliseconds)" site ms)
    | _ ->
      invalid "failpoint %s: unknown action %S (error, crash, delay:<ms>)" site
        s
  in
  {
    action;
    prob_ppm = int_of_float (prob *. 1_000_000.0);
    max_fires;
    draws = Atomic.make 0;
    fired = Atomic.make 0;
  }

let configure t spec =
  if not t.live then
    invalid_arg "failpoints are disabled in this process (null registry)";
  let spec = String.trim spec in
  if spec = "off" || spec = "" then Atomic.set t.sites []
  else begin
    let entries =
      List.filter_map
        (fun e ->
          let e = String.trim e in
          if e = "" then None else Some e)
        (String.split_on_char ';' spec)
    in
    let sites =
      List.fold_left
        (fun acc entry ->
          match String.index_opt entry '=' with
          | None -> invalid "failpoint entry %S: expected <site>=<action>" entry
          | Some i ->
            let name = String.trim (String.sub entry 0 i) in
            let rhs =
              String.trim (String.sub entry (i + 1) (String.length entry - i - 1))
            in
            if name = "seed" then begin
              match Int64.of_string_opt rhs with
              | Some s ->
                Atomic.set t.seed s;
                acc
              | None -> invalid "failpoint seed: bad integer %S" rhs
            end
            else if name = "" then
              invalid "failpoint entry %S: empty site name" entry
            else
              (* later entries override earlier ones for the same site *)
              (name, parse_action name rhs)
              :: List.filter (fun (n, _) -> n <> name) acc)
        [] entries
    in
    Atomic.set t.sites (List.rev sites)
  end

let describe t =
  match Atomic.get t.sites with
  | [] -> "off"
  | sites ->
    String.concat ";"
      (List.map
         (fun (name, s) ->
           let base =
             match s.action with
             | Error -> "error"
             | Crash -> "crash"
             | Delay ms -> Printf.sprintf "delay:%d" ms
           in
           let prob =
             if s.prob_ppm >= 1_000_000 then ""
             else Printf.sprintf "@%g" (float_of_int s.prob_ppm /. 1_000_000.0)
           in
           let cap =
             if s.max_fires = max_int then ""
             else Printf.sprintf "#%d" s.max_fires
           in
           name ^ "=" ^ base ^ prob ^ cap)
         sites)

let fires t =
  List.map
    (fun (name, s) -> name, min (Atomic.get s.fired) s.max_fires)
    (Atomic.get t.sites)

(* ------------------------------------------------------------------ hit *)

(* Claim one of the site's remaining fires, or refuse once the cap is
   reached.  CAS loop so concurrent worker domains never over-fire. *)
let rec claim s =
  let k = Atomic.get s.fired in
  if k >= s.max_fires then false
  else if Atomic.compare_and_set s.fired k (k + 1) then true
  else claim s

let fire_draw t name s =
  let n = Atomic.fetch_and_add s.draws 1 in
  let h =
    Prng.Rng.fnv1a64 (Printf.sprintf "%Ld/%s/%d" (Atomic.get t.seed) name n)
  in
  let bucket = Int64.rem (Int64.logand h Int64.max_int) 1_000_000L in
  if bucket < Int64.of_int s.prob_ppm && claim s then
    match s.action with
    | Error -> raise (Injected name)
    | Crash -> raise (Crashed name)
    | Delay ms -> Unix.sleepf (float_of_int ms /. 1000.0)

let hit t name =
  if t.live then
    match Atomic.get t.sites with
    | [] -> ()
    | sites -> (
      match List.assoc_opt name sites with
      | None -> ()
      | Some s -> fire_draw t name s)
