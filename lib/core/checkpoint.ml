(* Versioned, checksummed, atomically-written pipeline checkpoints.

   File layout (bytes):

     scanatpg-checkpoint/1\n      magic + format version
     <16 hex digits>\n            FNV-1a 64 checksum of the payload
     <payload>                    [Marshal] of a {!file} record

   The payload is plain data (arrays, lists, records — no closures or
   custom blocks), so [Marshal] round-trips it exactly; the checksum
   rejects truncated or bit-rotted files, and the magic line rejects both
   foreign files and future format revisions.  Writes go through
   {!Obs.Fileio.write} (temp file + fsync + rename), so a crash at any
   point leaves either the previous checkpoint or the new one, never a
   torn file. *)

type phased = {
  p_flow : Flow.stats;
  p_counters : (string * int) list;
  p_rstats : int * int * int;  (* restored, probes, batch_sims *)
  p_compact :
    (Logicsim.Vectors.t * Logicsim.Vectors.t * Compaction.Omission.stats)
      option;
  p_ext_det : int option;
  p_baseline : (Scanins.Scan_test.t list * int * Baseline.Gen26.result) option;
}

type stage =
  | Generating of Flow.cursor
  | Phased of phased

type file = {
  fingerprint : string;
  stage : stage;
}

exception Corrupt of string

let magic = "scanatpg-checkpoint/1"

let fingerprint ~circuit ~scale ~seed ~chains =
  let scale_s =
    match (scale : Circuits.Profiles.scale) with
    | Circuits.Profiles.Quick -> "quick"
    | Circuits.Profiles.Full -> "full"
  in
  (* [sim_jobs] is deliberately excluded: results and the jobs-invariant
     counters are identical at any job count, so a checkpoint written at
     one parallelism may be resumed at another. *)
  Printf.sprintf "%s|%s|%Ld|%d" circuit scale_s seed chains

let stage_name = function
  | Generating _ -> "generating"
  | Phased p ->
    if p.p_baseline <> None then "baseline"
    else if p.p_ext_det <> None then "extra-detect"
    else if p.p_compact <> None then "compact"
    else "generate"

let save ~path ~fingerprint stage =
  let payload = Marshal.to_string { fingerprint; stage } [] in
  Obs.Fileio.write path (fun oc ->
      output_string oc magic;
      output_char oc '\n';
      Printf.fprintf oc "%016Lx\n" (Prng.Rng.fnv1a64 payload);
      output_string oc payload)

let load path =
  let ic =
    try open_in_bin path
    with Sys_error m -> raise (Corrupt (Printf.sprintf "cannot open: %s" m))
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let len = in_channel_length ic in
      let contents =
        try really_input_string ic len
        with End_of_file -> raise (Corrupt "truncated file")
      in
      let header_len = String.length magic + 1 + 16 + 1 in
      if len < header_len then raise (Corrupt "file too short");
      let magic_line = String.sub contents 0 (String.length magic) in
      if magic_line <> magic || contents.[String.length magic] <> '\n' then
        raise (Corrupt "bad magic (not a checkpoint, or a future version)");
      let sum_hex = String.sub contents (String.length magic + 1) 16 in
      if contents.[header_len - 1] <> '\n' then
        raise (Corrupt "malformed checksum line");
      let expected =
        match Int64.of_string_opt ("0x" ^ sum_hex) with
        | Some v -> v
        | None -> raise (Corrupt "malformed checksum line")
      in
      let payload = String.sub contents header_len (len - header_len) in
      if Prng.Rng.fnv1a64 payload <> expected then
        raise (Corrupt "checksum mismatch (truncated or corrupted)");
      match (Marshal.from_string payload 0 : file) with
      | f -> f
      | exception _ -> raise (Corrupt "unreadable payload"))
