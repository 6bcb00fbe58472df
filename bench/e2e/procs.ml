(* The server tree under test: one child process ([serve] or [router])
   plus whatever it spawns, its /proc accounting, and a teardown that
   leaves no daemon behind to skew the next run. *)

(* [scanatpg.exe] sits at a fixed place relative to this executable in
   dune's build tree ([_build/default/bench/e2e/e2e.exe]). *)
let server_exe () =
  let dir = Filename.dirname Sys.executable_name in
  let exe = List.fold_left Filename.concat dir [ ".."; ".."; "bin"; "scanatpg.exe" ] in
  if not (Sys.file_exists exe) then
    failwith
      (Printf.sprintf
         "server binary %s is missing; build it with `dune build --profile \
          release bin/scanatpg.exe`"
         exe);
  exe

(* Each run gets its own directory for sockets and logs.  The path stays
   relative to the working directory: a Unix socket path is limited to
   108 bytes, and the checkout a run starts in may be deep. *)
let run_root = ".bench_run"

let run_dir =
  lazy
    (let mk d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> () in
     mk run_root;
     let d = Filename.concat run_root (string_of_int (Unix.getpid ())) in
     mk d;
     d)

let in_run_dir name = Filename.concat (Lazy.force run_dir) name

let remove_run_dir () =
  if Lazy.is_val run_dir then begin
    let d = Lazy.force run_dir in
    (try
       Array.iter
         (fun f -> try Sys.remove (Filename.concat d f) with Sys_error _ -> ())
         (Sys.readdir d);
       Unix.rmdir d
     with Sys_error _ | Unix.Unix_error _ -> ());
    (* other runs may still own siblings *)
    try Unix.rmdir run_root with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------ /proc *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

(* Fields of /proc/<pid>/stat after the parenthesised command name:
   [0] state, [1] ppid, [11] utime, [12] stime (clock ticks). *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
    match String.rindex_opt s ')' with
    | None -> None
    | Some i ->
      let rest = String.trim (String.sub s (i + 1) (String.length s - i - 1)) in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      if Array.length f > 12 then Some f else None)

(* [root] and every live descendant, found by walking ppid links. *)
let tree_pids root =
  let children = Hashtbl.create 64 in
  Array.iter
    (fun name ->
      match int_of_string_opt name with
      | None -> ()
      | Some p -> (
        match stat_fields p with
        | Some f -> Hashtbl.add children (int_of_string f.(1)) p
        | None -> ()))
    (try Sys.readdir "/proc" with Sys_error _ -> [||]);
  let rec walk acc p = List.fold_left walk (p :: acc) (Hashtbl.find_all children p) in
  walk [] root

(* USER_HZ is 100 on every Linux ABI OCaml targets. *)
let ticks_per_s = 100.0

let cpu_s pids =
  List.fold_left
    (fun acc p ->
      match stat_fields p with
      | Some f ->
        acc +. (float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. ticks_per_s)
      | None -> acc)
    0.0 pids

(* Peak resident set (VmHWM) summed over [pids], in MiB. *)
let peak_rss_mb pids =
  List.fold_left
    (fun acc p ->
      match read_file (Printf.sprintf "/proc/%d/status" p) with
      | None -> acc
      | Some s ->
        List.fold_left
          (fun acc line ->
            match String.split_on_char ':' line with
            | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> acc +. (float_of_string kb /. 1024.0)
              | [] -> acc)
            | _ -> acc)
          acc
          (String.split_on_char '\n' s))
    0.0 pids

let running pid =
  match stat_fields pid with
  | Some f -> f.(0) <> "Z"
  | None -> false

(* ------------------------------------------------------------ trees *)

type tree = {
  pid : int;
  socket : string;
}

let live : tree list ref = ref []

let spawn argv ~socket =
  (* server output goes to stderr: stdout carries the result line *)
  let pid = Unix.create_process argv.(0) argv Unix.stdin Unix.stderr Unix.stderr in
  let t = { pid; socket } in
  live := t :: !live;
  t

let reaped pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let wait_until ~timeout_s cond =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if cond () then true
    else if Unix.gettimeofday () >= deadline then false
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

let kill_all pids =
  List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) pids

let forget t =
  live := List.filter (fun t' -> t' != t) !live;
  (try Sys.remove t.socket with Sys_error _ -> ())

(* A clean stop: the [shutdown] op drains the daemon (a router fans it
   out to its shards and collects them).  Whatever is still running
   after the grace period is killed.  Returns once every process of the
   tree has ended. *)
let stop t =
  if List.memq t !live then begin
    let pids = tree_pids t.pid in
    (try
       let c = Server.Client.connect (Server.Daemon.Unix_sock t.socket) in
       Unix.setsockopt_float (Server.Client.fd c) Unix.SO_RCVTIMEO 5.0;
       Fun.protect
         ~finally:(fun () -> Server.Client.close c)
         (fun () -> ignore (Server.Client.call c {|{"id":0,"op":"shutdown"}|}))
     with _ -> ());
    if not (wait_until ~timeout_s:10.0 (fun () -> reaped t.pid)) then begin
      kill_all pids;
      ignore (wait_until ~timeout_s:5.0 (fun () -> reaped t.pid))
    end;
    let others = List.filter (fun p -> p <> t.pid) pids in
    if not (wait_until ~timeout_s:5.0 (fun () -> not (List.exists running others)))
    then begin
      kill_all others;
      ignore (wait_until ~timeout_s:5.0 (fun () -> not (List.exists running others)))
    end;
    forget t
  end

(* The abort path (exception, SIGINT, SIGTERM): no drain, just kill and
   reap every tree and remove the run directory. *)
let abort_all () =
  List.iter
    (fun t ->
      let pids = tree_pids t.pid in
      kill_all pids;
      ignore (wait_until ~timeout_s:5.0 (fun () -> reaped t.pid));
      ignore
        (wait_until ~timeout_s:5.0 (fun () ->
             not (List.exists running (List.filter (fun p -> p <> t.pid) pids))));
      forget t)
    !live;
  remove_run_dir ()

let install_cleanup () =
  at_exit abort_all;
  let on_signal code = Sys.Signal_handle (fun _ -> exit code) in
  Sys.set_signal Sys.sigint (on_signal 130);
  Sys.set_signal Sys.sigterm (on_signal 143);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore
