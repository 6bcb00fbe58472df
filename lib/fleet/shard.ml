type launcher = int -> string -> string array

type proc = {
  pid : int;
  mutable reaped : bool;
}

let spawn argv_of ~idx ~socket =
  let argv = argv_of idx socket in
  if Array.length argv = 0 then invalid_arg "Shard.spawn: empty argv";
  (* A stale socket from a crashed predecessor is unlinked by the
     daemon's own listen path; nothing to clean here. *)
  let pid =
    Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
  in
  { pid; reaped = false }

(* [alive] doubles as the zombie reaper: a WNOHANG waitpid that observes
   the exit also collects it, so the router's per-tick sweep needs no
   separate wait pass. *)
let alive p =
  if p.reaped then false
  else
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ -> true
    | _ -> p.reaped <- true; false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
      p.reaped <- true;
      false

(* Forced stop is SIGKILL — that is the supervision contract under
   test. *)
let kill p = try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ()

(* Blocking collection at drain, so no shard outlives the router. *)
let reap p =
  if not p.reaped then begin
    (try ignore (Unix.waitpid [] p.pid) with Unix.Unix_error _ -> ());
    p.reaped <- true
  end

let pid p = p.pid
