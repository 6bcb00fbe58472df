type t = { mutable state : int64 }

let gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = seed }

let next t =
  t.state <- Int64.add t.state gamma;
  mix t.state

let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001b3L)
    s;
  !h

(* FNV-1a over the label folded into the seed. *)
let of_string seed label = create (mix (Int64.add seed (fnv1a64 label)))

let split t = create (next t)

let state t = t.state

let of_state s = { state = s }

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Keep 62 bits so the value stays non-negative in OCaml's 63-bit int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod n

let bool t = Int64.logand (next t) 1L = 1L

let choose t arr =
  let n = Array.length arr in
  if n = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t n)
