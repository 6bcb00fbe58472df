(* Exact order statistics over raw samples.

   Every latency the benchmark reports is a nearest-rank percentile of
   the raw per-request samples.  The daemon's [stats] op, [Obs.Hist] and
   [Fleet.Loadgen] report power-of-two bucket upper bounds instead, up to
   2x the true quantile (615 ms lies in the bucket [536.9, 1073.7] ms and
   reads as 1073.7 ms), so none of them feed a metric here. *)

(* Nearest rank: the [ceil (q * n)]-th smallest sample (1-based), clamped
   to [1, n].  The epsilon keeps a product that is an integer up to
   rounding (0.9 * 10 = 9.000000000000002) from stepping one rank too
   far. *)
let rank ~q n =
  let r = int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9)) in
  max 1 (min n r)

let nearest_rank ~q samples =
  match samples with
  | [] -> invalid_arg "Stats.nearest_rank: no samples"
  | _ ->
    let a = Array.of_list samples in
    Array.sort compare a;
    a.(rank ~q (Array.length a) - 1)

let median samples = nearest_rank ~q:0.5 samples

(* The tail percentile with ten samples beyond it: q = 1 - 10/n, whose
   nearest rank is n - 10, so the value is the 11th largest sample.  It
   means something only from [min_tail_samples] samples on; below that
   the rank falls to or under the median. *)
let min_tail_samples = 40

let tail_q n = 1.0 -. (10.0 /. float_of_int n)

let tail samples = nearest_rank ~q:(tail_q (List.length samples)) samples

(* FNV-1a, 64-bit, over a list of strings with a separator byte after
   each, so ["ab"; "c"] and ["a"; "bc"] digest differently. *)
let fnv1a64 parts =
  let prime = 0x100000001B3L in
  let h = ref 0xCBF29CE484222325L in
  let byte c =
    h := Int64.logxor !h (Int64.of_int (Char.code c));
    h := Int64.mul !h prime
  in
  List.iter
    (fun s ->
      String.iter byte s;
      byte '\n')
    parts;
  Printf.sprintf "%016Lx" !h
