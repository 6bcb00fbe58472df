(* The nearest-rank rule and the ten-beyond tail rule. *)

let check name got want =
  if got <> want then begin
    Printf.eprintf "%s: got %g, want %g\n" name got want;
    exit 1
  end

let () =
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  (* ceil (q * n)-th smallest, 1-based *)
  check "p50 of 1..10" (Stats.nearest_rank ~q:0.5 ten) 5.0;
  check "p90 of 1..10" (Stats.nearest_rank ~q:0.9 ten) 9.0;
  check "p91 of 1..10" (Stats.nearest_rank ~q:0.91 ten) 10.0;
  check "p100 of 1..10" (Stats.nearest_rank ~q:1.0 ten) 10.0;
  check "p0 clamps to the minimum" (Stats.nearest_rank ~q:0.0 ten) 1.0;
  check "median of 1 sample" (Stats.median [ 7.0 ]) 7.0;
  check "median is order-free" (Stats.median [ 3.0; 1.0; 2.0 ]) 2.0;
  (* a skewed set: a bucketed histogram would round 615 up to 1024 *)
  check "median of a skewed set" (Stats.median [ 615.0; 600.0; 900.0; 610.0; 2000.0 ]) 615.0;
  (* tail: q = 1 - 10/n, the 11th largest, with exactly ten beyond it *)
  List.iter
    (fun n ->
      let xs = List.init n (fun i -> float_of_int (n - i)) in
      let t = Stats.tail xs in
      check (Printf.sprintf "tail of 1..%d" n) t (float_of_int (n - 10));
      check
        (Printf.sprintf "samples beyond the tail of 1..%d" n)
        (float_of_int (List.length (List.filter (fun x -> x > t) xs)))
        10.0;
      check (Printf.sprintf "q of n=%d" n) (Stats.tail_q n) (1.0 -. (10.0 /. float_of_int n)))
    [ 40; 41; 48; 100; 777; 1000 ];
  check "tail of n=40 is q=0.75" (Stats.tail_q 40) 0.75;
  if Stats.fnv1a64 [ "ab"; "c" ] = Stats.fnv1a64 [ "a"; "bc" ] then begin
    prerr_endline "digest ignores request boundaries";
    exit 1
  end;
  print_endline "stats: ok"
