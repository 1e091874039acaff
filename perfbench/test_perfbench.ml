open Perfbench

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile_refuses_thin_tails () =
  (* p99 of 1000 samples has exactly 10 beyond it; of 999, only 9 *)
  Alcotest.(check (option (float 0.0))) "p99 of 1000" (Some 990.0) (Pctl.at (samples 1000) 990);
  Alcotest.(check (option (float 0.0))) "p99 of 999" None (Pctl.at (samples 999) 990);
  Alcotest.(check (option (float 0.0))) "p50 of 19" None (Pctl.at (samples 19) 500);
  Alcotest.(check (option (float 0.0))) "p50 of 20" (Some 10.0) (Pctl.at (samples 20) 500)

let test_highest_supported () =
  let check name n expect =
    Alcotest.(check (option (pair int (float 0.0)))) name expect (Pctl.highest (samples n))
  in
  check "10000 -> p99.9" 10000 (Some (999, 9990.0));
  check "1000 -> p99" 1000 (Some (990, 990.0));
  check "200 -> p95" 200 (Some (950, 190.0));
  check "5 -> nothing" 5 None;
  (* shuffled input gives the same answer *)
  let a = samples 1000 in
  let rng = Uu_support.Rng.create 3L in
  for i = Array.length a - 1 downto 1 do
    let j = Uu_support.Rng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Alcotest.(check (option (pair int (float 0.0)))) "shuffled" (Some (990, 990.0))
    (Pctl.highest a)

let ev name parent t0 t1 = { Span.name; parent; t0 = Int64.of_int t0; t1 = Int64.of_int t1 }

let test_self_time () =
  (* root [0,100] with children a [10,40] (itself holding b [20,30]) and
     b [50,60]: root self 100-30-10, a self 30-10, b 10+10 (ns) *)
  let events =
    [| ev "root" (-1) 0 100; ev "a" 0 10 40; ev "b" 1 20 30; ev "b" 0 50 60 |]
  in
  let got = Span.self_times events in
  let ns x = x *. 1e-9 in
  let expect = [ ("a", ns 20.0); ("b", ns 20.0); ("root", ns 60.0) ] in
  List.iter2
    (fun (n, v) (n', v') ->
      Alcotest.(check string) "name" n n';
      Alcotest.(check (float 1e-15)) n v v')
    expect got;
  let total = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 got in
  Alcotest.(check (float 1e-15)) "self times add up to the root" (Span.busy events) total

let test_mix_deterministic () =
  let draw ~seed ~client =
    let m = Mix.create ~seed ~client ~hits:16 ~fresh:12 ~fresh_one_in:20 in
    List.init 2000 (fun _ -> Mix.next m)
  in
  let a = draw ~seed:7 ~client:0 in
  Alcotest.(check bool) "same seed, same ops" true (a = draw ~seed:7 ~client:0);
  Alcotest.(check bool) "clients differ" false (a = draw ~seed:7 ~client:1);
  Alcotest.(check bool) "seeds differ" false (a = draw ~seed:8 ~client:0);
  (* every block of 20 holds one fresh request; 100 fresh requests deal
     the 12 bases 8 times over, plus 4 *)
  let blocks = List.init 100 (fun b -> List.filteri (fun i _ -> i / 20 = b) a) in
  List.iter
    (fun block ->
      let fresh = List.filter (function Mix.Fresh _ -> true | Mix.Hit _ -> false) block in
      Alcotest.(check int) "one fresh per block" 1 (List.length fresh))
    blocks;
  let dealt base =
    List.length (List.filter (function Mix.Fresh i -> i = base | Mix.Hit _ -> false) a)
  in
  List.iter
    (fun base -> Alcotest.(check bool) "each base dealt 8 or 9 times" true (dealt base = 8 || dealt base = 9))
    (List.init 12 Fun.id)

let () =
  Alcotest.run "perfbench"
    [
      ( "percentile",
        [
          Alcotest.test_case "refuses thin tails" `Quick test_percentile_refuses_thin_tails;
          Alcotest.test_case "highest supported" `Quick test_highest_supported;
        ] );
      ("span", [ Alcotest.test_case "self time" `Quick test_self_time ]);
      ("mix", [ Alcotest.test_case "seeded determinism" `Quick test_mix_deterministic ]);
    ]
