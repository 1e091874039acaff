(* Unit and property tests for Uu_support: masks, RNG, statistics, JSON. *)

open Uu_support

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

let test_mask_basics () =
  let m = Mask.full ~width:32 in
  check int "full popcount" 32 (Mask.popcount m);
  check bool "mem 0" true (Mask.mem 0 m);
  check bool "mem 31" true (Mask.mem 31 m);
  check bool "mem 32" false (Mask.mem 32 m);
  check int "empty popcount" 0 (Mask.popcount Mask.empty);
  check bool "empty is_empty" true (Mask.is_empty Mask.empty);
  check bool "full not empty" false (Mask.is_empty m)

let test_mask_set_ops () =
  let a = Mask.of_list [ 0; 2; 4 ] and b = Mask.of_list [ 2; 3 ] in
  check (Alcotest.list int) "union" [ 0; 2; 3; 4 ] (Mask.to_list (Mask.union a b));
  check (Alcotest.list int) "inter" [ 2 ] (Mask.to_list (Mask.inter a b));
  check (Alcotest.list int) "diff" [ 0; 4 ] (Mask.to_list (Mask.diff a b));
  check bool "subset yes" true (Mask.subset (Mask.singleton 2) a);
  check bool "subset no" false (Mask.subset b a);
  check bool "equal" true (Mask.equal a (Mask.of_list [ 4; 0; 2 ]))

let test_mask_add_remove () =
  let m = Mask.add 5 Mask.empty in
  check bool "added" true (Mask.mem 5 m);
  check bool "removed" false (Mask.mem 5 (Mask.remove 5 m));
  check (Alcotest.option int) "first" (Some 3) (Mask.first (Mask.of_list [ 7; 3; 9 ]));
  check (Alcotest.option int) "first empty" None (Mask.first Mask.empty)

let test_mask_iter_order () =
  let collected = ref [] in
  Mask.iter (fun i -> collected := i :: !collected) (Mask.of_list [ 1; 8; 3 ]);
  check (Alcotest.list int) "increasing order" [ 1; 3; 8 ] (List.rev !collected)

let test_mask_invalid () =
  Alcotest.check_raises "width too large" (Invalid_argument "Mask.full") (fun () ->
      ignore (Mask.full ~width:63))

let mask_props =
  let gen = QCheck2.Gen.(list_size (int_bound 20) (int_bound 40)) in
  [
    QCheck2.Test.make ~name:"mask round-trips through lists" ~count:200 gen (fun l ->
        let m = Mask.of_list l in
        Mask.to_list m = List.sort_uniq compare l);
    QCheck2.Test.make ~name:"mask popcount = list length" ~count:200 gen (fun l ->
        Mask.popcount (Mask.of_list l) = List.length (List.sort_uniq compare l));
    QCheck2.Test.make ~name:"union is commutative" ~count:200
      QCheck2.Gen.(pair (list_size (int_bound 10) (int_bound 40)) (list_size (int_bound 10) (int_bound 40)))
      (fun (a, b) ->
        Mask.equal
          (Mask.union (Mask.of_list a) (Mask.of_list b))
          (Mask.union (Mask.of_list b) (Mask.of_list a)));
  ]

let test_rng_deterministic () =
  let a = Rng.create 11L and b = Rng.create 11L in
  for _ = 1 to 10 do
    check bool "same stream" true (Int64.equal (Rng.next a) (Rng.next b))
  done

let test_rng_bounds () =
  let rng = Rng.create 3L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 17 in
    check bool "int in range" true (v >= 0 && v < 17);
    let f = Rng.float rng 2.5 in
    check bool "float in range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_invalid () =
  Alcotest.check_raises "nonpositive bound" (Invalid_argument "Rng.int") (fun () ->
      ignore (Rng.int (Rng.create 1L) 0))

let test_rng_split_independent () =
  let parent = Rng.create 5L in
  let child = Rng.split parent in
  check bool "streams differ" false (Int64.equal (Rng.next parent) (Rng.next child))

let test_gaussian_moments () =
  let rng = Rng.create 99L in
  let samples = List.init 5000 (fun _ -> Rng.gaussian rng ~mean:2.0 ~stddev:0.5) in
  let mean = Stats.mean samples in
  check bool "mean near 2" true (Float.abs (mean -. 2.0) < 0.05);
  check bool "stddev near 0.5" true (Float.abs (Stats.stddev samples -. 0.5) < 0.05)

let feq = Alcotest.float 1e-9

let test_stats_basics () =
  check feq "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check feq "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check feq "median even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  check feq "stddev constant" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  check feq "rsd zero mean" 0.0 (Stats.rsd [ 0.0; 0.0 ]);
  check feq "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  check feq "percentile 0" 1.0 (Stats.percentile 0.0 [ 3.0; 1.0; 2.0 ]);
  check feq "percentile 1" 3.0 (Stats.percentile 1.0 [ 3.0; 1.0; 2.0 ]);
  check feq "percentile interp" 1.5 (Stats.percentile 0.25 [ 3.0; 1.0; 2.0 ])

let test_stats_errors () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean") (fun () ->
      ignore (Stats.mean []));
  Alcotest.check_raises "geomean nonpositive"
    (Invalid_argument "Stats.geomean: non-positive element") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

(* --- JSON -------------------------------------------------------------- *)

(* Documents and what the parser makes of them: a printed value, or the
   exact error text with the offset where the parser stopped. *)
let json_golden =
  [
    ("", Error "at offset 0: unexpected end of input");
    ("   ", Error "at offset 3: unexpected end of input");
    ("nul", Error "at offset 0: expected null");
    ("nulx", Error "at offset 0: expected null");
    ("tru", Error "at offset 0: expected true");
    ("fals", Error "at offset 0: expected false");
    ("[1,2", Error "at offset 4: expected , or ] in array");
    ("[1 2]", Error "at offset 3: expected , or ] in array");
    ("[1,]", Error "at offset 3: unexpected character ]");
    ("{\"a\":1", Error "at offset 6: expected , or } in object");
    ("{\"a\" 1}", Error "at offset 5: expected :, found 1");
    ("{a:1}", Error "at offset 1: expected \", found a");
    ("{\"a\":1,}", Error "at offset 7: expected \", found }");
    ("{\"a\":1 \"b\":2}", Error "at offset 7: expected , or } in object");
    ("\"abc", Error "at offset 4: unterminated string");
    ("\"ab\\", Error "at offset 4: unterminated escape");
    ("\"\\x\"", Error "at offset 2: bad escape \\x");
    ("\"\\u12\"", Error "at offset 3: truncated \\u escape");
    ("\"\\uZZZZ\"", Error "at offset 3: bad \\u escape ZZZZ");
    ("\"\\u12G4\"", Error "at offset 3: bad \\u escape 12G4");
    ("-", Error "at offset 1: bad number -");
    ("1.2.3", Error "at offset 5: bad number 1.2.3");
    ("1e", Error "at offset 2: bad number 1e");
    ("--1", Error "at offset 3: bad number --1");
    ("+1", Error "at offset 0: unexpected character +");
    ("1 2", Error "trailing garbage at offset 2");
    ("[] x", Error "trailing garbage at offset 3");
    ("@", Error "at offset 0: unexpected character @");
    ("{\"a\":}", Error "at offset 5: unexpected character }");
    ("[\"a\":1]", Error "at offset 4: expected , or ] in array");
    ("\"abc\" \"def\"", Error "trailing garbage at offset 6");
    ("{\"k\":\"v\"}}", Error "trailing garbage at offset 9");
    ("1-2", Error "at offset 3: bad number 1-2");
    ("0x10", Error "trailing garbage at offset 1");
    ("{\"a\":[1,{\"b\":tru}]}", Error "at offset 13: expected true");
    ("[1,2,3,", Error "at offset 7: unexpected end of input");
    (".5", Error "at offset 0: unexpected character .");
    ("{\"a\":1}\n\n  x", Error "trailing garbage at offset 11");
    ("nan", Error "at offset 0: expected null");
    ("99999999999999999999e", Error "at offset 21: bad number 99999999999999999999e");
    ("[\000]", Error "at offset 1: unexpected character \000");
    ("\"\\u\"", Error "at offset 3: truncated \\u escape");
    ("{\"a\"\t:\r\n[ ]  ,}", Error "at offset 14: expected \", found }");
    ("99999999999999999999", Ok "1e+20");
    ("-0", Ok "0");
    ("1E2", Ok "100.0");
    (" [ 1 , \"a\\u00e9\\/\" ] ", Ok "[1,\"a\195\169/\"]");
    ("\"\\u0000\\b\\f\"", Ok "\"\\u0000\\u0008\\u000c\"");
    ("{\"k\":-12.5e-3,\"k\":[true,false,null]}", Ok "{\"k\":-0.012500000000000001,\"k\":[true,false,null]}");
    ("1000000000000000.0", Ok "1000000000000000.0");
    ("007", Ok "7")
  ]

let test_json_golden () =
  List.iter
    (fun (input, expect) ->
      check
        Alcotest.(result string string)
        (Printf.sprintf "%S" input) expect
        (Result.map Json.to_string (Json.of_string input)))
    json_golden

(* Any finite double: every bit pattern, plus the edges of the printer's
   two float formats. *)
let finite_float_gen =
  let open QCheck2.Gen in
  oneof
    [
      map
        (fun bits ->
          let x = Int64.float_of_bits bits in
          if Float.is_finite x then x else 0.5)
        ui64;
      float_range (-1e6) 1e6;
      oneofl [ 0.0; -0.0; 1e15; -1e15; 1e15 +. 1.0; 1e16; 1e17; 5e-324; max_float; -.max_float ];
    ]

let json_gen =
  let open QCheck2.Gen in
  let str = string_size ~gen:char (int_bound 12) in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               pure Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) (oneof [ int; oneofl [ min_int; max_int; 0 ] ]);
               map (fun x -> Json.Float x) finite_float_gen;
               map (fun s -> Json.Str s) str;
             ]
         in
         if n <= 1 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun l -> Json.Arr l) (list_size (int_bound 5) (self (n / 3))));
               ( 1,
                 map (fun l -> Json.Obj l) (list_size (int_bound 5) (pair str (self (n / 3))))
               );
             ])

let json_props =
  [
    QCheck2.Test.make ~name:"json print then parse" ~count:1000
      ~print:Json.to_string json_gen (fun v ->
        Json.of_string (Json.to_string v) = Ok v);
  ]

let suite =
  [
    ("mask basics", `Quick, test_mask_basics);
    ("mask set ops", `Quick, test_mask_set_ops);
    ("mask add/remove/first", `Quick, test_mask_add_remove);
    ("mask iter order", `Quick, test_mask_iter_order);
    ("mask invalid width", `Quick, test_mask_invalid);
    ("rng determinism", `Quick, test_rng_deterministic);
    ("rng bounds", `Quick, test_rng_bounds);
    ("rng invalid bound", `Quick, test_rng_invalid);
    ("rng split independence", `Quick, test_rng_split_independent);
    ("gaussian moments", `Quick, test_gaussian_moments);
    ("stats basics", `Quick, test_stats_basics);
    ("stats errors", `Quick, test_stats_errors);
    ("json golden documents", `Quick, test_json_golden);
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) mask_props
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false ~rand:(Random.State.make [| 22 |]))
      json_props
