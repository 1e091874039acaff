(* Round-trip tests for the textual IR parser: printing and re-parsing any
   function the toolchain can produce must be the identity (up to the
   printed form), including after heavy transformation. *)

open Uu_ir

let check = Alcotest.check
let bool = Alcotest.bool
let string = Alcotest.string

(* The parser branches forward to blocks it has not inserted yet, so the
   reparsed function's kept predecessor lists must still equal a
   rebuild. *)
let round_trip fn =
  let printed = Printer.func_to_string fn in
  let reparsed = Parser_ir.parse_func printed in
  check string
    (Printf.sprintf "round trip of @%s" fn.Func.name)
    printed
    (Printer.func_to_string reparsed);
  let labels = Alcotest.(list int) in
  check Alcotest.(option (triple int labels labels))
    (Printf.sprintf "kept predecessors of reparsed @%s" fn.Func.name)
    None (Ir_helpers.preds_drift reparsed)

let test_diamond_round_trip () = round_trip (fst (Ir_helpers.diamond_loop ()))
let test_straight_round_trip () = round_trip (Ir_helpers.straight_line ())

let test_lowered_round_trip () =
  List.iter
    (fun (app : Uu_benchmarks.App.t) ->
      let m =
        Uu_frontend.Lower.compile ~name:app.Uu_benchmarks.App.name
          app.Uu_benchmarks.App.source
      in
      List.iter round_trip m.Func.funcs)
    Uu_benchmarks.Registry.all

let test_optimized_round_trip () =
  (* The gnarliest IR we can produce: u&u-optimized kernels with phis,
     selects, intrinsics, atomics, float immediates. *)
  List.iter
    (fun name ->
      let app =
        match Uu_benchmarks.Registry.find name with Some a -> a | None -> assert false
      in
      let m =
        Uu_frontend.Lower.compile ~name app.Uu_benchmarks.App.source
      in
      List.iter
        (fun f ->
          ignore (Uu_core.Pipelines.optimize (Uu_core.Pipelines.Uu 2) f);
          round_trip f)
        m.Func.funcs)
    [ "XSBench"; "bezier-surface"; "complex"; "quicksort" ]

let test_parsed_executes () =
  let fn =
    Parser_ir.parse_func
      {|
func @k(%out: i64* restrict, %n: i64) -> void {
bb0:
  %t.2 = special thread_idx
  %3 = sext.i64 %t.2
  br bb1
bb1:
  %i.4 = phi i64 [bb0: 0:i64], [bb2: %inc.7]
  %acc.5 = phi i64 [bb0: 0:i64], [bb2: %acc2.8]
  %c.6 = cmp slt i64 %i.4, %n.1
  condbr %c.6, bb2, bb3
bb2:
  %inc.7 = add i64 %i.4, 1:i64
  %acc2.8 = add i64 %acc.5, %i.4
  br bb1
bb3:
  %p.9 = gep i64, %out.0[%3]
  store i64 %acc.5, %p.9
  ret
}
|}
  in
  let out = Ir_helpers.run_kernel fn [ 5L ] in
  check Alcotest.int64 "sum 0..4" 10L out.(0)

let expect_error src =
  try
    ignore (Parser_ir.parse_func src);
    false
  with Parser_ir.Error _ -> true

(* One body line in a one-block function. *)
let in_kernel line = "func @k(%n: i64) -> void {\nbb0.entry:\n  " ^ line ^ "\n}"

let test_parse_errors () =
  check bool "missing header" true (expect_error "bb0:\n  ret\n}");
  check bool "bad opcode" true
    (expect_error "func @k() -> void {\nbb0:\n  %1 = frobnicate i64 %0, %0\n  ret\n}");
  check bool "bad register" true
    (expect_error "func @k() -> void {\nbb0:\n  %x = add i64 1:i64, 2:i64\n  ret\n}");
  check bool "undefined use rejected by verifier" true
    (expect_error "func @k() -> void {\nbb0:\n  %a.1 = add i64 %zzz.99, 1:i64\n  ret\n}");
  check bool "bad type" true
    (expect_error "func @k(%x: i17) -> void {\nbb0:\n  ret\n}");
  check bool "phi without entries" true (expect_error (in_kernel "%x.1 = phi i64"));
  check bool "statement opening with =" true (expect_error (in_kernel "= add i64 %n, 1:i64"));
  check bool "branch to a missing block" true (expect_error (in_kernel "br bb7"))

let test_parse_module () =
  let m =
    Parser_ir.parse
      "func @a() -> void {\nbb0:\n  ret\n}\nfunc @b() -> void {\nbb0:\n  ret\n}"
  in
  check (Alcotest.list string) "two functions" [ "a"; "b" ]
    (List.map (fun f -> f.Func.name) m.Func.funcs)

(* Mutated printed IR of every bundled kernel, lowered and optimized:
   the parser either returns a function or raises [Parser_ir.Error]. *)
let printed_kernels =
  lazy
    (Array.of_list
       (List.concat_map
          (fun (app : Uu_benchmarks.App.t) ->
            let m = Uu_frontend.Lower.compile ~name:app.name app.source in
            let lowered = List.map Printer.func_to_string m.Func.funcs in
            List.iter (fun f -> ignore (Uu_core.Pipelines.optimize Uu_core.Pipelines.Baseline f)) m.Func.funcs;
            lowered @ List.map Printer.func_to_string m.Func.funcs)
          Uu_benchmarks.Registry.all))

let fuzz_parse =
  QCheck2.Test.make ~name:"fuzz: mutated printed IR" ~count:2000
    (Mutation.mutated ~alphabet:"%@:=,[]{}()*.-> \nbb0123456789ifphr" printed_kernels)
    ~print:Mutation.show
    (fun text ->
      match Parser_ir.parse text with
      | _ -> true
      | exception Parser_ir.Error _ -> true)

let suite =
  [
    ("diamond loop round trip", `Quick, test_diamond_round_trip);
    ("straight line round trip", `Quick, test_straight_round_trip);
    ("all lowered kernels round trip", `Quick, test_lowered_round_trip);
    ("optimized kernels round trip", `Quick, test_optimized_round_trip);
    ("parsed IR executes", `Quick, test_parsed_executes);
    ("parse errors", `Quick, test_parse_errors);
    ("module with two functions", `Quick, test_parse_module);
    Mutation.to_alcotest ~seed:23 fuzz_parse;
  ]
