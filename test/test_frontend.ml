(* Tests for the MiniCUDA frontend: lexer, parser, and lowering (with its
   integrated type checking). *)

open Uu_frontend

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let tokens src =
  List.map (fun t -> t.Lexer.tok) (Lexer.tokenize src)

let test_lexer_basics () =
  (match tokens "x = 42;" with
  | [ Lexer.Tok_ident "x"; Lexer.Tok_punct "="; Lexer.Tok_int 42L; Lexer.Tok_punct ";"; Lexer.Tok_eof ] ->
    ()
  | _ -> Alcotest.fail "unexpected tokens");
  (match tokens "3.5 1e3 2.0f 0x10" with
  | [ Lexer.Tok_float 3.5; Lexer.Tok_float 1000.0; Lexer.Tok_float 2.0; Lexer.Tok_int 16L; Lexer.Tok_eof ] ->
    ()
  | _ -> Alcotest.fail "unexpected numeric tokens")

let test_lexer_comments () =
  check int "line comment skipped" 2 (List.length (tokens "x // comment\n"));
  check int "block comment skipped" 2 (List.length (tokens "/* a \n b */ x"))

let test_lexer_pragma () =
  match tokens "#pragma unroll 4\nwhile" with
  | [ Lexer.Tok_pragma "unroll 4"; Lexer.Tok_kw "while"; Lexer.Tok_eof ] -> ()
  | _ -> Alcotest.fail "pragma not lexed"

let test_lexer_multichar_ops () =
  match tokens "a >>= b << c" with
  | [ Lexer.Tok_ident "a"; Lexer.Tok_punct ">>="; Lexer.Tok_ident "b";
      Lexer.Tok_punct "<<"; Lexer.Tok_ident "c"; Lexer.Tok_eof ] ->
    ()
  | _ -> Alcotest.fail "longest-match punctuation failed"

let test_lexer_errors () =
  check bool "bad char raises" true
    (try ignore (Lexer.tokenize "`") ; false with Lexer.Error _ -> true);
  check bool "unterminated comment raises" true
    (try ignore (Lexer.tokenize "/* oops") ; false with Lexer.Error _ -> true)

let parse_ok src =
  try ignore (Parser.parse src) ; true
  with Parser.Error _ | Lexer.Error _ -> false

let test_parser_precedence () =
  let k = Parser.parse_kernel "kernel k(int* out) { out[0] = 1 + 2 * 3; }" in
  match (List.hd k.Ast.k_body).Ast.sdesc with
  | Ast.Store_stmt (_, _, { Ast.desc = Ast.Binary (Ast.Add, _, { Ast.desc = Ast.Binary (Ast.Mul, _, _); _ }); _ }) ->
    ()
  | _ -> Alcotest.fail "precedence wrong: expected 1 + (2 * 3)"

let test_parser_sugar () =
  let k =
    Parser.parse_kernel
      "kernel k(int* out, int n) { int x = 0; x += n; x++; out[0] = x; }"
  in
  check int "four statements" 4 (List.length k.Ast.k_body);
  (match (List.nth k.Ast.k_body 1).Ast.sdesc with
  | Ast.Assign ("x", { Ast.desc = Ast.Binary (Ast.Add, _, _); _ }) -> ()
  | _ -> Alcotest.fail "+= not desugared");
  match (List.nth k.Ast.k_body 2).Ast.sdesc with
  | Ast.Assign ("x", { Ast.desc = Ast.Binary (Ast.Add, _, { Ast.desc = Ast.Int_lit 1L; _ }); _ }) -> ()
  | _ -> Alcotest.fail "++ not desugared"

let test_parser_params () =
  let k =
    Parser.parse_kernel "kernel k(const float* restrict a, int* b, int n) { return; }"
  in
  (match k.Ast.k_params with
  | [ a; b; n ] ->
    check bool "a restrict" true a.Ast.p_restrict;
    check bool "a const" true a.Ast.p_const;
    check bool "b not restrict" false b.Ast.p_restrict;
    check bool "n scalar" true (n.Ast.p_ty = Ast.Tint)
  | _ -> Alcotest.fail "params");
  check bool "__global__ void accepted" true
    (parse_ok "__global__ void k(int n) { return; }")

let test_parser_control () =
  check bool "if/else if chain" true
    (parse_ok
       "kernel k(int n) { if (n > 0) { return; } else if (n < 0) { return; } else { return; } }");
  check bool "for loop" true
    (parse_ok "kernel k(int* o, int n) { for (int i = 0; i < n; i++) { o[i] = i; } }");
  check bool "while with break/continue" true
    (parse_ok
       "kernel k(int n) { while (true) { if (n > 3) { break; } continue; } }");
  check bool "pragma before loop" true
    (parse_ok "kernel k(int n) { int s = 0; #pragma nounroll\nwhile (n > 0) { n--; } }")

let test_parser_builtins () =
  let k = Parser.parse_kernel "kernel k(int* o) { o[0] = threadIdx.x + blockDim.x; }" in
  match (List.hd k.Ast.k_body).Ast.sdesc with
  | Ast.Store_stmt (_, _, { Ast.desc = Ast.Binary (Ast.Add, { Ast.desc = Ast.Builtin Ast.Thread_idx; _ }, { Ast.desc = Ast.Builtin Ast.Block_dim; _ }); _ }) ->
    ()
  | _ -> Alcotest.fail "builtins"

let test_parser_errors () =
  check bool "missing semicolon" false (parse_ok "kernel k(int n) { int x = 1 }");
  check bool "unknown pragma" false (parse_ok "kernel k() { #pragma bogus\nwhile (true) {} }");
  check bool "pragma not before loop" false (parse_ok "kernel k(int n) { #pragma unroll 2\nn = 1; }");
  check bool "threadIdx.y unsupported" false (parse_ok "kernel k(int* o) { o[0] = threadIdx.y; }")

let lower_ok src =
  try ignore (Lower.compile ~name:"t" src) ; true
  with Lower.Error _ -> false

let test_lowering_types () =
  check bool "int + float promotes" true
    (lower_ok "kernel k(float* o, int n) { o[0] = n + 1.5; }");
  check bool "int condition allowed" true
    (lower_ok "kernel k(int* o, int n) { if (n & 1) { o[0] = 1; } }");
  check bool "float condition rejected" false
    (lower_ok "kernel k(int* o, float x) { if (x) { o[0] = 1; } }");
  check bool "indexing scalar rejected" false
    (lower_ok "kernel k(int* o, int n) { o[0] = n[0]; }");
  check bool "assigning pointer param rejected" false
    (lower_ok "kernel k(int* o) { o = o; }");
  check bool "unknown variable rejected" false
    (lower_ok "kernel k(int* o) { o[0] = nope; }");
  check bool "unknown function rejected" false
    (lower_ok "kernel k(float* o) { o[0] = frobnicate(1.0); }");
  check bool "break outside loop rejected" false (lower_ok "kernel k() { break; }")

let test_lowering_verifies () =
  (* Every benchmark kernel lowers to verifier-clean IR. *)
  List.iter
    (fun (app : Uu_benchmarks.App.t) ->
      let m = Lower.compile ~name:app.Uu_benchmarks.App.name app.Uu_benchmarks.App.source in
      List.iter
        (fun f ->
          Uu_ir.Verifier.check_exn f;
          Uu_analysis.Ssa_check.check_exn f)
        m.Uu_ir.Func.funcs)
    Uu_benchmarks.Registry.all

let test_lowering_pragma_recorded () =
  let m =
    Lower.compile ~name:"t"
      "kernel k(int* o, int n) { int s = 0; #pragma unroll 4\nwhile (s < n) { s++; } o[0] = s; }"
  in
  let f = List.hd m.Uu_ir.Func.funcs in
  check int "one pragma recorded" 1 (Hashtbl.length f.Uu_ir.Func.pragmas)

let test_lowering_execution () =
  (* End-to-end: lower a small kernel and execute it unoptimized (allocas
     and all) on the simulator. *)
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x;
  int acc = 0;
  for (int i = 0; i < n; i++) {
    if (i & 1) { acc += i * tid; } else { acc -= i; }
  }
  out[tid] = acc;
}
|}
  in
  let got = Ir_helpers.run_kernel fn [ 10L ] in
  let expect tid =
    let acc = ref 0 in
    for i = 0 to 9 do
      if i land 1 = 1 then acc := !acc + (i * tid) else acc := !acc - i
    done;
    Int64.of_int !acc
  in
  for tid = 0 to 31 do
    check (Alcotest.int64) (Printf.sprintf "out[%d]" tid) (expect tid) got.(tid)
  done

(* Mutated sources of every bundled app: compiling one either succeeds or
   raises one of the frontend's own errors. *)
let fuzz_compile =
  QCheck2.Test.make ~name:"fuzz: mutated MiniCUDA sources" ~count:2000
    (Mutation.mutated ~alphabet:"{}()[];,=<>+-*/%&|!.#_ \n0123456789ifwhlt"
       (lazy
         (Array.of_list
            (List.map (fun (app : Uu_benchmarks.App.t) -> app.source) Uu_benchmarks.Registry.all))))
    ~print:Mutation.show
    (fun src ->
      match Lower.compile ~name:"fuzz" src with
      | _ -> true
      | exception (Lexer.Error _ | Parser.Error _ | Lower.Error _) -> true)

let suite =
  [
    ("lexer basics", `Quick, test_lexer_basics);
    ("lexer comments", `Quick, test_lexer_comments);
    ("lexer pragma", `Quick, test_lexer_pragma);
    ("lexer longest match", `Quick, test_lexer_multichar_ops);
    ("lexer errors", `Quick, test_lexer_errors);
    ("parser precedence", `Quick, test_parser_precedence);
    ("parser sugar", `Quick, test_parser_sugar);
    ("parser params", `Quick, test_parser_params);
    ("parser control flow", `Quick, test_parser_control);
    ("parser builtins", `Quick, test_parser_builtins);
    ("parser errors", `Quick, test_parser_errors);
    ("lowering type rules", `Quick, test_lowering_types);
    ("all benchmark kernels lower cleanly", `Quick, test_lowering_verifies);
    ("loop pragma recorded", `Quick, test_lowering_pragma_recorded);
    ("lowered kernel executes", `Quick, test_lowering_execution);
    Mutation.to_alcotest ~seed:23 fuzz_compile;
  ]
