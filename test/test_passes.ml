(* Unit tests for the midend passes: mem2reg, SCCP, instcombine, GVN,
   condition propagation, DCE, simplify-cfg, if-conversion, and the
   baseline full unroller. Each test checks both a structural property of
   the produced IR and (where cheap) semantic preservation by running the
   kernel on the simulator. *)

open Uu_ir
open Uu_opt

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let count pred fn =
  Func.fold_blocks
    (fun b acc -> acc + List.length (List.filter pred b.Block.instrs))
    fn 0

let count_phis fn =
  Func.fold_blocks (fun b acc -> acc + List.length b.Block.phis) fn 0

let is_alloca = function Instr.Alloca _ -> true | _ -> false
let is_load = function Instr.Load _ -> true | _ -> false
let is_select = function Instr.Select _ -> true | _ -> false
let is_div = function Instr.Binop { op = Instr.Sdiv | Instr.Udiv | Instr.Fdiv; _ } -> true | _ -> false
let is_sub = function Instr.Binop { op = Instr.Sub; _ } -> true | _ -> false
let is_cmp = function Instr.Cmp _ -> true | _ -> false

let run_pass p fn = ignore (Pass.exec [ p ] fn)

let test_mem2reg_promotes () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x;
  int a = n + 1;
  int b = a * 2;
  if (b > 4) { a = b; }
  out[tid] = a + b;
}
|}
  in
  check bool "has allocas before" true (count is_alloca fn > 0);
  run_pass Mem2reg.pass fn;
  check int "no allocas after" 0 (count is_alloca fn);
  check int "no slot loads after" 0 (count is_load fn);
  check bool "phis placed for the conditional" true (count_phis fn > 0)

let test_mem2reg_semantics () =
  let src =
    {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x;
  int a = 3;
  int i = 0;
  while (i < n) {
    if (i & 1) { a = a + tid; } else { a = a * 2; }
    i = i + 1;
  }
  out[tid] = a;
}
|}
  in
  let reference = Ir_helpers.run_kernel (Ir_helpers.compile_one src) [ 9L ] in
  let fn = Ir_helpers.compile_one src in
  run_pass Mem2reg.pass fn;
  let got = Ir_helpers.run_kernel fn [ 9L ] in
  check bool "mem2reg preserves results" true (got = reference)

let test_sccp_folds_branch () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out) {
  int x = 4;
  int y = 0;
  if (x > 2) { y = 10; } else { y = 20; }
  out[0] = y;
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Sccp.pass; Simplify_cfg.pass ] fn);
  (* Everything folds to a single store of 10. *)
  check int "one block" 1 (List.length (Func.labels fn));
  let got = Ir_helpers.run_kernel ~elems:1 fn [] in
  check Alcotest.int64 "folded value" 10L got.(0)

let test_sccp_through_phi () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int c) {
  int y = 0;
  if (c > 0) { y = 7; } else { y = 7; }
  out[0] = y + 1;
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Sccp.pass; Simplify_cfg.pass; Dce.pass ] fn);
  let got = Ir_helpers.run_kernel ~elems:1 fn [ 1L ] in
  check Alcotest.int64 "phi of equal constants folds" 8L got.(0)

let test_instcombine_addsub () =
  let fn = Ir_helpers.straight_line () in
  (* r = (x + y) - x  ==>  y *)
  run_pass Instcombine.pass fn;
  run_pass Dce.pass fn;
  check int "sub eliminated" 0 (count is_sub fn)

let test_instcombine_identities () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int x) {
  out[0] = (x * 1) + 0;
  out[1] = x - x;
  out[2] = x ^ x;
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Instcombine.pass; Dce.pass ] fn);
  let muls = count (function Instr.Binop { op = Instr.Mul; _ } -> true | _ -> false) fn in
  check int "x*1 removed" 0 muls;
  check int "x-x removed" 0 (count is_sub fn);
  let got = Ir_helpers.run_kernel ~elems:3 fn [ 5L ] in
  check bool "identity values" true (got = [| 5L; 0L; 0L |])

let test_gvn_cse () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int x, int y) {
  out[0] = (x + y) * (x + y);
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Gvn.pass; Dce.pass ] fn);
  let adds = count (function Instr.Binop { op = Instr.Add; _ } -> true | _ -> false) fn in
  check int "duplicate add merged" 1 adds

let test_gvn_load_elimination () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, const int* restrict a, int i) {
  out[0] = a[i] + a[i];
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Gvn.pass; Dce.pass ] fn);
  check int "second load eliminated" 1 (count is_load fn)

let test_gvn_store_forwarding () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int v) {
  out[3] = v;
  out[0] = out[3];
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Gvn.pass; Dce.pass; Dce.dead_load_pass ] fn);
  check int "load forwarded from store" 0 (count is_load fn);
  let got = Ir_helpers.run_kernel ~elems:4 fn [ 42L ] in
  check Alcotest.int64 "forwarded value" 42L got.(0)

let test_gvn_store_kills () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int* a, int* b, int i) {
  int x = a[i];
  b[i] = 0;
  out[0] = x + a[i];
}
|}
  in
  (* a and b are NOT restrict here: the store through b may alias a, so
     the second load of a[i] must survive. *)
  ignore (Pass.exec [ Mem2reg.pass; Gvn.pass; Dce.pass ] fn);
  check int "aliasing store kills availability" 2 (count is_load fn)

let test_gvn_restrict_preserves () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, const int* restrict a, int* restrict b, int i) {
  int x = a[i];
  b[i] = 0;
  out[0] = x + a[i];
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Gvn.pass; Dce.pass ] fn);
  check int "restrict store does not kill" 1 (count is_load fn)

let test_gvn_sync_kills () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, const int* a, int i) {
  int x = a[i];
  __syncthreads();
  out[0] = x + a[i];
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Gvn.pass; Dce.pass ] fn);
  check int "barrier kills availability" 2 (count is_load fn)

let test_cond_prop_same_condition () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int x, int y) {
  int r = 0;
  if (x > y) {
    if (x > y) { r = 1; } else { r = 2; }
  }
  out[0] = r;
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Simplify_cfg.pass; Cond_prop.pass; Simplify_cfg.pass; Dce.pass ] fn);
  check int "inner check folded" 1 (count is_cmp fn);
  let got = Ir_helpers.run_kernel ~elems:1 fn [ 5L; 3L ] in
  check Alcotest.int64 "value" 1L got.(0)

let test_cond_prop_implication () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int x, int y) {
  int r = 0;
  if (x > y) {
    if (x >= y) { r = 1; }
    if (x < y) { r = r + 10; }
    if (y < x) { r = r + 100; }
  }
  out[0] = r;
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Simplify_cfg.pass; Cond_prop.pass; Simplify_cfg.pass; Dce.pass ] fn);
  check int "all implied checks folded" 1 (count is_cmp fn);
  let got = Ir_helpers.run_kernel ~elems:1 fn [ 5L; 3L ] in
  check Alcotest.int64 "value" 101L got.(0)

let test_cond_prop_negation () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int x, int y) {
  int r = 0;
  if (x > y) { r = 1; } else {
    if (x <= y) { r = 2; }
  }
  out[0] = r;
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Simplify_cfg.pass; Cond_prop.pass; Simplify_cfg.pass; Dce.pass ] fn);
  check int "negated check folded" 1 (count is_cmp fn)

let test_cond_prop_float_nan_safe () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, float x, float y) {
  int r = 0;
  if (x == y) { r = 1; } else {
    if (x != y) { r = 2; }
  }
  out[0] = r;
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Simplify_cfg.pass; Cond_prop.pass; Simplify_cfg.pass; Dce.pass ] fn);
  (* foeq false does NOT imply fone true (NaN): both compares survive. *)
  check int "unordered negation NOT folded" 2 (count is_cmp fn)

(* cond-prop extends facts along an edge its source owned when the pass
   began. Folding bb1's branch leaves bb3 one predecessor, bb0, but the
   facts of bb0's branch do not reach bb3 in the same run: %5 is decided
   and %6 is not. *)
let test_cond_prop_reads_preds_at_entry () =
  let fn =
    Parser_ir.parse_func
      {|
func @k(%out: i64*, %n: i64) -> void {
bb0.entry:
  %2 = special thread_idx
  %3 = sext.i64 %2
  %4 = cmp sgt i64 %3, 5:i64
  condbr %4, bb3, bb1
bb1:
  %5 = cmp sgt i64 %3, 5:i64
  condbr %5, bb3, bb2
bb2:
  ret
bb3:
  %6 = cmp sgt i64 %3, 5:i64
  %7 = select i64 %6, 1:i64, 0:i64
  %8 = gep i64, %out.0[%3]
  store i64 %7, %8
  br bb2
}
|}
  in
  let r = Pass.exec ~options:Pass.unverified [ Cond_prop.pass ] fn in
  let printed = Printer.func_to_string fn in
  let compares v = Astring.String.is_infix ~affix:(v ^ " = cmp") printed in
  check bool "%5 decided" false (compares "%5");
  check bool "%6 left" true (compares "%6");
  check (Alcotest.option int) "conds decided" (Some 1)
    (List.assoc_opt "condprop.conds_decided" r.Pass.stats)

(* A pass that writes a terminator past [Func.set_term] leaves the kept
   predecessor lists stale. The IR is otherwise valid (bb0's branch now
   goes one way, bb1 is unreachable and nothing has phis), so only the
   comparison with a rebuild catches it, at the pass that wrote. *)
let test_stale_preds_fail_at_the_pass () =
  let fn =
    Parser_ir.parse_func
      {|
func @k(%out: i64*, %n: i64) -> void {
bb0.entry:
  %2 = special thread_idx
  %3 = sext.i64 %2
  %4 = cmp sgt i64 %3, 5:i64
  condbr %4, bb1, bb2
bb1:
  %5 = gep i64, %out.0[%3]
  store i64 1:i64, %5
  br bb2
bb2:
  ret
}
|}
  in
  let direct =
    {
      Pass.name = "direct-term-write";
      run =
        (fun f ->
          (Func.block f f.Func.entry).Block.term <- Instr.Br 2;
          true);
    }
  in
  match Pass.exec [ direct ] fn with
  | _ -> Alcotest.fail "stale predecessor lists passed verification"
  | exception Failure msg ->
    check bool "names the pass" true
      (Astring.String.is_prefix ~affix:"after pass direct-term-write:" msg);
    check bool "names the drift" true (Astring.String.is_infix ~affix:"kept predecessors" msg);
    (* A copy rebuilds the lists: with them fresh the IR verifies. *)
    Pass.verify_now (Func.copy fn)

(* cond-prop rewrites a use of a branch condition its block is known
   to be under (%4 in bb1) to the constant, and must report that as a
   change: the verifier and the clean rule both rest on the report. *)
let bool_use_ir =
  {|
func @k(%out: i64*, %n: i64) -> void {
bb0.entry:
  %2 = special thread_idx
  %3 = sext.i64 %2
  %4 = cmp sgt i64 %3, 5:i64
  condbr %4, bb1, bb2
bb1:
  %5 = select i64 %4, 1:i64, 0:i64
  %6 = gep i64, %out.0[%3]
  store i64 %5, %6
  br bb2
bb2:
  ret
}
|}

let test_cond_prop_reports_bool_uses () =
  let fn = Parser_ir.parse_func bool_use_ir in
  let r = Pass.exec ~options:Pass.unverified [ Cond_prop.pass ] fn in
  check bool "use rewritten" true
    (Astring.String.is_infix ~affix:"%5 = select i64 true" (Printer.func_to_string fn));
  check bool "reported as a change" true r.Pass.changed

(* A pass that counts its runs and reports a change on the runs
   [changes] accepts (numbered from 1). *)
let counting name ~changes =
  let runs = ref 0 in
  let run _ =
    incr runs;
    changes !runs
  in
  ({ Pass.name; run }, runs)

let straight_line () =
  Parser_ir.parse_func
    {|
func @k(%out: i64*) -> void {
bb0.entry:
  %1 = special thread_idx
  ret
}
|}

(* Within one [Pass.exec], a pass that reported no change is skipped
   until some pass reports one, a fixpoint's sub-passes included. *)
let test_clean_rule () =
  let b, b_runs = counting "b" ~changes:(fun _ -> false) in
  ignore (Pass.exec [ b; b ] (straight_line ()));
  check int "no change between: runs once" 1 !b_runs;
  let a, _ = counting "a" ~changes:(fun _ -> true) in
  b_runs := 0;
  ignore (Pass.exec [ b; a; b ] (straight_line ()));
  check int "a change between: runs twice" 2 !b_runs;
  let once, once_runs = counting "once" ~changes:(fun n -> n = 1) in
  b_runs := 0;
  let fn = straight_line () in
  let r = Pass.exec [ Pass.fixpoint "fx" [ once; b ]; b ] fn in
  check int "the fixpoint's sub-pass runs twice" 2 !once_runs;
  check int "the trailing b is skipped" 1 !b_runs;
  check int "work counts every element" (2 * Func.instr_count fn) r.Pass.work;
  b_runs := 0;
  let r = Pass.exec [ b; b; b ] fn in
  check int "skipped elements count in work" (3 * Func.instr_count fn) r.Pass.work;
  let nested = { Pass.name = "nested"; run = (fun f -> (Pass.exec [ b ] f).Pass.changed) } in
  b_runs := 0;
  ignore (Pass.exec [ b; nested; b ] fn);
  check int "a nested exec keeps its own rule" 2 !b_runs

(* The rule's state belongs to one [Pass.exec], so a verification
   failure does not carry it into the next run. *)
let test_clean_rule_after_failure () =
  let b, b_runs = counting "b" ~changes:(fun _ -> false) in
  let breaks = ref 0 in
  let breaker =
    {
      Pass.name = "breaker";
      run =
        (fun f ->
          incr breaks;
          if !breaks = 1 then (Func.block f f.Func.entry).Block.term <- Instr.Br f.Func.entry;
          !breaks = 1);
    }
  in
  let fn = straight_line () in
  (match Pass.exec [ Pass.fixpoint "fx" [ b; breaker ] ] fn with
  | _ -> Alcotest.fail "stale predecessor lists passed verification"
  | exception Failure _ -> ());
  check int "b ran in both rounds" 2 !b_runs;
  ignore ((Pass.fixpoint "again" [ b ]).Pass.run (straight_line ()));
  check int "a fixpoint outside any exec runs b" 3 !b_runs;
  ignore (Pass.exec [ b ] (straight_line ()));
  check int "the next exec runs b" 4 !b_runs

let test_dce_keeps_effects () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int x) {
  int dead = x * 1234;
  int dead2 = dead + 1;
  out[0] = x;
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Dce.pass ] fn);
  check int "dead arithmetic removed" 0
    (count (function Instr.Binop _ -> true | _ -> false) fn);
  check int "store kept" 1 (count (function Instr.Store _ -> true | _ -> false) fn)

let test_dce_dead_phi_cycle () =
  let fn, _header = Ir_helpers.diamond_loop () in
  (* Remove the store so the whole loop computation becomes dead. *)
  Func.iter_blocks
    (fun b ->
      b.Block.instrs <-
        List.filter (function Instr.Store _ -> false | _ -> true) b.Block.instrs)
    fn;
  run_pass Dce.pass fn;
  (* The a-phi is dead; the induction phi survives (controls branches). *)
  check bool "dead phi removed" true (count_phis fn <= 1)

let test_simplify_cfg_folds () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out) {
  if (true) { out[0] = 1; } else { out[0] = 2; }
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Simplify_cfg.pass ] fn);
  check int "collapsed to one block" 1 (List.length (Func.labels fn))

(* Batching rules on hand-written IR. Simplify-cfg and if-convert apply
   non-overlapping rewrites per round, in label order; that order decides
   which of two conflicting rewrites wins and the order of phi entries and
   selects. Each case pins the printed output and the statistic deltas. *)
let pinned pass src ~expect ~stats () =
  let fn = Parser_ir.parse_func src in
  let r = Pass.exec [ pass ] fn in
  check Alcotest.string "printed IR" expect (Printer.func_to_string fn);
  check (Alcotest.list (Alcotest.pair Alcotest.string int)) "stats" stats r.Pass.stats

(* bb1 and bb2 both forward into bb3 from bb0. The lower label goes
   first; once bb0 reaches bb3 directly, bb2 conflicts with bb3's phi. *)
let test_forward_lower_label_wins =
  pinned Simplify_cfg.pass ~stats:[]
    {|
func @k(%c: i64) -> i64 {
bb0:
  %t.1 = cmp slt i64 %c.0, 0:i64
  condbr %t.1, bb1, bb2
bb1:
  br bb3
bb2:
  br bb3
bb3:
  %x.2 = phi i64 [bb1: 1:i64], [bb2: 2:i64]
  ret %x.2
}
|}
    ~expect:
      {|func @k(%c: i64) -> i64 {
bb0:
  %t.1 = cmp slt i64 %c.0, 0:i64
  condbr %t.1, bb3, bb2
bb2:
  br bb3
bb3:
  %x.2 = phi i64 [bb2: 2:i64], [bb0: 1:i64]
  ret %x.2
}
|}

(* Empty bb3 and bb5 forward into empty bb7 over two rounds (bb7 is
   touched by the first), then bb7 into the join bb8: the entries it
   carried are appended in predecessor order after the join's own. *)
let test_forward_chain_phi_order =
  pinned Simplify_cfg.pass ~stats:[]
    {|
func @k(%c: i64) -> i64 {
bb0:
  %t.1 = cmp slt i64 %c.0, 0:i64
  condbr %t.1, bb1, bb2
bb1:
  %u.2 = cmp slt i64 %c.0, 5:i64
  condbr %u.2, bb3, bb4
bb2:
  %v.3 = cmp slt i64 %c.0, 9:i64
  condbr %v.3, bb5, bb6
bb3:
  br bb7
bb4:
  %a.4 = add i64 %c.0, 1:i64
  br bb8
bb5:
  br bb7
bb6:
  %b.5 = add i64 %c.0, 2:i64
  br bb8
bb7:
  br bb8
bb8:
  %x.6 = phi i64 [bb7: 7:i64], [bb4: %a.4], [bb6: %b.5]
  ret %x.6
}
|}
    ~expect:
      {|func @k(%c: i64) -> i64 {
bb0:
  %t.1 = cmp slt i64 %c.0, 0:i64
  condbr %t.1, bb1, bb2
bb2:
  %v.3 = cmp slt i64 %c.0, 9:i64
  condbr %v.3, bb8, bb6
bb6:
  %b.5 = add i64 %c.0, 2:i64
  br bb8
bb1:
  %u.2 = cmp slt i64 %c.0, 5:i64
  condbr %u.2, bb8, bb4
bb4:
  %a.4 = add i64 %c.0, 1:i64
  br bb8
bb8:
  %x.6 = phi i64 [bb4: %a.4], [bb6: %b.5], [bb1: 7:i64], [bb2: 7:i64]
  ret %x.6
}
|}

(* Nine straight-line blocks: pairs merge per round (0+1, 2+3, 4+5, 6+7,
   then 0+2, 4+6, then 0+4, then 0+8), eight merges in all. *)
let test_merge_straight_line_chain =
  pinned Simplify_cfg.pass
    ~stats:[ ("simplifycfg.blocks_merged", 8) ]
    {|
func @k(%c: i64) -> i64 {
bb0:
  %a.1 = add i64 %c.0, 1:i64
  br bb1
bb1:
  %a.2 = mul i64 %a.1, 3:i64
  br bb2
bb2:
  %a.3 = add i64 %a.2, 5:i64
  br bb3
bb3:
  %a.4 = mul i64 %a.3, 7:i64
  br bb4
bb4:
  %a.5 = add i64 %a.4, 11:i64
  br bb5
bb5:
  %a.6 = mul i64 %a.5, 13:i64
  br bb6
bb6:
  %a.7 = add i64 %a.6, 17:i64
  br bb7
bb7:
  %a.8 = mul i64 %a.7, 19:i64
  br bb8
bb8:
  %a.9 = add i64 %a.8, 23:i64
  ret %a.9
}
|}
    ~expect:
      {|func @k(%c: i64) -> i64 {
bb0:
  %a.1 = add i64 %c.0, 1:i64
  %a.2 = mul i64 %a.1, 3:i64
  %a.3 = add i64 %a.2, 5:i64
  %a.4 = mul i64 %a.3, 7:i64
  %a.5 = add i64 %a.4, 11:i64
  %a.6 = mul i64 %a.5, 13:i64
  %a.7 = add i64 %a.6, 17:i64
  %a.8 = mul i64 %a.7, 19:i64
  %a.9 = add i64 %a.8, 23:i64
  ret %a.9
}
|}

(* The first diamond's join bb3 branches into the second diamond. bb0
   converts in the first round, which touches bb3; bb3 converts in the
   second, so its select is numbered after bb0's. *)
let test_if_convert_stacked_diamonds =
  pinned (If_convert.pass_with_threshold 12)
    ~stats:[ ("ifconvert.diamonds_converted", 2); ("ifconvert.selects_created", 2) ]
    {|
func @k(%c: i64) -> i64 {
bb0:
  %t.1 = cmp slt i64 %c.0, 0:i64
  condbr %t.1, bb1, bb2
bb1:
  %a.2 = add i64 %c.0, 1:i64
  br bb3
bb2:
  %b.3 = sub i64 %c.0, 1:i64
  br bb3
bb3:
  %p.4 = phi i64 [bb1: %a.2], [bb2: %b.3]
  %u.5 = cmp slt i64 %p.4, 4:i64
  condbr %u.5, bb4, bb5
bb4:
  %d.6 = mul i64 %p.4, 3:i64
  br bb6
bb5:
  %e.7 = add i64 %p.4, 9:i64
  br bb6
bb6:
  %q.8 = phi i64 [bb4: %d.6], [bb5: %e.7]
  ret %q.8
}
|}
    ~expect:
      {|func @k(%c: i64) -> i64 {
bb0:
  %t.1 = cmp slt i64 %c.0, 0:i64
  %a.2 = add i64 %c.0, 1:i64
  %b.3 = sub i64 %c.0, 1:i64
  %sel.9 = select i64 %t.1, %a.2, %b.3
  br bb3
bb3:
  %p.4 = phi i64 [bb0: %sel.9]
  %u.5 = cmp slt i64 %p.4, 4:i64
  %d.6 = mul i64 %p.4, 3:i64
  %e.7 = add i64 %p.4, 9:i64
  %sel.10 = select i64 %u.5, %d.6, %e.7
  br bb6
bb6:
  %q.8 = phi i64 [bb3: %sel.10]
  ret %q.8
}
|}

let test_if_convert_diamond () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int x) {
  int r = 0;
  if (x > 0) { r = x * 2; } else { r = x - 7; }
  out[0] = r;
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Simplify_cfg.pass; If_convert.pass; Simplify_cfg.pass ] fn);
  check int "one block after if-conversion" 1 (List.length (Func.labels fn));
  check int "one select" 1 (count is_select fn);
  let got = Ir_helpers.run_kernel ~elems:1 fn [ 5L ] in
  check Alcotest.int64 "true side" 10L got.(0);
  let got2 = Ir_helpers.run_kernel ~elems:1 fn [ -3L ] in
  check Alcotest.int64 "false side" (-10L) got2.(0)

let test_if_convert_skips_loads () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, const int* restrict a, int x) {
  int r = 0;
  if (x > 0) { r = a[x]; }
  out[0] = r;
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Simplify_cfg.pass; If_convert.pass ] fn);
  (* The load must not be speculated: branch remains. *)
  check bool "branch kept" true (List.length (Func.labels fn) > 1);
  check int "no select" 0 (count is_select fn)

let test_if_convert_threshold () =
  let src =
    {|
kernel k(float* restrict out, float x) {
  float r = 0.0;
  if (x > 0.0) {
    r = x / 2.0 + x / 3.0 + x / 4.0 + x / 5.0;
  }
  out[0] = r;
}
|}
  in
  let fn = Ir_helpers.compile_one src in
  ignore (Pass.exec [ Mem2reg.pass; Simplify_cfg.pass; If_convert.pass_with_threshold 4 ] fn);
  check bool "big side not converted at threshold 4" true (List.length (Func.labels fn) > 1);
  let fn2 = Ir_helpers.compile_one src in
  ignore (Pass.exec [ Mem2reg.pass; Simplify_cfg.pass; If_convert.pass_with_threshold 40 ] fn2);
  check bool "converted at threshold 40" true (count is_select fn2 > 0)

let test_baseline_full_unroll () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int x) {
  int acc = 0;
  int i = 0;
  while (i < 4) {
    acc = acc + x;
    i = i + 1;
  }
  out[0] = acc;
}
|}
  in
  ignore
    (Pass.exec
       [ Mem2reg.pass; Instcombine.pass; Simplify_cfg.pass;
         Unroll.baseline_full_unroll (); Sccp.pass;
         Pass.fixpoint "cleanup" [ Simplify_cfg.pass; Cond_prop.pass; Instcombine.pass; Gvn.pass; Sccp.pass; Dce.pass ] ]
       fn);
  let loops = Uu_analysis.Loops.loops (Uu_analysis.Loops.analyze fn) in
  check int "loop gone or straightened" 0 (List.length loops);
  let got = Ir_helpers.run_kernel ~elems:1 fn [ 5L ] in
  check Alcotest.int64 "4 * x" 20L got.(0)

let test_baseline_unroll_respects_pragma () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int x) {
  int acc = 0;
  int i = 0;
  #pragma nounroll
  while (i < 4) {
    acc = acc + x;
    i = i + 1;
  }
  out[0] = acc;
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Instcombine.pass; Simplify_cfg.pass; Unroll.baseline_full_unroll () ] fn);
  let loops = Uu_analysis.Loops.loops (Uu_analysis.Loops.analyze fn) in
  check int "pragma keeps the loop" 1 (List.length loops)

let test_licm_hoists () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int n, int a, int b) {
  int acc = 0;
  int i = 0;
  while (i < n) {
    acc = acc + (a * b + 7);
    i = i + 1;
  }
  out[0] = acc;
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Simplify_cfg.pass; Licm.pass ] fn);
  (* a*b+7 moved out: the loop blocks contain no multiply. *)
  let forest = Uu_analysis.Loops.analyze fn in
  let loop = List.hd (Uu_analysis.Loops.loops forest) in
  let muls_in_loop =
    Value.Label_set.fold
      (fun l acc ->
        acc
        + List.length
            (List.filter
               (function Instr.Binop { op = Instr.Mul; _ } -> true | _ -> false)
               (Func.block fn l).Block.instrs))
      loop.Uu_analysis.Loops.blocks 0
  in
  check int "invariant multiply hoisted" 0 muls_in_loop;
  let got = Ir_helpers.run_kernel ~elems:1 fn [ 6L; 3L; 4L ] in
  check Alcotest.int64 "semantics" (Int64.of_int (6 * ((3 * 4) + 7))) got.(0)

let test_licm_keeps_loads () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int* a, int n) {
  int acc = 0;
  int i = 0;
  while (i < n) {
    acc = acc + a[0];
    a[0] = acc;
    i = i + 1;
  }
  out[0] = acc;
}
|}
  in
  ignore (Pass.exec [ Mem2reg.pass; Simplify_cfg.pass; Licm.pass ] fn);
  let forest = Uu_analysis.Loops.analyze fn in
  let loop = List.hd (Uu_analysis.Loops.loops forest) in
  let loads_in_loop =
    Value.Label_set.fold
      (fun l acc ->
        acc
        + List.length
            (List.filter
               (function Instr.Load _ -> true | _ -> false)
               (Func.block fn l).Block.instrs))
      loop.Uu_analysis.Loops.blocks 0
  in
  check bool "load not hoisted past the store" true (loads_in_loop >= 1)

let test_loop_utils_canonicalize () =
  let fn, header = Ir_helpers.diamond_loop () in
  (match Loop_utils.canonicalize fn header with
  | None -> Alcotest.fail "loop lost"
  | Some { Loop_utils.loop; preheader; _ } ->
    check (Alcotest.option int) "preheader" (Some preheader)
      (Uu_analysis.Loops.preheader fn loop);
    List.iter
      (fun (_, s) ->
        let preds = Cfg.preds_of fn s in
        check bool "dedicated exit" true
          (List.for_all (fun p -> Value.Label_set.mem p loop.Uu_analysis.Loops.blocks) preds))
      loop.Uu_analysis.Loops.exits);
  Verifier.check_exn fn;
  Uu_analysis.Ssa_check.check_exn fn

(* LCSSA alone is an edit: a loop whose sum is read after the exit and
   which has nothing to hoist still gains an exit phi, so LICM must
   report a change (the manager verifies only changing passes). *)
let test_licm_reports_canonicalization () =
  let fn =
    Ir_helpers.compile_one
      {|
kernel k(int* restrict out, int n) {
  int tid = threadIdx.x;
  int s = 0;
  int i = 0;
  while (i < n) { s = s + i * tid; i = i + 1; }
  out[tid] = s;
}
|}
  in
  ignore (Pass.exec Uu_core.Pipelines.early_passes fn);
  let before = Printer.func_to_string fn in
  let report = Pass.exec [ Licm.pass ] fn in
  check bool "nothing hoisted" false
    (List.mem_assoc "licm.instrs_hoisted" report.Pass.stats);
  check bool "canonicalization edited the loop" true
    (Printer.func_to_string fn <> before);
  check bool "reported as a change" true report.Pass.changed;
  Pass.verify_now fn

(* Every analysis cached on a function must be what a fresh build gives.
   Each pipeline element runs in one [Pass.exec] with a checking pass
   after it, so the check reads the cache the element left behind;
   [Func.copy] caches nothing and serves as the fresh build. A fixpoint
   element hides its sub-passes, and a later sub-pass that moves the
   generation would mask a bump an earlier one missed, so after every
   element each cleanup pass also runs on its own, checked, over a copy
   of the function. These probes skip the IR checks: out of pipeline
   order they may leave phi entries from unreachable blocks, which the
   pipeline prunes before it verifies. *)
let analyses f =
  let module Loops = Uu_analysis.Loops in
  let dom = Uu_analysis.Dominance.compute f in
  ( List.map (fun l -> (l, Cfg.preds_of f l)) (Func.labels f),
    Cfg.reverse_postorder f,
    Value.Label_set.elements (Cfg.reachable f),
    List.map (fun l -> (l, Uu_analysis.Dominance.idom dom l)) (Func.labels f),
    List.map
      (fun (l : Loops.loop) ->
        ( (l.id, l.header, Value.Label_set.elements l.blocks, l.latches),
          (l.exits, l.parent, l.children, l.depth) ))
      (Loops.loops (Loops.analyze f)) )

(* No slot to promote, but mem2reg still deletes the unreachable bb1
   first, which it must report. *)
let unreachable_block_ir =
  {|
func @k(%out: i64*) -> void {
bb0.entry:
  br bb2
bb1:
  br bb2
bb2:
  ret
}
|}

(* The IR a pass that reports no change must leave as it found: labels,
   blocks (phis, instructions, terminator, hint), kept predecessor lists
   and the fresh-id counters. Compared structurally, not printed. *)
let same_ir f g =
  let labels = Func.labels f in
  labels = Func.labels g
  && List.for_all
       (fun l ->
         compare (Func.block f l) (Func.block g l) = 0 && Cfg.preds_of f l = Cfg.preds_of g l)
       labels
  && f.Func.next_var = g.Func.next_var
  && f.Func.next_label = g.Func.next_label

let test_analysis_cache_coherent () =
  let checker where =
    {
      Pass.name = "coherence";
      run =
        (fun f ->
          if analyses f <> analyses (Func.copy f) then
            Alcotest.failf "%s: cached analyses of @%s differ from a fresh build"
              where f.Func.name;
          false);
    }
  in
  let probes =
    [ Simplify_cfg.pass; Cond_prop.pass; Instcombine.pass; Gvn.pass; Sccp.pass;
      Dce.pass; Licm.pass; If_convert.pass; Dce.dead_load_pass ]
  in
  (* The clean rule trusts a no-change report, so each one is checked
     against a copy taken before the run. *)
  let honest where exec f =
    let before = Func.copy f in
    if not (exec f).Pass.changed && not (same_ir f before) then
      Alcotest.failf "%s: reported no change but changed @%s" where f.Func.name
  in
  let run_elements what f elements =
    List.iter
      (fun (p : Pass.t) ->
        let where = what ^ " after " ^ p.Pass.name in
        honest where (Pass.exec [ p; checker where ]) f;
        let g = Func.copy f in
        List.iter
          (fun (q : Pass.t) ->
            let where = where ^ ", then " ^ q.Pass.name in
            honest where (Pass.exec ~options:Pass.unverified [ q; checker where ]) g)
          probes)
      elements
  in
  let early = List.length Uu_core.Pipelines.early_passes in
  let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
  List.iter
    (fun (app : Uu_benchmarks.App.t) ->
      List.iter
        (fun (name, config, loop0) ->
          let m = Uu_frontend.Lower.compile ~name:app.name app.source in
          List.iter
            (fun f ->
              let what = app.name ^ "/" ^ name in
              run_elements what f Uu_core.Pipelines.early_passes;
              let targets =
                if not loop0 then Uu_core.Pipelines.All_loops
                else
                  Uu_core.Pipelines.Only
                    (List.filter_map
                       (fun (l : Uu_analysis.Loops.loop) ->
                         if l.id = 0 then Some l.header else None)
                       (Uu_analysis.Loops.loops (Uu_analysis.Loops.analyze f)))
              in
              run_elements what f
                (drop early (Uu_core.Pipelines.pipeline ~targets config)))
            m.Func.funcs)
        [
          ("baseline", Uu_core.Pipelines.Baseline, false);
          ("heuristic", Uu_core.Pipelines.Uu_heuristic, false);
          ("u&u-4 loop 0", Uu_core.Pipelines.Uu 4, true);
        ])
    Uu_benchmarks.Registry.all;
  List.iter
    (fun (what, ir) ->
      run_elements what (Parser_ir.parse_func ir)
        (Uu_core.Pipelines.pipeline Uu_core.Pipelines.Baseline))
    [ ("bool-use IR", bool_use_ir); ("unreachable-block IR", unreachable_block_ir) ]

let suite =
  [
    ("mem2reg promotes slots", `Quick, test_mem2reg_promotes);
    ("mem2reg preserves semantics", `Quick, test_mem2reg_semantics);
    ("sccp folds constant branch", `Quick, test_sccp_folds_branch);
    ("sccp meets equal phi constants", `Quick, test_sccp_through_phi);
    ("instcombine (a+b)-a", `Quick, test_instcombine_addsub);
    ("instcombine identities", `Quick, test_instcombine_identities);
    ("gvn CSE", `Quick, test_gvn_cse);
    ("gvn load elimination", `Quick, test_gvn_load_elimination);
    ("gvn store-to-load forwarding", `Quick, test_gvn_store_forwarding);
    ("gvn aliasing store kills", `Quick, test_gvn_store_kills);
    ("gvn restrict no-alias", `Quick, test_gvn_restrict_preserves);
    ("gvn barrier kills", `Quick, test_gvn_sync_kills);
    ("cond-prop same condition", `Quick, test_cond_prop_same_condition);
    ("cond-prop implication", `Quick, test_cond_prop_implication);
    ("cond-prop negation", `Quick, test_cond_prop_negation);
    ("cond-prop NaN-safe floats", `Quick, test_cond_prop_float_nan_safe);
    ("cond-prop reads predecessors as the pass found them", `Quick,
      test_cond_prop_reads_preds_at_entry);
    ("stale predecessor lists fail at the pass", `Quick, test_stale_preds_fail_at_the_pass);
    ("cond-prop reports boolean-use rewrites", `Quick, test_cond_prop_reports_bool_uses);
    ("clean rule skips passes that changed nothing", `Quick, test_clean_rule);
    ("clean rule state ends with its exec", `Quick, test_clean_rule_after_failure);
    ("dce keeps effects", `Quick, test_dce_keeps_effects);
    ("dce removes dead phi cycles", `Quick, test_dce_dead_phi_cycle);
    ("simplify-cfg folds constants", `Quick, test_simplify_cfg_folds);
    ("simplify-cfg forwards the lower label", `Quick, test_forward_lower_label_wins);
    ("simplify-cfg forward chain phi order", `Quick, test_forward_chain_phi_order);
    ("simplify-cfg merges a straight-line chain", `Quick, test_merge_straight_line_chain);
    ("if-convert stacked diamonds", `Quick, test_if_convert_stacked_diamonds);
    ("if-convert diamond", `Quick, test_if_convert_diamond);
    ("if-convert never speculates loads", `Quick, test_if_convert_skips_loads);
    ("if-convert threshold", `Quick, test_if_convert_threshold);
    ("baseline full unroll", `Quick, test_baseline_full_unroll);
    ("baseline unroll respects pragma", `Quick, test_baseline_unroll_respects_pragma);
    ("licm hoists invariants", `Quick, test_licm_hoists);
    ("licm never hoists loads", `Quick, test_licm_keeps_loads);
    ("loop canonicalization", `Quick, test_loop_utils_canonicalize);
    ("licm reports canonicalization", `Quick, test_licm_reports_canonicalization);
    ("analysis cache matches a fresh build", `Slow, test_analysis_cache_coherent);
  ]
