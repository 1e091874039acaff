open Uu_ir
open Uu_analysis

type label = Unknown | Known_true | Known_false

type report = {
  conditions : string list;
  per_block : (Value.label * label array) list;
}

(* A stable description of a comparison site that survives duplication:
   copies of the same source condition keep their operands' name hints. *)
let operand_key f v =
  match v with
  | Value.Var x -> (
    match Func.var_hint f x with Some h -> h | None -> "_")
  | Value.Imm_int (n, _) -> Int64.to_string n
  | Value.Imm_float x -> string_of_float x
  | Value.Undef _ -> "undef"

let cmp_key f (op : Instr.cmpop) lhs rhs =
  Format.asprintf "%a(%s,%s)" Instr.pp_cmpop op (operand_key f lhs)
    (operand_key f rhs)

let analyze f =
  (* Map each i1 register to its condition column. *)
  let key_of_var : (Value.var, string) Hashtbl.t = Hashtbl.create 32 in
  let columns = ref [] in
  Func.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match i with
          | Instr.Cmp { dst; op; lhs; rhs; _ } ->
            let key = cmp_key f op lhs rhs in
            Hashtbl.replace key_of_var dst key;
            if not (List.mem key !columns) then columns := key :: !columns
          | _ -> ())
        b.Block.instrs)
    f;
  let conditions = List.rev !columns in
  let index key =
    let rec find i = function
      | [] -> None
      | k :: _ when k = key -> Some i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 conditions
  in
  let ncols = List.length conditions in
  let dom = Dominance.compute f in
  let per_block = ref [] in
  let rec walk blk (env : label array) =
    per_block := (blk, Array.copy env) :: !per_block;
    let b = Func.block f blk in
    List.iter
      (fun child ->
        let child_env =
          match Cfg.preds_of f child with
          | [ p ] when p = blk -> (
            match b.Block.term with
            | Instr.Cond_br { cond = Value.Var c; if_true; if_false }
              when if_true <> if_false -> (
              match Hashtbl.find_opt key_of_var c with
              | Some key -> (
                match index key with
                | Some col ->
                  let env' = Array.copy env in
                  if child = if_true then env'.(col) <- Known_true
                  else if child = if_false then env'.(col) <- Known_false;
                  env'
                | None -> env)
              | None -> env)
            | Instr.Cond_br _ | Instr.Br _ | Instr.Ret _ | Instr.Unreachable -> env)
          | _ -> env
        in
        walk child child_env)
      (Dominance.children dom blk)
  in
  walk f.Func.entry (Array.make ncols Unknown);
  { conditions; per_block = List.sort compare (List.rev !per_block) }

let label_string labels =
  String.concat ""
    (Array.to_list
       (Array.map
          (function Unknown -> "X" | Known_true -> "T" | Known_false -> "F")
          labels))

let render f report =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "conditions:\n";
  List.iteri
    (fun i key -> Buffer.add_string buf (Printf.sprintf "  [%d] %s\n" i key))
    report.conditions;
  Buffer.add_string buf "provenance (entering each block):\n";
  List.iter
    (fun (blk, labels) ->
      Buffer.add_string buf
        (Format.asprintf "  %a: %s\n" (Printer.pp_label f) blk (label_string labels)))
    report.per_block;
  Buffer.contents buf
