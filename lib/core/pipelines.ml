open Uu_ir
open Uu_opt

type config =
  | Baseline
  | Unroll of int
  | Unmerge
  | Uu of int
  | Uu_heuristic
  | Uu_heuristic_divergence
  | Uu_selective of int

(* Bumped whenever the pipeline's behaviour changes in a way that
   invalidates previously measured results; part of every result-cache
   key, so stale cache entries are simply never looked up again. *)
let version = "2"

let config_name = function
  | Baseline -> "baseline"
  | Unroll u -> Printf.sprintf "unroll-%d" u
  | Unmerge -> "unmerge"
  | Uu u -> Printf.sprintf "u&u-%d" u
  | Uu_heuristic -> "u&u-heuristic"
  | Uu_heuristic_divergence -> "u&u-heuristic+div"
  | Uu_selective u -> Printf.sprintf "u&u-selective-%d" u

let config_to_string = config_name

(* Accepts the canonical [config_name] spelling plus the historical CLI
   aliases (uu, heuristic, ...), with an optional -N or :N factor suffix
   on the factor-carrying configurations. *)
let config_of_string ?(default_factor = 2) s =
  let s = String.trim s in
  let split_factor prefix =
    (* "prefix", "prefix-N", or "prefix:N" -> Some factor *)
    let pl = String.length prefix and sl = String.length s in
    if sl < pl || String.sub s 0 pl <> prefix then None
    else if sl = pl then Some default_factor
    else if (s.[pl] = '-' || s.[pl] = ':') && sl > pl + 1 then
      int_of_string_opt (String.sub s (pl + 1) (sl - pl - 1))
    else None
  in
  let first_some options =
    List.fold_left
      (fun acc (prefix, make) ->
        match acc with
        | Some _ -> acc
        | None -> Option.map make (split_factor prefix))
      None options
  in
  match s with
  | "baseline" -> Ok Baseline
  | "unmerge" -> Ok Unmerge
  | "heuristic" | "u&u-heuristic" | "uu-heuristic" -> Ok Uu_heuristic
  | "heuristic-div" | "u&u-heuristic+div" | "uu-heuristic-div" ->
    Ok Uu_heuristic_divergence
  | _ -> (
    (* Longest prefixes first so "uu-selective-4" is not read as Uu. *)
    match
      first_some
        [
          ("u&u-selective", fun u -> Uu_selective u);
          ("uu-selective", fun u -> Uu_selective u);
          ("unroll", fun u -> Unroll u);
          ("u&u", fun u -> Uu u);
          ("uu", fun u -> Uu u);
        ]
    with
    | Some c -> Ok c
    | None ->
      Error
        (Printf.sprintf
           "unknown config %s (expected baseline|unroll[-N]|unmerge|uu[-N]|uu-selective[-N]|heuristic|heuristic-div)"
           s))

let all_standard =
  [ Baseline; Unroll 2; Unroll 4; Unroll 8; Unmerge; Uu 2; Uu 4; Uu 8; Uu_heuristic ]

type targets =
  | All_loops
  | Only of Value.label list

(* Early phase: get into clean SSA before the structural transform. *)
let early = [ Mem2reg.pass; Instcombine.pass; Simplify_cfg.pass; Dce.pass ]

let early_passes = early

(* The structural transform under evaluation, inserted early in the
   pipeline to maximize subsequent optimization (SIV-B). *)
let uu_all_pass ?(selective = false) ~factor () =
  {
    Pass.name = (if factor = 1 then "unmerge-all" else Printf.sprintf "uu-all-x%d" factor);
    run =
      (fun f ->
        let forest = Uu_analysis.Loops.analyze f in
        List.fold_left
          (fun changed (l : Uu_analysis.Loops.loop) ->
            let o = Uu.uu_loop ~selective f ~header:l.header ~factor in
            o.Uu.edited || changed)
          false
          (Uu_analysis.Loops.innermost_first forest));
  }

let transform ~targets config =
  match config with
  | Baseline -> []
  | Unroll u -> (
    match targets with
    | All_loops -> [ Unroll.unroll_only_pass ~factor:u ~headers:[] ]
    | Only [] -> []
    | Only hs -> [ Unroll.unroll_only_pass ~factor:u ~headers:hs ])
  | Unmerge -> (
    match targets with
    | All_loops -> [ uu_all_pass ~factor:1 () ]
    | Only [] -> []
    | Only hs -> [ Uu.uu_pass ~headers:(List.map (fun h -> (h, 1)) hs) () ])
  | Uu u -> (
    match targets with
    | All_loops -> [ uu_all_pass ~factor:u () ]
    | Only [] -> []
    | Only hs -> [ Uu.uu_pass ~headers:(List.map (fun h -> (h, u)) hs) () ])
  | Uu_selective u -> (
    match targets with
    | All_loops -> [ uu_all_pass ~selective:true ~factor:u () ]
    | Only [] -> []
    | Only hs ->
      [ { Pass.name = Printf.sprintf "uu-selective-x%d" u;
          run =
            (fun f ->
              List.fold_left
                (fun changed h ->
                  let o = Uu.uu_loop ~selective:true f ~header:h ~factor:u in
                  o.Uu.edited || changed)
                false hs);
        } ])
  | Uu_heuristic -> [ Uu.heuristic_pass Uu.default_params ]
  | Uu_heuristic_divergence ->
    [ Uu.heuristic_pass { Uu.default_params with Uu.avoid_divergent = true } ]

(* Late phase: the "subsequent optimizations" the transform enables, then
   baseline unrolling and backend-style predication, then final cleanup. *)
let late =
  [
    Sccp.pass;
    Licm.pass;
    Pass.fixpoint "cleanup"
      [ Simplify_cfg.pass; Cond_prop.pass; Instcombine.pass; Gvn.pass; Sccp.pass; Dce.pass ];
    Unroll.baseline_full_unroll ();
    Pass.fixpoint "cleanup-post-unroll"
      [ Simplify_cfg.pass; Cond_prop.pass; Instcombine.pass; Gvn.pass; Sccp.pass; Dce.pass ];
    If_convert.pass_with_threshold 12;
    Pass.fixpoint "cleanup-final"
      [ Simplify_cfg.pass; Instcombine.pass; Gvn.pass; Dce.pass ];
    Dce.dead_load_pass;
    Simplify_cfg.pass;
  ]

let pipeline ?(targets = All_loops) config =
  early @ transform ~targets config @ late

let optimize ?(targets = All_loops) ?options config f =
  Pass.exec ?options (pipeline ~targets config) f
