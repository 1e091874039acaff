open Uu_support
open Uu_ir

type t = { name : string; run : Func.t -> bool }

type report = {
  work : int;
  changed : bool;
  stats : (string * int) list;
}

type options = {
  verify : bool;
  remarks : Remark.sink option;
}

let default_options = { verify = true; remarks = None }

let options ?(verify = true) ?remarks () = { verify; remarks }

let unverified = { default_options with verify = false }

let verify_now f =
  Verifier.check_exn f;
  Uu_analysis.Ssa_check.check_exn f

let run_one pass f =
  try pass.run f
  with e ->
    failwith
      (Printf.sprintf "pass %s raised on @%s: %s" pass.name f.Func.name
         (Printexc.to_string e))

(* The clean rule. Passes are deterministic and their reports honest, so
   a pass that just reported no change would report none again on the
   same IR: within one [exec], such a pass is skipped until some pass
   reports a change. Passes are told apart by identity, since one value
   (simplify-cfg, say) recurs across the pipeline. [epoch] counts the
   reported changes and [clean] holds the passes that reported none
   since the last. A composite reporting a change its sub-passes already
   counted adds none, so the sub-passes that ran clean since stay so. *)
type clean = { mutable epoch : int; mutable clean : t list }

(* The running [exec]'s state, domain-local like the remark sink. *)
let clean_key : clean option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_clean_state body =
  let outer = Domain.DLS.get clean_key in
  let st = { epoch = 0; clean = [] } in
  Domain.DLS.set clean_key (Some st);
  Fun.protect ~finally:(fun () -> Domain.DLS.set clean_key outer) (fun () -> body st)

(* Run [pass] unless the rule skips it; true when it reported a change. *)
let step st pass f =
  if List.memq pass st.clean then false
  else begin
    let epoch = st.epoch in
    let changed = run_one pass f in
    if not changed then st.clean <- pass :: st.clean
    else if st.epoch = epoch then begin
      st.epoch <- epoch + 1;
      st.clean <- []
    end;
    changed
  end

let exec ?(options = default_options) passes f =
  let { verify; remarks } = options in
  let before = Statistic.snapshot () in
  let run st (work, changed) pass =
    let c = step st pass f in
    if verify && c then begin
      try verify_now f
      with Failure msg -> failwith (Printf.sprintf "after pass %s: %s" pass.name msg)
    end;
    (* Deterministic compile-cost metric: the instructions this pass
       just walked, counted whether it ran or was skipped. Unlike
       wall-clock time it is identical across machines, domains, and
       reruns, so downstream consumers (the harness's compile-time
       ratios) stay reproducible. *)
    (work + Func.instr_count f, changed || c)
  in
  let body () =
    with_clean_state (fun st ->
        Func.with_analyses f (fun () -> List.fold_left (run st) (0, false) passes))
  in
  let work, changed =
    match remarks with Some sink -> Remark.with_sink sink body | None -> body ()
  in
  { work; changed; stats = Statistic.diff ~before ~after:(Statistic.snapshot ()) }

(* Rounds run under the enclosing [exec]'s clean rule, or under one of
   their own outside any [exec]. Skipping leaves every round's outcome,
   and so the round count, as it was. *)
let fixpoint ?(max_rounds = 8) name passes =
  let rounds st f =
    let rec go round any =
      if round >= max_rounds then any
      else
        let changed = List.fold_left (fun changed p -> step st p f || changed) false passes in
        if changed then go (round + 1) true else any
    in
    go 0 false
  in
  let run f =
    match Domain.DLS.get clean_key with
    | Some st -> rounds st f
    | None -> with_clean_state (fun st -> rounds st f)
  in
  { name; run }
