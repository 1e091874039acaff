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
  timeout : float option;
}

let default_options = { verify = true; remarks = None; timeout = None }

let options ?(verify = true) ?remarks ?timeout () = { verify; remarks; timeout }

let unverified = { default_options with verify = false }

exception Timeout of { pipeline : string; elapsed : float; budget : float }

let () =
  Printexc.register_printer (function
    | Timeout { pipeline; elapsed; budget } ->
      Some
        (Printf.sprintf "Pass.Timeout(%s: %.2fs elapsed, %.2fs budget)" pipeline
           elapsed budget)
    | _ -> None)

let verify_now f =
  Verifier.check_exn f;
  Uu_analysis.Ssa_check.check_exn f

let run_one pass f =
  try pass.run f with
  | Timeout _ as e -> raise e
  | e ->
    failwith
      (Printf.sprintf "pass %s raised on @%s: %s" pass.name f.Func.name
         (Printexc.to_string e))

let exec ?(options = default_options) passes f =
  let { verify; remarks; timeout } = options in
  let t_start = Clock.now () in
  let deadline = Option.map (fun budget -> t_start +. budget) timeout in
  let before = Statistic.snapshot () in
  let run pass (work, changed) =
    (match deadline with
    | Some d when Clock.now () > d ->
      let budget = match timeout with Some b -> b | None -> 0.0 in
      raise
        (Timeout { pipeline = pass.name; elapsed = Clock.now () -. t_start; budget })
    | _ -> ());
    let c = run_one pass f in
    if verify && c then begin
      try verify_now f
      with Failure msg -> failwith (Printf.sprintf "after pass %s: %s" pass.name msg)
    end;
    (* Deterministic compile-cost metric: the instructions this pass
       just walked. Unlike wall-clock time it is identical across
       machines, domains, and reruns, so downstream consumers (the
       harness's compile-time ratios) stay reproducible. *)
    (work + Func.instr_count f, changed || c)
  in
  let body () =
    Func.with_analyses f (fun () -> List.fold_left (fun acc p -> run p acc) (0, false) passes)
  in
  let work, changed =
    match remarks with Some sink -> Remark.with_sink sink body | None -> body ()
  in
  { work; changed; stats = Statistic.diff ~before ~after:(Statistic.snapshot ()) }

(* Passes are deterministic, so a pass that just changed nothing would
   change nothing again on the same IR. [clean.(i)] holds while pass
   [i]'s last run changed nothing and no pass has changed [f] since; such
   a pass is skipped. Skipping leaves every round's outcome, and so the
   round count, as it was. *)
let fixpoint ?(max_rounds = 8) name passes =
  let passes = Array.of_list passes in
  let run f =
    let clean = Array.make (Array.length passes) false in
    let rec go round any =
      if round >= max_rounds then any
      else begin
        let changed = ref false in
        Array.iteri
          (fun i pass ->
            if not clean.(i) then
              if run_one pass f then begin
                Array.fill clean 0 (Array.length clean) false;
                changed := true
              end
              else clean.(i) <- true)
          passes;
        if !changed then go (round + 1) true else any
      end
    in
    go 0 false
  in
  { name; run }
