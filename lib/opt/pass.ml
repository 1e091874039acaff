open Uu_support
open Uu_ir

type t = { name : string; run : Func.t -> bool }

type report = {
  pass_times : (string * float) list;
  total_time : float;
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

(* [deadline] is an absolute [Clock.now] instant shared across the
   functions of a module run, so the budget covers the whole pipeline. *)
let run_passes ~verify ~budget ~deadline passes f =
  let changed = ref false in
  let times = ref [] in
  let work = ref 0 in
  let t_start = Clock.now () in
  List.iter
    (fun pass ->
      (match deadline with
      | Some d when Clock.now () > d ->
        let budget = match budget with Some b -> b | None -> 0.0 in
        raise
          (Timeout
             { pipeline = pass.name; elapsed = Clock.now () -. t_start; budget })
      | _ -> ());
      let t0 = Clock.now () in
      let c =
        try pass.run f
        with
        | Timeout _ as e -> raise e
        | e ->
          failwith
            (Printf.sprintf "pass %s raised on @%s: %s" pass.name f.Func.name
               (Printexc.to_string e))
      in
      let dt = Clock.now () -. t0 in
      times := (pass.name, dt) :: !times;
      (* Deterministic compile-cost metric: the instructions this pass
         just walked. Unlike the wall-clock times it is identical across
         machines, domains, and reruns, so downstream consumers (the
         harness's compile-time ratios) stay reproducible. *)
      work := !work + Func.instr_count f;
      if c then changed := true;
      if verify && c then
        try verify_now f
        with Failure msg ->
          failwith (Printf.sprintf "after pass %s: %s" pass.name msg))
    passes;
  (List.rev !times, Clock.now () -. t_start, !work, !changed)

let exec_with_deadline ~options:{ verify; remarks; timeout } ~deadline passes f =
  let deadline =
    match (deadline, timeout) with
    | Some d, _ -> Some d
    | None, Some budget -> Some (Clock.now () +. budget)
    | None, None -> None
  in
  let before = Statistic.snapshot () in
  let body () = run_passes ~verify ~budget:timeout ~deadline passes f in
  let pass_times, total_time, work, changed =
    match remarks with Some sink -> Remark.with_sink sink body | None -> body ()
  in
  {
    pass_times;
    total_time;
    work;
    changed;
    stats = Statistic.diff ~before ~after:(Statistic.snapshot ());
  }

let exec ?(options = default_options) passes f =
  exec_with_deadline ~options ~deadline:None passes f

let exec_module ?(options = default_options) passes m =
  let deadline =
    Option.map (fun budget -> Clock.now () +. budget) options.timeout
  in
  let reports =
    List.map (fun f -> exec_with_deadline ~options ~deadline passes f) m.Func.funcs
  in
  {
    pass_times = List.concat_map (fun r -> r.pass_times) reports;
    total_time = List.fold_left (fun acc r -> acc +. r.total_time) 0.0 reports;
    work = List.fold_left (fun acc r -> acc + r.work) 0 reports;
    changed = List.exists (fun r -> r.changed) reports;
    stats = List.fold_left (fun acc r -> Statistic.merge acc r.stats) [] reports;
  }

let fixpoint ?(max_rounds = 8) name passes =
  let run f =
    let rec go round any =
      if round >= max_rounds then any
      else begin
        let r = exec ~options:unverified passes f in
        if r.changed then go (round + 1) true else any
      end
    in
    go 0 false
  in
  { name; run }
