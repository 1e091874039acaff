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

(* Run [passes] once, in order: the loop behind [exec] and each round of
   a [fixpoint]. Returns the instructions walked and whether any pass
   changed [f]. *)
let run_passes ~verify ~budget ~deadline passes f =
  let changed = ref false in
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
      let c =
        try pass.run f
        with
        | Timeout _ as e -> raise e
        | e ->
          failwith
            (Printf.sprintf "pass %s raised on @%s: %s" pass.name f.Func.name
               (Printexc.to_string e))
      in
      (* Deterministic compile-cost metric: the instructions this pass
         just walked. Unlike wall-clock time it is identical across
         machines, domains, and reruns, so downstream consumers (the
         harness's compile-time ratios) stay reproducible. *)
      work := !work + Func.instr_count f;
      if c then changed := true;
      if verify && c then
        try verify_now f
        with Failure msg ->
          failwith (Printf.sprintf "after pass %s: %s" pass.name msg))
    passes;
  (!work, !changed)

let exec ?(options = default_options) passes f =
  let { verify; remarks; timeout } = options in
  let deadline = Option.map (fun budget -> Clock.now () +. budget) timeout in
  let before = Statistic.snapshot () in
  let body () = run_passes ~verify ~budget:timeout ~deadline passes f in
  let work, changed =
    match remarks with Some sink -> Remark.with_sink sink body | None -> body ()
  in
  { work; changed; stats = Statistic.diff ~before ~after:(Statistic.snapshot ()) }

let fixpoint ?(max_rounds = 8) name passes =
  let run f =
    let rec go round any =
      if round >= max_rounds then any
      else begin
        let _, changed = run_passes ~verify:false ~budget:None ~deadline:None passes f in
        if changed then go (round + 1) true else any
      end
    in
    go 0 false
  in
  { name; run }
