(* Nearest-rank percentiles, in per-mille so the rank arithmetic stays in
   integers ([990] is p99). A percentile is only reported when at least
   [min_beyond] samples lie above it: below that, it describes a handful of
   outliers rather than a tail. *)

let min_beyond = 10

(* 1-based nearest rank of per-mille [pm] among [n] samples *)
let rank ~n pm = max 1 (((pm * n) + 999) / 1000)
let beyond ~n pm = n - rank ~n pm
let supported ~n pm = n > 0 && beyond ~n pm >= min_beyond

let sorted samples =
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a

let at samples pm =
  let n = Array.length samples in
  if supported ~n pm then Some (sorted samples).(rank ~n pm - 1) else None

(* Candidate tails, highest first. *)
let tails = [ 999; 990; 950; 900; 750; 500 ]

let highest samples =
  let n = Array.length samples in
  match List.find_opt (supported ~n) tails with
  | None -> None
  | Some pm -> Option.map (fun v -> (pm, v)) (at samples pm)

let name pm =
  if pm mod 10 = 0 then Printf.sprintf "p%d" (pm / 10)
  else Printf.sprintf "p%d.%d" (pm / 10) (pm mod 10)

let median samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then invalid_arg "Pctl.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
