(* Registry: dotted name -> mutable count, like LLVM's STATISTIC globals.

   The registry is domain-local (one table per domain) so that parallel
   experiment jobs — each of which runs entirely on one domain — can
   snapshot/diff their own compilation's counters without seeing
   increments from jobs running concurrently on other domains. Counter
   handles are just the registered name; [incr] resolves the handle in
   the current domain's table, so handles created at module-init time on
   the main domain work unchanged inside workers. *)

type t = string

let registry_key : (string, int ref) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let cell name =
  let registry = Domain.DLS.get registry_key in
  match Hashtbl.find_opt registry name with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.replace registry name r;
    r

let counter name =
  ignore (cell name);
  name

let incr ?(by = 1) c =
  let r = cell c in
  r := !r + by

let value c = !(cell c)
let name c = c

let snapshot () =
  Hashtbl.fold
    (fun name r acc -> (name, !r) :: acc)
    (Domain.DLS.get registry_key) []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let diff ~before ~after =
  List.filter_map
    (fun (name, v) ->
      let prev = match List.assoc_opt name before with Some p -> p | None -> 0 in
      if v > prev then Some (name, v - prev) else None)
    after

let merge a b =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun (name, v) ->
      let cur = match Hashtbl.find_opt tbl name with Some c -> c | None -> 0 in
      Hashtbl.replace tbl name (cur + v))
    (a @ b);
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let render stats =
  match stats with
  | [] -> "(no statistics collected)\n"
  | _ :: _ ->
    let width =
      List.fold_left (fun acc (n, _) -> max acc (String.length n)) 0 stats
    in
    String.concat ""
      (List.map
         (fun (n, v) ->
           Printf.sprintf "%s%s  %d\n" n (String.make (width - String.length n) ' ') v)
         stats)
