open Uu_support
module Request = Uu_serve.Request
module Response = Uu_serve.Response

type protocol = Request.protocol = Once | Noisy of { runs : int }

type job = {
  request : Request.t;
  target : Runner.loop_ref option;
}

let job ?target ?protocol app config =
  { request = Runner.schedule_request ?protocol ?target app config; target }

let label j =
  let r = j.request in
  let base =
    Printf.sprintf "%s/%s" (Request.source_name r.source)
      (Uu_core.Pipelines.config_to_string r.config)
  in
  match (r.kernel, r.loop) with
  | Some k, Some id -> Printf.sprintf "%s@%s#%d" base k id
  | _ -> base

let key j = Request.key j.request
let noise_seed = Request.noise_seed

type failure = {
  job_label : string;
  job_key : string;
  message : string;
}

type result = {
  rjob : job;
  outcome : (Response.ok, failure) Stdlib.result;
  from_cache : bool;
}

(* A hit counts only under the rule the daemon applies too
   ([Response.of_cached]). The cache hands back only bytes that pass its
   digest check; bytes that still fail the rule are well-formed wrong
   text (another writer of the directory), dropped like a torn entry so
   the job recomputes and stores a good one. *)
let lookup cache ~key =
  match Result_cache.lookup_raw cache ~key with
  | None -> None
  | Some text ->
    let ok = Response.of_cached text in
    if Option.is_none ok then Result_cache.reject cache ~key;
    ok

(* One pool task per compile key: the group's first request compiles,
   and every request of the group, in order, reuses that module and its
   warm decode cache on this one domain. The module is dropped when the
   task returns. *)
let answer_group ?engine ~compile ~sim_jobs arr members =
  let compiled = ref None in
  let compile r =
    match !compiled with
    | Some c -> c
    | None ->
      let c = compile r in
      compiled := Some c;
      c
  in
  List.map
    (fun i ->
      let j = arr.(i) in
      let engine = Option.value engine ~default:j.request.engine in
      (i, Runner.run_request ~compile { j.request with engine; sim_jobs = Some sim_jobs }))
    members

let run_all ?jobs ?sim_jobs ?cache ?engine ?(compile = Runner.compile_request) job_list =
  let arr = Array.of_list job_list in
  let keys = Array.map key arr in
  (* Cache I/O stays on the calling domain: probe everything up front,
     fan only the real work out to the pool, store new results in input
     order after the pool has been joined. A request [Request.check]
     refuses is never looked up: its answer is that [Error]. *)
  let cached =
    Array.mapi
      (fun i k ->
        match (cache, Request.check arr.(i).request) with
        | Some c, Ok () -> lookup c ~key:k
        | None, _ | _, Error _ -> None)
      keys
  in
  (* The misses, grouped by compile key in first-appearance order, then
     stably by u&u factor, largest first: those compiles are the long
     jobs, so they start before the short ones instead of ending the
     batch. *)
  let uu_factor members =
    match arr.(List.hd members).request.config with
    | Uu_core.Pipelines.Uu u -> u
    | Baseline | Unroll _ | Unmerge | Uu_heuristic | Uu_heuristic_divergence
    | Uu_selective _ | Unmerge_then_unroll _ | Dbds ->
      0
  in
  let groups =
    let by_key = Hashtbl.create 64 in
    let order = ref [] in
    Array.iteri
      (fun i j ->
        if Option.is_none cached.(i) then
          let ck = Request.compile_key j.request in
          match Hashtbl.find_opt by_key ck with
          | Some members -> Hashtbl.replace by_key ck (i :: members)
          | None ->
            Hashtbl.add by_key ck [ i ];
            order := ck :: !order)
      arr;
    List.rev_map (fun ck -> List.rev (Hashtbl.find by_key ck)) !order
    |> List.stable_sort (fun a b -> compare (uu_factor b) (uu_factor a))
  in
  let sim_jobs =
    match sim_jobs with
    | Some n -> max 1 n
    | None ->
      (* Core-budget split: the job pool occupies min(pool, #groups)
         domains, and each group's intra-launch shard gets an equal
         share of the rest. A full queue (a cold sweep) runs its
         requests serially inside (sim_jobs = 1); a single group (an
         interactive Table I row, a warm rerun with one miss) gets every
         core. *)
      let avail = Parallel.available_domains () in
      let pool = match jobs with Some j -> max 1 j | None -> avail in
      let workers = max 1 (min pool (List.length groups)) in
      max 1 (avail / workers)
  in
  let fresh = Array.make (Array.length arr) None in
  List.iter
    (List.iter (fun (i, response) -> fresh.(i) <- Some response))
    (Parallel.map ?jobs (answer_group ?engine ~compile ~sim_jobs arr) groups);
  List.mapi
    (fun i j ->
      let outcome, from_cache =
        match (cached.(i), fresh.(i)) with
        | Some ok, _ -> (Ok ok, true)
        | None, Some (Ok ok as response) ->
          Option.iter
            (fun c -> Result_cache.store_raw c ~key:keys.(i) (Response.to_string response))
            cache;
          (Ok ok, false)
        | None, Some (Error message) ->
          (Error { job_label = label j; job_key = keys.(i); message }, false)
        | None, None -> assert false
      in
      { rjob = j; outcome; from_cache })
    job_list

let measurements_exn r =
  match r.outcome with
  | Ok ok -> Runner.measurements ok
  | Error f ->
    failwith (Printf.sprintf "job %s failed: %s" f.job_label f.message)
