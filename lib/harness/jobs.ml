open Uu_support
module Request = Uu_serve.Request
module Response = Uu_serve.Response

type protocol = Request.protocol = Once | Noisy of { runs : int }

type job = {
  request : Request.t;
  target : Runner.loop_ref option;
  custom : (unit -> Runner.compiled) option;
}

let job ?target ?protocol app config =
  { request = Runner.schedule_request ?protocol ?target app config; target; custom = None }

let custom ~name ~compile ?protocol app config =
  {
    request = { (Runner.schedule_request ?protocol app config) with variant = Some name };
    target = None;
    custom = Some compile;
  }

let label j =
  let r = j.request in
  let base =
    Printf.sprintf "%s/%s" (Request.source_name r.source)
      (match r.variant with
      | Some name -> name
      | None -> Uu_core.Pipelines.config_to_string r.config)
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
  attempts : int;
}

type result = {
  rjob : job;
  rkey : string;
  outcome : (Response.ok, failure) Stdlib.result;
  from_cache : bool;
}

(* One attempt: the job's request through the funnel, compiled by the
   pipeline under the job's budget or by its hand-built variant. *)
let attempt ?timeout ?engine ~sim_jobs j =
  let compile =
    match j.custom with
    | None -> Runner.compile_request ?timeout
    | Some build -> fun _ -> Ok (build ())
  in
  let r =
    {
      j.request with
      engine = Option.value engine ~default:j.request.engine;
      sim_jobs = Some sim_jobs;
    }
  in
  try Runner.run_request ~compile r with e -> Error (Printexc.to_string e)

let execute ?timeout ?engine ~sim_jobs ~retries j jkey =
  let rec go n =
    match attempt ?timeout ?engine ~sim_jobs j with
    | Ok ok -> Ok ok
    | Error message ->
      if n <= retries then go (n + 1)
      else Error { job_label = label j; job_key = jkey; message; attempts = n }
  in
  go 1

(* A cached entry is the [Response.to_string] text of an [Ok] response.
   The cache hands back only bytes that pass its digest check; bytes that
   still do not decode to an [Ok] response are well-formed wrong text
   (another writer of the directory), dropped like a torn entry so the
   job recomputes and stores a good one. *)
let lookup cache ~key =
  match Result_cache.lookup_raw cache ~key with
  | None -> None
  | Some text -> (
    match Response.of_string text with
    | Ok (Ok ok) -> Some ok
    | Ok (Error _) | Error _ ->
      Result_cache.reject cache ~key;
      None)

let run_all ?jobs ?sim_jobs ?cache ?timeout ?engine ?(retries = 1) job_list =
  let arr = Array.of_list job_list in
  let keys = Array.map key arr in
  (* Cache I/O stays on the calling domain: probe everything up front,
     fan only the real work out to the pool, store new results after the
     pool has been joined. *)
  let cached =
    Array.map (fun k -> Option.bind cache (fun c -> lookup c ~key:k)) keys
  in
  let todo =
    List.filter (fun i -> Option.is_none cached.(i)) (List.init (Array.length arr) Fun.id)
  in
  let sim_jobs =
    match sim_jobs with
    | Some n -> max 1 n
    | None ->
      (* Core-budget split: the job pool occupies min(pool, #todo)
         domains, and each job's intra-launch shard gets an equal share
         of the rest. A full queue (a cold sweep) runs jobs serially
         inside (sim_jobs = 1); a single job (an interactive Table I
         row, a warm rerun with one miss) gets every core. *)
      let avail = Parallel.available_domains () in
      let pool = match jobs with Some j -> max 1 j | None -> avail in
      let workers = max 1 (min pool (List.length todo)) in
      max 1 (avail / workers)
  in
  let executed =
    Parallel.map ?jobs
      (fun i -> (i, execute ?timeout ?engine ~sim_jobs ~retries arr.(i) keys.(i)))
      todo
  in
  let outcomes = Array.map (Option.map (fun ok -> (Ok ok, true))) cached in
  List.iter
    (fun (i, outcome) ->
      (match (outcome, cache) with
      | Ok ok, Some c -> Result_cache.store_raw c ~key:keys.(i) (Response.to_string (Ok ok))
      | _ -> ());
      outcomes.(i) <- Some (outcome, false))
    executed;
  List.mapi
    (fun i j ->
      match outcomes.(i) with
      | Some (outcome, from_cache) -> { rjob = j; rkey = keys.(i); outcome; from_cache }
      | None -> assert false)
    job_list

let measurements_exn r =
  match r.outcome with
  | Ok ok -> Runner.measurements ok
  | Error f ->
    failwith
      (Printf.sprintf "job %s failed after %d attempts: %s" f.job_label f.attempts
         f.message)
