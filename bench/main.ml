(* Benchmark modes behind the CI gates that time the simulator and the
   daemon. Each mode is one command:

   - [sim-throughput]: warp-instructions/second per engine on XSBench;
     fails unless the warm decoded engine beats the reference engine;
   - [sim-parallel [PATH]]: the --sim-jobs scaling sweep; fails unless
     every width reproduces the serial metrics (BENCH_sim_parallel.json);
   - [sim-json [PATH]]: Table I's 20-run protocol per engine plus the
     throughputs (BENCH_sim.json);
   - [serve [PATH]]: the daemon load generator; fails unless responses
     are byte-identical and warm throughput is at least 5x cold
     (BENCH_serve.json).

   The paper's tables and figures regenerate with
   [dune exec bin/experiments_main.exe -- all]. *)

let app name =
  match Uu_benchmarks.Registry.find name with
  | Some a -> a
  | None -> failwith ("unknown app " ^ name)

(* Simulator engine throughput: the pre-decoded warp engine vs the
   tree-walking reference interpreter, and decode-cold (fresh decode per
   simulation) vs decode-warm (per-module decode cache, the harness's
   steady state). The module is compiled once outside the timed region so
   only simulation is measured. *)

let sim_module config =
  let a = app "XSBench" in
  let m = Uu_frontend.Lower.compile ~name:a.Uu_benchmarks.App.name a.Uu_benchmarks.App.source in
  List.iter
    (fun f ->
      ignore (Uu_core.Pipelines.optimize ~targets:Uu_core.Pipelines.All_loops config f))
    m.Uu_ir.Func.funcs;
  (a, m)

(* Run an instance's launch schedule over module [m] and sum the
   launches' metrics. *)
let simulate_module ~engine ?decode_cache ?(sim_jobs = 1) m
    (instance : Uu_benchmarks.App.instance) =
  let total = Uu_gpusim.Metrics.create () in
  List.iter
    (fun (l : Uu_benchmarks.App.launch) ->
      let f =
        match Uu_ir.Func.find_func m l.Uu_benchmarks.App.kernel with
        | Some f -> f
        | None -> failwith ("unknown kernel " ^ l.Uu_benchmarks.App.kernel)
      in
      let r =
        Uu_gpusim.Kernel.exec
          ~config:{ Uu_gpusim.Kernel.default_config with engine; decode_cache; sim_jobs }
          instance.Uu_benchmarks.App.mem f
          ~grid_dim:l.Uu_benchmarks.App.grid_dim
          ~block_dim:l.Uu_benchmarks.App.block_dim ~args:l.Uu_benchmarks.App.args
      in
      Uu_gpusim.Metrics.add total r.Uu_gpusim.Kernel.metrics)
    instance.Uu_benchmarks.App.launches;
  total

(* Directly measured warp-instructions/second per engine (the number the
   ROADMAP's perf item is tracked by), on XSBench under u&u-4. *)
let sim_throughput_report () =
  let a, m = sim_module (Uu_core.Pipelines.Uu 4) in
  let cache = Uu_gpusim.Decode.create_cache () in
  (* A fresh workload per simulation, set up inside the timed region. *)
  let simulate ~engine ?decode_cache () =
    simulate_module ~engine ?decode_cache m
      (a.Uu_benchmarks.App.setup (Uu_support.Rng.create 0x5EEDL))
  in
  let measure name ~engine ?decode_cache ~reps () =
    (* one untimed warm-up simulation populates the decode cache *)
    ignore (simulate ~engine ?decode_cache ());
    let t0 = Uu_support.Clock.now () in
    let instrs = ref 0 in
    for _ = 1 to reps do
      let m = simulate ~engine ?decode_cache () in
      instrs := !instrs + m.Uu_gpusim.Metrics.warp_instrs
    done;
    let dt = Uu_support.Clock.now () -. t0 in
    let wips = float_of_int !instrs /. dt in
    Printf.printf "  %-22s %10.2f Mwinstr/s  (%.3f s / %d reps)\n" name
      (wips /. 1e6) dt reps;
    wips
  in
  print_endline "== sim-throughput: warp-instructions/second (XSBench, u&u-4) ==";
  let reference = measure "reference" ~engine:Uu_gpusim.Kernel.Reference ~reps:3 () in
  let cold = measure "decoded-cold" ~engine:Uu_gpusim.Kernel.Decoded ~reps:3 () in
  let warm =
    measure "decoded-warm" ~engine:Uu_gpusim.Kernel.Decoded ~decode_cache:cache
      ~reps:3 ()
  in
  Printf.printf "  decoded-warm / reference: %.2fx\n" (warm /. reference);
  (reference, cold, warm)

(* Block-shard scaling: the same Table I-scale workload (XSBench under
   u&u-4, its own launch schedule and grids) simulated at increasing
   --sim-jobs widths. Three things are recorded: that metrics stay
   byte-identical at every width (the determinism contract, doubly
   witnessed by a per-width metrics digest in the JSON), the wall-clock
   speedup over the serial sweep, and the domain count that produced
   the numbers. A 1-domain container measures sharding overhead, not
   scaling, so it refuses to overwrite an existing baseline — only a
   machine with real parallelism may rebaseline the curve. *)
let sim_parallel_report path =
  let scale_n = 65536 in
  let _, m = sim_module (Uu_core.Pipelines.Uu 4) in
  let cache = Uu_gpusim.Decode.create_cache () in
  let avail = Uu_support.Parallel.available_domains () in
  let widths =
    List.sort_uniq compare (List.filter (fun j -> j <= max 4 avail) [ 1; 2; 4; avail ])
  in
  print_endline "== sim-parallel: --sim-jobs sweep (XSBench, u&u-4, decoded engine) ==";
  Printf.printf "  available domains: %d, grid %d blocks per launch\n%!" avail
    (scale_n / 128);
  let reps = 3 in
  let measure sim_jobs =
    (* Fresh scaled instance per width (setup outside the timed region);
       one untimed warm-up populates the decode cache and spawn paths. *)
    let instance =
      Uu_benchmarks.Xsbench.setup_scaled ~n:scale_n (Uu_support.Rng.create 0x5EEDL)
    in
    let simulate () =
      simulate_module ~engine:Uu_gpusim.Kernel.Decoded ~decode_cache:cache ~sim_jobs m
        instance
    in
    let m0 = simulate () in
    let t0 = Uu_support.Clock.now () in
    for _ = 1 to reps do
      ignore (simulate ())
    done;
    let dt = Uu_support.Clock.now () -. t0 in
    Printf.printf "  sim-jobs %-3d %8.3f s / %d reps\n%!" sim_jobs dt reps;
    (sim_jobs, dt, m0)
  in
  let rows = List.map measure widths in
  let _, serial_s, serial_m = List.hd rows in
  let mismatches =
    List.filter (fun (_, _, m) -> m <> serial_m) (List.tl rows)
  in
  List.iter
    (fun (j, _, _) ->
      Printf.eprintf "sim-parallel: sim-jobs %d metrics differ from serial\n" j)
    mismatches;
  let best_j, best_s, _ =
    List.fold_left
      (fun (bj, bs, bm) (j, s, m) -> if s < bs then (j, s, m) else (bj, bs, bm))
      (List.hd rows) (List.tl rows)
  in
  if avail = 1 && Sys.file_exists path then begin
    Printf.eprintf
      "sim-parallel: WARNING: only 1 domain available — this run measures \
       sharding overhead, not scaling.\n\
       sim-parallel: refusing to overwrite the baseline %s; rebaseline on a \
       multicore machine.\n%!"
      path;
    if mismatches <> [] then exit 1
  end
  else begin
    if avail = 1 then
      Printf.eprintf
        "sim-parallel: WARNING: only 1 domain available — writing a fresh \
         overhead-only baseline to %s; the scaling curve is meaningless until \
         a multicore machine rebaselines it.\n%!"
        path;
    (* The digest doubly witnesses the determinism contract: identical
       metrics at every width must hash identically, and a future reader
       can diff curves knowing whether the simulated work changed. *)
    let digest_of m =
      Digest.to_hex
        (Digest.string (Format.asprintf "%a" Uu_gpusim.Metrics.pp m))
    in
    let oc = open_out path in
    Printf.fprintf oc
      {|{
  "benchmark": "XSBench launch schedule under uu-4 scaled to %d blocks per launch, decoded engine, %d reps per width",
  "available_domains": %d,
  "widths": [%s],
  "seconds": [%s],
  "speedup_vs_serial": [%s],
  "metrics_digest": [%s],
  "best": { "sim_jobs": %d, "speedup": %.2f },
  "metrics_identical_across_widths": %b
}
|}
      (scale_n / 128) reps avail
      (String.concat ", " (List.map (fun (j, _, _) -> string_of_int j) rows))
      (String.concat ", "
         (List.map (fun (_, s, _) -> Printf.sprintf "%.3f" s) rows))
      (String.concat ", "
         (List.map (fun (_, s, _) -> Printf.sprintf "%.2f" (serial_s /. s)) rows))
      (String.concat ", "
         (List.map (fun (_, _, m) -> Printf.sprintf "%S" (digest_of m)) rows))
      best_j (serial_s /. best_s) (mismatches = []);
    close_out oc;
    Printf.printf "  best: sim-jobs %d at %.2fx vs serial -> %s\n" best_j
      (serial_s /. best_s) path;
    if mismatches <> [] then exit 1
  end

(* The CPUs this process may run on, as the [nproc] utility counts them
   (it honours the affinity mask, which [available_domains] may not). *)
let nproc () =
  let avail = Uu_support.Parallel.available_domains () in
  match Unix.open_process_in "nproc" with
  | exception Unix.Unix_error _ -> avail
  | ic ->
    let line = In_channel.input_line ic in
    ignore (Unix.close_process_in ic);
    (match Option.bind line int_of_string_opt with Some n when n > 0 -> n | _ -> avail)

(* Full-scale engine comparison recorded in BENCH_sim.json: wall-clock of
   Table I's complete 20-run protocol (all apps, no result cache) under
   each engine. The 20 noisy runs of a schedule share one simulation
   (noise reaches only time), so compilation is a large share of this
   wall time and the ratio understates the engines' own gap; the
   warp-instruction throughputs beside it compare the engines alone. *)
let sim_json path =
  let time_table1 engine =
    let t0 = Uu_support.Clock.now () in
    let rows = Uu_harness.Table1.compute ~runs:20 ~engine () in
    let dt = Uu_support.Clock.now () -. t0 in
    Printf.printf "  table1 runs:20 %-10s %.2f s\n%!"
      (match engine with
      | Uu_gpusim.Kernel.Reference -> "reference"
      | Uu_gpusim.Kernel.Decoded -> "decoded")
      dt;
    ignore rows;
    dt
  in
  print_endline "== BENCH_sim: Table I (20 runs, all apps, no cache) per engine ==";
  let reference_s = time_table1 Uu_gpusim.Kernel.Reference in
  let decoded_s = time_table1 Uu_gpusim.Kernel.Decoded in
  let reference_wips, cold_wips, warm_wips = sim_throughput_report () in
  let oc = open_out path in
  Printf.fprintf oc
    {|{
  "benchmark": "table1 --runs 20, all apps, no result cache",
  "nproc": %d,
  "available_domains": %d,
  "reference_engine_seconds": %.3f,
  "decoded_engine_seconds": %.3f,
  "speedup": %.2f,
  "throughput_winstr_per_sec": {
    "workload": "XSBench under uu-4",
    "reference": %.0f,
    "decoded_cold": %.0f,
    "decoded_warm": %.0f
  }
}
|}
    (nproc ()) (Uu_support.Parallel.available_domains ()) reference_s decoded_s
    (reference_s /. decoded_s) reference_wips cold_wips
    warm_wips;
  close_out oc;
  Printf.printf "  speedup: %.2fx -> %s\n" (reference_s /. decoded_s) path

(* --- serve daemon load generator ------------------------------------ *)

(* Sustained load against an in-process serve daemon: client threads
   each issue the whole request mix, rotated per client so identical
   requests overlap in flight (exercising the in-flight dedupe), first
   against an empty response cache (cold) and then again (warm, which
   must be served entirely from the cache), then a warm client-count
   scaling sweep (1 -> 8 -> 32 connections against the one reactor
   thread). Asserts the core serve contract — byte-identical response
   documents for identical requests, whichever of the three paths
   served them — and records throughput, latency percentiles, and a
   per-wave response digest in BENCH_serve.json. Throughput on a
   1-domain container measures reactor overhead, not parallel serving,
   so such a run refuses to overwrite an existing baseline — the
   contract checks still run and still fail the build. *)
let serve_report path =
  let tmp = Filename.get_temp_dir_name () in
  let pid = Unix.getpid () in
  let socket = Filename.concat tmp (Printf.sprintf "uu-serve-bench-%d.sock" pid) in
  let cache_dir = Filename.concat tmp (Printf.sprintf "uu-serve-bench-%d.cache" pid) in
  let avail = Uu_support.Parallel.available_domains () in
  let server = Uu_harness.Server.create ~socket ~cache_dir () in
  let server_thread = Thread.create Uu_harness.Server.serve_forever server in
  let mix =
    Array.of_list
      (List.concat_map
         (fun app ->
           List.concat_map
             (fun config ->
               List.map
                 (fun (grid, block, elems) ->
                   Uu_serve.Request.make ~grid_dim:grid ~block_dim:block ~elems
                     (Uu_serve.Request.App app) config)
                 [ (64, 32, 2048); (128, 32, 4096) ])
             [ Uu_core.Pipelines.Baseline; Uu_core.Pipelines.Uu 4 ])
         [ "stencil1d"; "treduce"; "complex"; "bezier-surface" ])
  in
  let n_mix = Array.length mix in
  let clients = 8 in
  print_endline "== serve: daemon load generator ==";
  Printf.printf
    "  %d clients x %d distinct requests per wave, %d domains, socket %s\n%!"
    clients n_mix avail socket;
  let wave nclients =
    let latencies = Array.make (nclients * n_mix) 0.0 in
    let served = Array.make (nclients * n_mix) Uu_serve.Protocol.Executed in
    let texts = Array.make (nclients * n_mix) "" in
    let t0 = Uu_support.Clock.now () in
    let worker c =
      let client = Uu_serve.Client.connect ~socket () in
      Fun.protect
        ~finally:(fun () -> Uu_serve.Client.close client)
        (fun () ->
          for k = 0 to n_mix - 1 do
            let i = (k + c) mod n_mix in
            let slot = (c * n_mix) + i in
            let t = Uu_support.Clock.now () in
            let s, response = Uu_serve.Client.request client mix.(i) in
            latencies.(slot) <- (Uu_support.Clock.now () -. t) *. 1000.0;
            served.(slot) <- s;
            texts.(slot) <- Uu_serve.Response.to_string response
          done)
    in
    let threads = List.init nclients (fun c -> Thread.create worker c) in
    List.iter Thread.join threads;
    (Uu_support.Clock.now () -. t0, latencies, served, texts)
  in
  let percentile latencies p =
    let sorted = Array.copy latencies in
    Array.sort compare sorted;
    let n = Array.length sorted in
    sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  let count s served =
    Array.fold_left (fun acc x -> if x = s then acc + 1 else acc) 0 served
  in
  (* One digest per wave: the concatenated response documents in slot
     order. Two runs serving identical bytes carry identical digests,
     so baselines can be compared without shipping the documents. *)
  let digest (_, _, _, texts) =
    Digest.to_hex (Digest.string (String.concat "" (Array.to_list texts)))
  in
  let describe label nclients (seconds, latencies, served, _) =
    let total = nclients * n_mix in
    let rps = float_of_int total /. seconds in
    Printf.printf
      "  %-8s %4d requests in %6.2f s: %7.1f req/s, p50 %.2f ms, p99 %.2f ms \
       (executed %d, joined %d, cache %d)\n%!"
      label total seconds rps
      (percentile latencies 0.50)
      (percentile latencies 0.99)
      (count Uu_serve.Protocol.Executed served)
      (count Uu_serve.Protocol.Joined served)
      (count Uu_serve.Protocol.Cache served);
    rps
  in
  let cold = wave clients in
  let warm = wave clients in
  let cold_rps = describe "cold" clients cold in
  let warm_rps = describe "warm" clients warm in
  (* Every identical request must have produced identical response
     bytes — across clients, waves, and served paths. *)
  let _, _, _, cold_texts = cold in
  let _, _, _, warm_texts = warm in
  let byte_identical = ref true in
  for i = 0 to n_mix - 1 do
    let expect = cold_texts.(i) in
    for c = 0 to clients - 1 do
      let slot = (c * n_mix) + i in
      if cold_texts.(slot) <> expect || warm_texts.(slot) <> expect then begin
        byte_identical := false;
        Printf.eprintf "serve: response bytes diverge for request %d (client %d)\n" i c
      end
    done
  done;
  let _, _, warm_served, _ = warm in
  let warm_all_cached = count Uu_serve.Protocol.Cache warm_served = clients * n_mix in
  if not warm_all_cached then
    Printf.eprintf "serve: warm wave was not served entirely from the cache\n";
  (* Connection scaling: the same warm (fully cache-served) wave at
     growing client counts, all multiplexed onto the one reactor
     thread. Each wave's bytes must still match the cold wave's. *)
  let scaling =
    List.map
      (fun nclients ->
        let w = wave nclients in
        let rps = describe (Printf.sprintf "scale-%d" nclients) nclients w in
        let _, _, _, texts = w in
        for c = 0 to nclients - 1 do
          for i = 0 to n_mix - 1 do
            if texts.((c * n_mix) + i) <> cold_texts.(i) then begin
              byte_identical := false;
              Printf.eprintf
                "serve: scaling wave (%d clients) bytes diverge for request %d\n"
                nclients i
            end
          done
        done;
        (nclients, rps, w))
      [ 1; 8; 32 ]
  in
  let stats =
    let client = Uu_serve.Client.connect ~socket () in
    Fun.protect
      ~finally:(fun () -> Uu_serve.Client.close client)
      (fun () ->
        let stats = Uu_serve.Client.stats client in
        Uu_serve.Client.shutdown client;
        stats)
  in
  Thread.join server_thread;
  let ratio = warm_rps /. cold_rps in
  Printf.printf "  warm/cold throughput: %.1fx\n%!" ratio;
  let wave_json nclients ((seconds, latencies, served, _) as w) rps =
    Printf.sprintf
      {|{ "clients": %d, "seconds": %.3f, "req_per_s": %.1f, "p50_ms": %.3f, "p99_ms": %.3f, "executed": %d, "joined": %d, "cache": %d, "response_digest": "%s" }|}
      nclients seconds rps
      (percentile latencies 0.50)
      (percentile latencies 0.99)
      (count Uu_serve.Protocol.Executed served)
      (count Uu_serve.Protocol.Joined served)
      (count Uu_serve.Protocol.Cache served)
      (digest w)
  in
  let skip_write = avail = 1 && Sys.file_exists path in
  if skip_write then
    Printf.eprintf
      "serve: WARNING: only 1 domain available — this run measures reactor \
       overhead, not parallel serving.\n\
       serve: refusing to overwrite the baseline %s; rebaseline on a multicore \
       machine.\n%!"
      path
  else begin
    if avail = 1 then
      Printf.eprintf
        "serve: WARNING: only 1 domain available — writing a fresh baseline, \
         but its throughput reflects a serial pool.\n%!";
    let oc = open_out path in
    Printf.fprintf oc
      {|{
  "benchmark": "uu serve load generator: %d clients x %d distinct requests per wave (4 apps x 2 configs x 2 shapes), rotated per client, cold then warm, then a warm client-scaling sweep",
  "available_domains": %d,
  "clients": %d,
  "distinct_requests": %d,
  "requests_per_wave": %d,
  "cold": %s,
  "warm": %s,
  "warm_over_cold": %.1f,
  "scaling": [
    %s
  ],
  "byte_identical": %b,
  "warm_fully_cache_served": %b,
  "server": { %s }
}
|}
      clients n_mix avail clients n_mix (clients * n_mix)
      (wave_json clients cold cold_rps)
      (wave_json clients warm warm_rps)
      ratio
      (String.concat ",\n    "
         (List.map (fun (nclients, rps, w) -> wave_json nclients w rps) scaling))
      !byte_identical warm_all_cached
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) stats));
    close_out oc;
    Printf.printf "  wrote %s\n%!" path
  end;
  if not !byte_identical then exit 1;
  if not warm_all_cached then exit 1;
  if ratio < 5.0 then begin
    Printf.eprintf "serve: warm throughput only %.1fx cold (want >= 5x)\n" ratio;
    exit 1
  end

let usage =
  "usage: bench MODE\n\
  \  sim-throughput      warp-instructions/second per engine (XSBench, u&u-4)\n\
  \  sim-parallel [PATH] the --sim-jobs scaling sweep (BENCH_sim_parallel.json)\n\
  \  sim-json [PATH]     Table I per engine and the throughputs (BENCH_sim.json)\n\
  \  serve [PATH]        the serve daemon load generator (BENCH_serve.json)\n\
   The paper's tables and figures: dune exec bin/experiments_main.exe -- all\n"

let () =
  match Array.to_list Sys.argv with
  | _ :: "sim-parallel" :: rest ->
    sim_parallel_report (match rest with p :: _ -> p | [] -> "BENCH_sim_parallel.json")
  | _ :: "sim-throughput" :: _ ->
    let reference, _, warm = sim_throughput_report () in
    if warm <= reference then begin
      Printf.eprintf
        "sim-throughput: decoded engine (%.0f winstr/s) is not faster than the \
         reference engine (%.0f winstr/s)\n"
        warm reference;
      exit 1
    end
  | _ :: "sim-json" :: rest ->
    sim_json (match rest with p :: _ -> p | [] -> "BENCH_sim.json")
  | _ :: "serve" :: rest ->
    serve_report (match rest with p :: _ -> p | [] -> "BENCH_serve.json")
  | _ ->
    prerr_string usage;
    exit 2
