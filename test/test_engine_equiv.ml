(* Engine equivalence and pinned costs, for every registry application
   under Baseline, Uu 4, and Uu_heuristic.

   Both engines charge through one cost model ([Cost]), so equivalence
   checks what the engines still implement separately — value semantics
   and control flow: the decoded engine must reproduce the reference
   interpreter's metrics, final memory, and oracle verdict. The
   reference engine is the oracle; any divergence is a decoded-engine
   bug.

   A change to the shared cost model moves both engines together, so
   equivalence cannot see it. [pinned] holds one digest per app of the
   decoded engine's absolute metrics — the summed [Metrics.to_json] of
   each config, with noise off and with a fixed noise seed — recorded
   from the engines as they stood before [Cost] was extracted. *)

open Uu_support
open Uu_ir
open Uu_core
open Uu_benchmarks
open Uu_gpusim

let check = Alcotest.check
let bool = Alcotest.bool

let configs = [ Pipelines.Baseline; Pipelines.Uu 4; Pipelines.Uu_heuristic ]

let noise_seed = 0xD1CEL

let pinned =
  [
    ("XSBench", "5bcb2860f4aaa06d2427699d1eda233c");
    ("bezier-surface", "54f02d95590b9fae10927e972af9c554");
    ("bn", "0dcffca36e2fb4af89d967cbd4fef3da");
    ("bspline-vgh", "ea548f56a9aab492d90d05ab31aadf20");
    ("ccs", "147db58742e56966c7d5940a84e1acaf");
    ("clink", "caa278ef40dd72723c047e1f3b88e559");
    ("complex", "b729c9b5241d84cddac99c14e93e041c");
    ("contract", "8cb0102eab0a474aafde968267cf6b62");
    ("coordinates", "7958a1074d273b7f5a06a05dcc701f6c");
    ("dbuf", "ddec84591630a6521f5939b85ef83a0e");
    ("haccmk", "1b5c4a73a21862ea2cb2ce5b48bf59bd");
    ("histogram", "78284e4294f5e80473e4b42456f9534d");
    ("lavaMD", "e2c3d78d0647359ce228fd453c50c191");
    ("libor", "7ffedadfa5a236a0832660f95a6baef2");
    ("mandelbrot", "510d809574be29050e250f8d178c216c");
    ("qtclustering", "15e22f450c4aedcf7cc682d8f161793b");
    ("quicksort", "6d7be7bd2ba2161f7db17750355a8d54");
    ("rainflow", "95d8625eac1f4f7d54af672511158bb4");
    ("stencil1d-128", "8d459744a6cc2a73d64b809ca3dee5d1");
    ("stencil1d-256", "c6f5dd41bcf9288a5f5bbc7ac989d5bf");
    ("stencil1d-64", "e2be809667fb302f8da0e629dc8f8d9f");
    ("stencil1d", "afc8b62a6c809ae52d1e59e03f1031af");
    ("stencil2d", "55998ea6e28cfca3e4c88d98b3e8ef53");
    ("treduce-128", "87a71f45d285f27e58355d0a9cd5642b");
    ("treduce-256", "8370ec83ddeef64e8058ec1387744e40");
    ("treduce-64", "46f49f001bec6dbc61c8501025e97c2f");
    ("treduce", "3d5804dbb71ef12c17d1dc0ef30a20ba");
  ]

let compile (app : App.t) config =
  let m = Uu_frontend.Lower.compile ~name:app.App.name app.App.source in
  List.iter
    (fun f -> ignore (Pipelines.optimize ~targets:Pipelines.All_loops config f))
    m.Func.funcs;
  m

(* Simulate one compiled app under one engine, mirroring the harness
   protocol ([Runner.simulate]): fresh workload from the fixed seed, all
   launches in schedule order, one decode cache per run. *)
let run_engine ?noise engine (app : App.t) m =
  let instance = app.App.setup (Rng.create 0x5EEDL) in
  let total = Metrics.create () in
  let cache = Decode.create_cache () in
  List.iter
    (fun (l : App.launch) ->
      let f =
        match Func.find_func m l.App.kernel with
        | Some f -> f
        | None -> Alcotest.failf "%s: unknown kernel %s" app.App.name l.App.kernel
      in
      let r =
        Kernel.exec
          ~config:(Kernel.config ?noise ~engine ~decode_cache:cache ())
          instance.App.mem f ~grid_dim:l.App.grid_dim ~block_dim:l.App.block_dim
          ~args:l.App.args
      in
      Metrics.add total r.Kernel.metrics)
    instance.App.launches;
  (total, Memory.dump instance.App.mem, instance.App.check ())

let same_memory a b =
  List.length a = List.length b
  && List.for_all2
       (fun (i, xs) (j, ys) ->
         i = j
         && Array.length xs = Array.length ys
         && Array.for_all2 Eval.equal xs ys)
       a b

let test_app (app : App.t) () =
  let absolute =
    List.concat_map
      (fun config ->
        let name = Printf.sprintf "%s/%s" app.App.name (Pipelines.config_to_string config) in
        let m = compile app config in
        let mr, memr, checkr = run_engine Kernel.Reference app m in
        let md, memd, checkd = run_engine Kernel.Decoded app m in
        if mr <> md then
          Alcotest.failf "%s: metrics diverge@.ref: %s@.dec: %s" name
            (Format.asprintf "%a" Metrics.pp mr)
            (Format.asprintf "%a" Metrics.pp md);
        check bool (name ^ " memory identical") true (same_memory memr memd);
        check bool (name ^ " oracle passes on both") true
          (checkr = Ok () && checkd = Ok ());
        let mn, _, _ = run_engine ~noise:(Rng.create noise_seed) Kernel.Decoded app m in
        [ md; mn ])
      configs
  in
  let got =
    Digest.to_hex
      (Digest.string
         (String.concat "\n"
            (List.map (fun m -> Json.to_string (Metrics.to_json m)) absolute)))
  in
  if List.assoc_opt app.App.name pinned <> Some got then
    Alcotest.failf "%s: metrics digest %s differs from the pinned one" app.App.name got

(* Noise reaches only time, so a multi-run launch ([Kernel.exec_runs])
   simulates the schedule once and times every run in that pass, with
   per-run barrier releases. Each run must equal its own one-seed
   simulation on a fresh instance — every metric, kernel cycles, and
   final memory — on both engines; the barrier apps (stencil1d-N,
   treduce-N) have seed-dependent barrier waits. [pinned_runs] holds one
   digest per app of the decoded engine's three-seed result (per run,
   summed metrics and kernel cycles; baseline, then heuristic), recorded
   by simulating the seeds one at a time before multi-run launches
   existed. *)

let run_seeds = [ 0xD1CEL; 0x5EEDL; 0xC0FFEEL ]

let pinned_runs =
  [
    ("bezier-surface", "83513ea67ff041ed2a4690004dd4322e");
    ("bn", "5a82c0325b419a1a505abef4c1df6f71");
    ("bspline-vgh", "fda524b033971764efae1982fbcfcea4");
    ("ccs", "0a41d9f9918b70445af509a316f8cedd");
    ("clink", "84e8796e3a46e280ca0135404e3222a2");
    ("complex", "0e4f7f6938ea68b35f4228cf3031102d");
    ("contract", "468b9357979e6e1f513dd843ad9dd34c");
    ("coordinates", "2d0046c85ce4f973a88c5f286fc14365");
    ("dbuf", "1204b10d844138993fa70dc9370c9db7");
    ("haccmk", "d86df62fa0816104cf626b3075c64dca");
    ("histogram", "536e265bf38fb30b00c25a2e80ca51e1");
    ("lavaMD", "723504f386ad531daa4c7dea09ee896e");
    ("libor", "b6b7ba92e023ca47459f34ca736dc96e");
    ("mandelbrot", "03285b5c06af5025e663a60e5d38f55c");
    ("qtclustering", "e2e62935a5f69928439b89b751a3670d");
    ("quicksort", "6697fd88bdc026bc033ac8b4073b0bee");
    ("rainflow", "84f21ffb0a5f4f3552fd55e771d65355");
    ("stencil1d", "db1429e3497090177c6706ff08f3a538");
    ("stencil1d-64", "2716dfcc668f8cb137de7f75d9c7d45f");
    ("stencil1d-128", "dab318811cea2d86b52a80f0eb81ed68");
    ("stencil1d-256", "eb41bd0abd8b0cbdea9e47eb5e87c07c");
    ("stencil2d", "a8569b5c2de06a43ad95aa27a5d6b752");
    ("treduce", "b1bc0e17a8e364813af3d62b87e072ba");
    ("treduce-64", "4785ff650275f428696e000e5bc773f8");
    ("treduce-128", "d266d52053743ed31b2413738a75e6c1");
    ("treduce-256", "a726c8369373b9441bc57483693ca971");
    ("XSBench", "29178404272c03fe4849b722fa336c86");
  ]

(* The schedule under [noises], one stream per run: per run, summed
   metrics and kernel cycles, plus the final memory they share. *)
let run_schedule ~noises engine (app : App.t) m =
  let instance = app.App.setup (Rng.create 0x5EEDL) in
  let runs = Array.length noises in
  let totals = Array.init runs (fun _ -> Metrics.create ()) in
  let cycles = Array.make runs 0.0 in
  let cache = Decode.create_cache () in
  List.iter
    (fun (l : App.launch) ->
      let f = Option.get (Func.find_func m l.App.kernel) in
      Array.iteri
        (fun run -> function
          | Ok (r : Kernel.result) ->
            Metrics.add totals.(run) r.Kernel.metrics;
            cycles.(run) <- cycles.(run) +. r.Kernel.kernel_cycles
          | Error msg -> Alcotest.failf "%s run %d: %s" app.App.name run msg)
        (Kernel.exec_runs
           ~config:(Kernel.config ~engine ~decode_cache:cache ())
           ~noises instance.App.mem f ~grid_dim:l.App.grid_dim ~block_dim:l.App.block_dim
           ~args:l.App.args))
    instance.App.launches;
  (Array.to_list (Array.map2 (fun m c -> (m, c)) totals cycles), Memory.dump instance.App.mem)

let seeded () = Array.of_list (List.map (fun s -> Some (Rng.create s)) run_seeds)

let test_runs (app : App.t) () =
  let lines =
    List.concat_map
      (fun config ->
        let m = compile app config in
        let name = Printf.sprintf "%s/%s" app.App.name (Pipelines.config_to_string config) in
        let by_engine engine =
          let runs, mem = run_schedule ~noises:(seeded ()) engine app m in
          List.iteri
            (fun i ((metrics, cycles), seed) ->
              let what = Printf.sprintf "%s, run %d" name i in
              match run_schedule ~noises:[| Some (Rng.create seed) |] engine app m with
              | [ (one, one_cycles) ], one_mem ->
                if metrics <> one then
                  Alcotest.failf "%s: metrics differ from its one-seed run@.runs: %s@.one:  %s"
                    what
                    (Format.asprintf "%a" Metrics.pp metrics)
                    (Format.asprintf "%a" Metrics.pp one);
                check bool (what ^ " kernel cycles") true (Float.equal cycles one_cycles);
                check bool (what ^ " memory") true (same_memory mem one_mem)
              | _ -> assert false)
            (List.combine runs run_seeds);
          runs
        in
        let decoded = by_engine Kernel.Decoded in
        if by_engine Kernel.Reference <> decoded then
          Alcotest.failf "%s: engines disagree on the runs" name;
        List.map
          (fun (metrics, cycles) ->
            Printf.sprintf "%s %h" (Json.to_string (Metrics.to_json metrics)) cycles)
          decoded)
      [ Pipelines.Baseline; Pipelines.Uu_heuristic ]
  in
  let got = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
  if List.assoc_opt app.App.name pinned_runs <> Some got then
    Alcotest.failf "%s: runs digest %s differs from the pinned one" app.App.name got

let suite =
  List.map
    (fun (app : App.t) ->
      Alcotest.test_case app.App.name `Slow (test_app app))
    Registry.all
  @ List.map
      (fun (app : App.t) ->
        Alcotest.test_case (app.App.name ^ " noisy runs in one pass") `Slow (test_runs app))
      Registry.all
