(* Tests for the parallel job graph: the domain pool (deterministic
   ordering, actual multi-domain execution, fault capture), the job
   abstraction (content-hash keys, failure records, one compile per
   compile key), the on-disk result cache (validated entries,
   byte-identical hits, key invalidation), and the parallel-equals-serial
   guarantee of the sweep. *)

open Uu_core
open Uu_harness
module Request = Uu_serve.Request
module Response = Uu_serve.Response

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let bezier =
  match Uu_benchmarks.Registry.find "bezier-surface" with
  | Some a -> a
  | None -> assert false

let fresh_cache_dir () =
  let path = Filename.temp_file "uu_cache" "" in
  Sys.remove path;
  path

let test_map_order () =
  let items = List.init 100 Fun.id in
  check (Alcotest.list int) "input order preserved" (List.map (fun i -> i * i) items)
    (Uu_support.Parallel.map ~jobs:4 (fun i -> i * i) items);
  check (Alcotest.list int) "jobs:1 runs inline" (List.map (fun i -> i + 1) items)
    (Uu_support.Parallel.map ~jobs:1 (fun i -> i + 1) items)

let test_map_uses_domains () =
  if Uu_support.Parallel.available_domains () < 2 then ()
  else begin
    (* Workers rendezvous before returning their domain id, so at least
       two distinct domains must participate (with a deadline so a
       pathological scheduler degrades to a test failure, not a hang). *)
    let started = Atomic.make 0 in
    let ids =
      Uu_support.Parallel.map ~jobs:2
        (fun _ ->
          Atomic.incr started;
          let deadline = Unix.gettimeofday () +. 5.0 in
          while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
            Domain.cpu_relax ()
          done;
          (Domain.self () :> int))
        [ 0; 1 ]
    in
    check bool "two distinct domains" true
      (match ids with [ a; b ] -> a <> b | _ -> false)
  end

let test_map_result_captures () =
  let results =
    Uu_support.Parallel.map_result ~jobs:3
      (fun i -> if i mod 2 = 0 then i else failwith ("odd " ^ string_of_int i))
      [ 0; 1; 2; 3 ]
  in
  check bool "evens succeed, odds fail, order kept" true
    (match results with
    | [ Ok 0; Error (Failure a); Ok 2; Error (Failure b) ] ->
      a = "odd 1" && b = "odd 3"
    | _ -> false)

let test_job_keys () =
  let j = Jobs.job bezier Pipelines.Baseline in
  check string "key is stable" (Jobs.key j) (Jobs.key j);
  check string "a job's key is its request's key" (Request.key j.Jobs.request)
    (Jobs.key j);
  let differs j' = Jobs.key j <> Jobs.key j' in
  check bool "config changes key" true (differs (Jobs.job bezier (Pipelines.Uu 2)));
  check bool "factor changes key" true
    (Jobs.key (Jobs.job bezier (Pipelines.Uu 2))
    <> Jobs.key (Jobs.job bezier (Pipelines.Uu 4)));
  let loop = List.hd (Runner.loop_inventory bezier) in
  check bool "target changes key" true
    (differs (Jobs.job ~target:loop bezier Pipelines.Baseline));
  check bool "protocol changes key" true
    (differs (Jobs.job ~protocol:(Jobs.Noisy { runs = 3 }) bezier Pipelines.Baseline));
  check bool "variant changes key" true
    (differs
       (Jobs.custom ~name:"v" ~compile:(fun () -> assert false) bezier
          Pipelines.Baseline));
  check bool "pipeline version changes key" true
    (Request.key ~version:"test-bump" j.Jobs.request <> Jobs.key j);
  (* Race reports are response bytes: a race-checked key names the
     report's version, and only race-checked keys do. *)
  let raced = { j.Jobs.request with Request.check_races = true } in
  check string "race-checked spec names the report version"
    (Request.spec j.Jobs.request ^ ";races=v" ^ Uu_gpusim.Racecheck.version)
    (Request.spec raced);
  check string "engine and sim_jobs stay out of the key" (Jobs.key j)
    (Request.key
       {
         j.Jobs.request with
         engine = Uu_gpusim.Kernel.Reference;
         sim_jobs = Some 7;
       });
  (* Table I's keys, and with them its noise seeds, are the job-spec
     hashes they were before jobs became requests. *)
  List.iter
    (fun (protocol, config, want) ->
      check string
        (Request.spec (Jobs.job ~protocol bezier config).Jobs.request)
        want
        (Jobs.key (Jobs.job ~protocol bezier config)))
    [
      (Jobs.Once, Pipelines.Baseline, "be8beb84a223c4052cde08b4fcfda3ad");
      (Jobs.Noisy { runs = 20 }, Pipelines.Baseline, "0b4528f277578ca7a1fdfcbf1eaa4981");
      (Jobs.Noisy { runs = 20 }, Pipelines.Uu_heuristic, "13e33d7af04685faf4d0a1398302c2c1");
    ];
  (* Noise seeds are pure functions of (key, run index). *)
  let k = Jobs.key j in
  check bool "noise seed deterministic" true
    (Jobs.noise_seed ~key:k 0 = Jobs.noise_seed ~key:k 0
    && Jobs.noise_seed ~key:k 0 <> Jobs.noise_seed ~key:k 1)

let test_failure_record () =
  let boom =
    Jobs.custom ~name:"boom" ~compile:(fun () -> failwith "boom") bezier
      Pipelines.Baseline
  in
  let good = Jobs.job bezier Pipelines.Baseline in
  match Jobs.run_all ~jobs:2 [ boom; good ] with
  | [ bad_r; good_r ] ->
    (match bad_r.Jobs.outcome with
    | Error f ->
      check bool "message preserved" true
        (Astring.String.is_infix ~affix:"boom" f.Jobs.message);
      check bool "the daemon's failure text" true
        (String.starts_with ~prefix:"internal error: " f.Jobs.message);
      check bool "label names the job" true
        (Astring.String.is_infix ~affix:"bezier-surface" f.Jobs.job_label)
    | Ok _ -> Alcotest.fail "raising job did not fail");
    check bool "sibling job unaffected" true
      (Jobs.measurements_exn good_r <> []);
    (match
       Jobs.run_all [ boom ] |> List.map (fun r -> Jobs.measurements_exn r)
     with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "measurements_exn did not raise")
  | _ -> Alcotest.fail "expected two results"

let stencil =
  match Uu_benchmarks.Registry.find "stencil1d" with
  | Some a -> a
  | None -> assert false

(* Two custom jobs with one name and one app share a compile key, so the
   batch builds their module once and answers both from it, with the
   bytes each job gets when it runs alone. *)
let test_one_compile_per_key () =
  let calls = Atomic.make 0 in
  let compile () =
    Atomic.incr calls;
    match Runner.compile_request (Jobs.job stencil Pipelines.Baseline).Jobs.request with
    | Ok c -> Runner.make_compiled (Runner.modul c)
    | Error msg -> failwith msg
  in
  let counted protocol =
    Jobs.custom ~name:"counted" ~compile ~protocol stencil Pipelines.Baseline
  in
  let jobs = [ counted Jobs.Once; counted (Jobs.Noisy { runs = 3 }) ] in
  let bytes (r : Jobs.result) =
    match r.Jobs.outcome with
    | Ok ok -> Response.to_string (Ok ok)
    | Error f -> Alcotest.fail f.Jobs.message
  in
  let together = Jobs.run_all ~jobs:2 jobs in
  check int "one compile for both jobs" 1 (Atomic.get calls);
  check (Alcotest.list int) "one run, then three" [ 1; 3 ]
    (List.map (fun r -> List.length (Jobs.measurements_exn r)) together);
  let alone = List.map (fun j -> List.hd (Jobs.run_all [ j ])) jobs in
  check int "alone, each job compiles" 3 (Atomic.get calls);
  List.iter2
    (fun t a -> check string "bytes as when run alone" (bytes a) (bytes t))
    together alone

(* The batch hands its compile groups to the pool u&u-8 first, then
   u&u-4, then the rest in first-appearance order; results still come
   back in input order, with the bytes each job gets alone. *)
let test_uu_compiles_first () =
  let compiled = ref [] in
  let job config =
    let compile () =
      compiled := Pipelines.config_to_string config :: !compiled;
      match Runner.compile_request (Jobs.job stencil Pipelines.Baseline).Jobs.request with
      | Ok c -> Runner.make_compiled (Runner.modul c)
      | Error msg -> failwith msg
    in
    Jobs.custom ~name:"ordered" ~compile stencil config
  in
  let jobs = List.map job Pipelines.[ Baseline; Uu 4; Unroll 2; Uu 8 ] in
  let bytes (r : Jobs.result) =
    match r.Jobs.outcome with
    | Ok ok -> Response.to_string (Ok ok)
    | Error f -> Alcotest.fail f.Jobs.message
  in
  let together = Jobs.run_all ~jobs:1 jobs in
  check (Alcotest.list string) "compile order" [ "u&u-8"; "u&u-4"; "baseline"; "unroll-2" ]
    (List.rev !compiled);
  let alone = List.map (fun j -> List.hd (Jobs.run_all [ j ])) jobs in
  List.iter2
    (fun t a -> check string "input order, bytes as when run alone" (bytes a) (bytes t))
    together alone

let entry_path cache key =
  Filename.concat
    (Filename.concat (Result_cache.dir cache) (String.sub key 0 2))
    (key ^ ".json")

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

(* A Table-I-shaped noisy job and a kernel-scoped sweep job: the warm
   rerun is served from the cache, byte for byte what the cold run
   computed. *)
let test_cache_round_trip () =
  let cache = Result_cache.create ~dir:(fresh_cache_dir ()) in
  let loop = List.hd (Runner.loop_inventory bezier) in
  let jobs =
    [
      Jobs.job ~protocol:(Jobs.Noisy { runs = 20 }) bezier Pipelines.Uu_heuristic;
      Jobs.job ~target:loop bezier (Pipelines.Uu 2);
    ]
  in
  let bytes (r : Jobs.result) =
    match r.Jobs.outcome with
    | Ok ok -> Response.to_string (Ok ok)
    | Error f -> Alcotest.fail f.Jobs.message
  in
  let cold = Jobs.run_all ~cache jobs in
  let warm = Jobs.run_all ~cache jobs in
  List.iter2
    (fun c w ->
      check bool "cold run executed" false c.Jobs.from_cache;
      check bool "warm run served from cache" true w.Jobs.from_cache;
      check string "warm bytes = cold bytes" (bytes c) (bytes w);
      check bool "measurements equal" true
        (Jobs.measurements_exn c = Jobs.measurements_exn w))
    cold warm;
  check int "twenty noisy runs" 20
    (List.length (Jobs.measurements_exn (List.hd warm)));
  check int "two hits" 2 (Result_cache.hits cache);
  check int "two misses" 2 (Result_cache.misses cache);
  (* A corrupt entry is a miss, not a crash. Entries live sharded under
     the first two hex digits of their key. *)
  let key = Jobs.key (List.hd jobs) in
  let path = entry_path cache key in
  check bool "entry stored in its shard" true (Sys.file_exists path);
  write_file path "{not json";
  check bool "corrupt entry ignored" true (Result_cache.lookup_raw cache ~key = None);
  check int "corrupt entry counted" 1 (Result_cache.corrupt cache);
  check bool "corrupt entry deleted" false (Sys.file_exists path)

(* The entry format: a hit returns exactly the stored bytes; a
   truncated, bit-flipped, empty or headerless entry is dropped and
   counted, and never returned. *)
let test_cache_entries_validated () =
  let cache = Result_cache.create ~dir:(fresh_cache_dir ()) in
  let key = Digest.to_hex (Digest.string "entry") in
  let payload = "{\"config\":\"baseline\",\"x\":[1,2,3]}" in
  Result_cache.store_raw cache ~key payload;
  check (Alcotest.option string) "hit returns the stored bytes" (Some payload)
    (Result_cache.lookup_raw cache ~key);
  let path = entry_path cache key in
  let good = In_channel.with_open_bin path In_channel.input_all in
  let flip s i =
    String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s
  in
  List.iteri
    (fun n (what, text) ->
      write_file path text;
      check (Alcotest.option string) (what ^ " is a miss") None
        (Result_cache.lookup_raw cache ~key);
      check int (what ^ " counted") (n + 1) (Result_cache.corrupt cache);
      check bool (what ^ " deleted") false (Sys.file_exists path))
    [
      ("truncated entry", String.sub good 0 (String.length good - 5));
      ("bit-flipped payload", flip good (String.length good - 3));
      ("empty entry", "");
      ("headerless entry", payload);
      ("padded entry", good ^ "\n");
    ];
  check int "one hit" 1 (Result_cache.hits cache);
  check int "five misses" 5 (Result_cache.misses cache);
  Result_cache.store_raw cache ~key payload;
  check (Alcotest.option string) "a fresh store serves again" (Some payload)
    (Result_cache.lookup_raw cache ~key);
  (* Bytes whose digest is right but which are not a response: the job
     graph drops the entry like a torn one, then recomputes and stores. *)
  let j =
    Jobs.job (Option.get (Uu_benchmarks.Registry.find "stencil1d")) Pipelines.Baseline
  in
  let jkey = Jobs.key j in
  let recomputed what text =
    Result_cache.store_raw cache ~key:jkey text;
    let hits = Result_cache.hits cache and corrupt = Result_cache.corrupt cache in
    match Jobs.run_all ~cache [ j ] with
    | [ { Jobs.outcome = Ok ok; from_cache; _ } ] ->
      let text = Response.to_string (Ok ok) in
      check bool (what ^ ": recomputed") false from_cache;
      check int (what ^ ": counted") (corrupt + 1) (Result_cache.corrupt cache);
      check int (what ^ ": a miss, not a hit") hits (Result_cache.hits cache);
      check (Alcotest.option string) (what ^ ": replaced") (Some text)
        (Result_cache.lookup_raw cache ~key:jkey);
      text
    | _ -> Alcotest.fail "the job failed"
  in
  let want = recomputed "not json" "not json" in
  check int "not json: the sixth corrupt entry" 6 (Result_cache.corrupt cache);
  (* The decoder accepts text the printer never writes, and an [Error]
     response is never stored: neither is a hit, under the rule the
     daemon applies too. *)
  List.iter
    (fun (what, text) ->
      check string (what ^ ": the same response") want (recomputed what text))
    [
      ("response with extra whitespace", "{ " ^ String.sub want 1 (String.length want - 1));
      ("serialized Error response", Response.to_string (Error "stale failure"));
    ]

let test_sweep_parallel_equals_serial () =
  let serial = Sweep.run ~apps:[ bezier ] ~jobs:1 () in
  let parallel = Sweep.run ~apps:[ bezier ] ~jobs:4 () in
  check int "same point count" (List.length serial.Sweep.points)
    (List.length parallel.Sweep.points);
  check bool "point-for-point identical" true (serial.Sweep.points = parallel.Sweep.points);
  check bool "same baselines" true (serial.Sweep.baselines = parallel.Sweep.baselines);
  check int "no failures" 0 (List.length parallel.Sweep.failures)

let test_config_round_trip () =
  List.iter
    (fun c ->
      check bool
        ("round-trips " ^ Pipelines.config_to_string c)
        true
        (Pipelines.config_of_string (Pipelines.config_to_string c) = Ok c))
    (Pipelines.all_standard
    @ [ Pipelines.Uu_heuristic_divergence; Pipelines.Uu_selective 4 ]);
  (* CLI aliases and inline factors. *)
  check bool "uu-4" true (Pipelines.config_of_string "uu-4" = Ok (Pipelines.Uu 4));
  check bool "unroll:8" true
    (Pipelines.config_of_string "unroll:8" = Ok (Pipelines.Unroll 8));
  check bool "heuristic" true
    (Pipelines.config_of_string "heuristic" = Ok Pipelines.Uu_heuristic);
  check bool "heuristic-div" true
    (Pipelines.config_of_string "heuristic-div" = Ok Pipelines.Uu_heuristic_divergence);
  check bool "uu-selective-4" true
    (Pipelines.config_of_string "uu-selective-4" = Ok (Pipelines.Uu_selective 4));
  check bool "default factor" true
    (Pipelines.config_of_string ~default_factor:8 "uu" = Ok (Pipelines.Uu 8));
  check bool "unknown rejected" true
    (match Pipelines.config_of_string "warp-speed" with Error _ -> true | Ok _ -> false)

let test_points_for_parsed_config () =
  let sweep = Sweep.run ~apps:[ bezier ] () in
  match Pipelines.config_of_string "uu-2" with
  | Ok config ->
    let via_parsed = Sweep.points_for sweep ~config () in
    let via_value = Sweep.points_for sweep ~config:(Pipelines.Uu 2) () in
    check bool "parsed config selects points" true (via_parsed <> []);
    check bool "same selection as the constructor" true (via_parsed = via_value)
  | Error e -> Alcotest.fail e

let suite =
  [
    ("map preserves order", `Quick, test_map_order);
    ("map uses multiple domains", `Quick, test_map_uses_domains);
    ("map_result captures exceptions", `Quick, test_map_result_captures);
    ("job keys", `Quick, test_job_keys);
    ("failure record", `Quick, test_failure_record);
    ("one compile per compile key", `Quick, test_one_compile_per_key);
    ("u&u compiles dispatch first", `Quick, test_uu_compiles_first);
    ("cache round-trip", `Quick, test_cache_round_trip);
    ("cache entries are validated", `Quick, test_cache_entries_validated);
    ("parallel sweep = serial sweep", `Slow, test_sweep_parallel_equals_serial);
    ("config round-trip", `Quick, test_config_round_trip);
    ("points_for parsed config", `Slow, test_points_for_parsed_config);
  ]
