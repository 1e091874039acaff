(* The serve layer: Request/Response codecs (property-tested round
   trips), the wire protocol, config-string aliases, launch_config
   default compatibility, and the daemon end to end — including the
   in-flight dedupe contract (N identical concurrent requests, one
   execution). *)

open Uu_support
open Uu_serve

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* --- generators ----------------------------------------------------- *)

let configs =
  [
    Uu_core.Pipelines.Baseline;
    Uu_core.Pipelines.Unroll 4;
    Uu_core.Pipelines.Unmerge;
    Uu_core.Pipelines.Uu 2;
    Uu_core.Pipelines.Uu_heuristic;
    Uu_core.Pipelines.Uu_heuristic_divergence;
    Uu_core.Pipelines.Uu_selective 3;
  ]

let request_gen =
  let open QCheck2.Gen in
  let source_gen =
    oneof
      [
        map (fun n -> Request.App n) (oneofl [ "complex"; "rainflow"; "stencil1d" ]);
        map2
          (fun name text -> Request.Inline { name; text })
          string_printable string_printable;
      ]
  in
  let* mode =
    oneof
      [
        oneofl [ Request.Compile; Request.Run; Request.Schedule Request.Once ];
        map (fun runs -> Request.Schedule (Request.Noisy { runs })) (int_range 1 20);
      ]
  in
  let* source = source_gen in
  let* config = oneofl configs in
  let* kernel = opt (oneofl [ "qs_partition"; "k" ]) in
  let* loop = opt (int_bound 7) in
  let* grid_dim = int_range 1 512 in
  let* block_dim = int_range 1 256 in
  let* elems = int_range 1 65536 in
  let* check_races = bool in
  let* trace = bool in
  let* noise_seed = opt (map Int64.of_int int) in
  let* variant = opt (oneofl [ "ablation:x"; "v" ]) in
  let* engine = oneofl [ Uu_gpusim.Kernel.Decoded; Uu_gpusim.Kernel.Reference ] in
  let* sim_jobs = opt (int_range 1 16) in
  return
    {
      Request.mode;
      source;
      config;
      kernel;
      loop;
      grid_dim;
      block_dim;
      elems;
      check_races;
      trace;
      noise_seed;
      variant;
      engine;
      sim_jobs;
    }

let metrics_gen =
  let open QCheck2.Gen in
  let* cycles = nat in
  let* warp_instrs = nat in
  let* gld_bytes = nat in
  let* divergent_branches = nat in
  return
    (let m = Uu_gpusim.Metrics.create () in
     m.Uu_gpusim.Metrics.cycles <- cycles;
     m.Uu_gpusim.Metrics.warp_instrs <- warp_instrs;
     m.Uu_gpusim.Metrics.gld_bytes <- gld_bytes;
     m.Uu_gpusim.Metrics.divergent_branches <- divergent_branches;
     m)

let measurement_gen =
  let open QCheck2.Gen in
  let* label = string_printable in
  let* kernel_cycles = float_range (-1e15) 1e15 in
  let* code_bytes = nat in
  let* metrics = metrics_gen in
  let* races = opt string_printable in
  let* trace = opt string_printable in
  return { Response.label; kernel_cycles; code_bytes; metrics; races; trace }

let run_gen =
  let open QCheck2.Gen in
  let* kernel_ms = float_range 0.0 1e6 in
  let* transfer_ms = float_range 0.0 1e6 in
  let* code_bytes = nat in
  let* metrics = metrics_gen in
  let* launches = list_size (int_bound 3) measurement_gen in
  return { Response.kernel_ms; transfer_ms; code_bytes; metrics; launches }

let response_gen =
  let open QCheck2.Gen in
  let ok_gen =
    let* config = oneofl configs in
    let* body =
      oneof
        [
          map2
            (fun ir instr_count -> Response.Compiled { ir; instr_count })
            string_printable nat;
          map (fun ms -> Response.Measured ms) (list_size (int_bound 4) measurement_gen);
          map (fun runs -> Response.Scheduled runs) (list_size (int_range 1 4) run_gen);
        ]
    in
    let* compile_seconds = float_range 0.0 1e6 in
    let* stats =
      list_size (int_bound 4) (pair (oneofl [ "a.b"; "c.d"; "e" ]) nat)
    in
    return (Ok { Response.config; body; compile_seconds; remarks = []; stats })
  in
  oneof [ ok_gen; map (fun m -> Error m) string_printable ]

let client_msg_gen =
  let open QCheck2.Gen in
  oneof
    [
      map2 (fun id request -> Protocol.Request { id; request }) nat request_gen;
      oneofl [ Protocol.Stats; Protocol.Ping; Protocol.Shutdown ];
    ]

let server_msg_gen =
  let open QCheck2.Gen in
  oneof
    [
      map3
        (fun version pipelines semantics ->
          Protocol.Hello { version; pipelines; semantics })
        string_printable string_printable string_printable;
      (let* id = nat in
       let* served = oneofl [ Protocol.Executed; Protocol.Cache; Protocol.Joined ] in
       let* response = response_gen in
       return (Protocol.Result { id; served; response }));
      map
        (fun stats -> Protocol.Stats_reply stats)
        (list_size (int_bound 4) (pair (oneofl [ "x"; "y.z" ]) nat));
      oneofl [ Protocol.Pong; Protocol.Bye ];
      map3
        (fun id queued limit -> Protocol.Busy { id; queued; limit })
        nat nat nat;
      map2
        (fun id message -> Protocol.Error_msg { id; message })
        (opt nat) string_printable;
    ]

let props =
  [
    QCheck2.Test.make ~name:"Request JSON round-trips" ~count:300 request_gen
      (fun r -> Request.of_json (Request.to_json r) = Ok r);
    QCheck2.Test.make ~name:"Request JSON round-trips through text" ~count:300
      request_gen (fun r ->
        match Json.of_string (Json.to_string (Request.to_json r)) with
        | Ok j -> Request.of_json j = Ok r
        | Error _ -> false);
    QCheck2.Test.make ~name:"Response JSON round-trips" ~count:300 response_gen
      (fun r -> Response.of_string (Response.to_string r) = Ok r);
    QCheck2.Test.make ~name:"Response serialization is stable (cache bytes)"
      ~count:300 response_gen (fun r ->
        match Response.of_string (Response.to_string r) with
        | Ok r' -> Response.to_string r' = Response.to_string r
        | Error _ -> false);
    QCheck2.Test.make ~name:"client frames round-trip" ~count:300 client_msg_gen
      (fun m -> Protocol.client_of_json (Protocol.client_to_json m) = Ok m);
    QCheck2.Test.make ~name:"server frames round-trip" ~count:300 server_msg_gen
      (fun m -> Protocol.server_of_json (Protocol.server_to_json m) = Ok m);
    (* The incremental codec must reassemble any frame stream however the
       transport slices it: random frames, random chunk sizes. *)
    QCheck2.Test.make ~name:"codec decodes frames under arbitrary chunking"
      ~count:100
      QCheck2.Gen.(
        pair
          (list_size (int_range 1 4) server_msg_gen)
          (list_size (int_range 1 64) (int_range 1 13)))
      (fun (msgs, chunks) ->
        let stream =
          String.concat ""
            (List.map (fun m -> Protocol.encode_frame (Protocol.server_to_json m)) msgs)
        in
        let codec = Protocol.Codec.create () in
        let decoded = ref [] in
        let drain () =
          let rec go () =
            match Protocol.Codec.next codec with
            | Some j -> decoded := j :: !decoded; go ()
            | None -> ()
          in
          go ()
        in
        let pos = ref 0 in
        let chunk_sizes = ref chunks in
        while !pos < String.length stream do
          let size =
            match !chunk_sizes with
            | s :: rest -> chunk_sizes := rest; s
            | [] -> 1
          in
          let len = min size (String.length stream - !pos) in
          Protocol.Codec.feed codec stream ~off:!pos ~len;
          drain ();
          pos := !pos + len
        done;
        Protocol.Codec.buffered codec = 0
        && List.map Json.to_string (List.rev !decoded)
           = List.map (fun m -> Json.to_string (Protocol.server_to_json m)) msgs);
    QCheck2.Test.make ~name:"engine and sim_jobs never enter the request key"
      ~count:100 request_gen (fun r ->
        let flip = function
          | Uu_gpusim.Kernel.Decoded -> Uu_gpusim.Kernel.Reference
          | Uu_gpusim.Kernel.Reference -> Uu_gpusim.Kernel.Decoded
        in
        Request.key { r with Request.engine = flip r.engine; sim_jobs = Some 13 }
        = Request.key r);
  ]

(* --- framing over a real channel ------------------------------------ *)

let test_frame_io () =
  let path = Filename.temp_file "uu-serve-frames" ".bin" in
  let msgs =
    [
      Json.Obj [ ("op", Json.Str "ping") ];
      Json.Arr [ Json.Int 1; Json.Float 2.5; Json.Str "x\"y\n" ];
      Json.Str (String.make 100_000 'z');
    ]
  in
  let oc = open_out_bin path in
  List.iter (Protocol.write_frame oc) msgs;
  close_out oc;
  let ic = open_in_bin path in
  List.iter
    (fun expect ->
      match Protocol.read_frame ic with
      | Some got -> check string "frame" (Json.to_string expect) (Json.to_string got)
      | None -> Alcotest.fail "unexpected EOF")
    msgs;
  check bool "clean EOF" true (Protocol.read_frame ic = None);
  close_in ic;
  Sys.remove path

(* --- the incremental codec ------------------------------------------ *)

(* Two frames split into exactly two reads at every possible offset —
   including inside the first frame's 4-byte length prefix and on the
   frame boundary — must decode identically to one contiguous read. *)
let test_codec_every_split () =
  let msgs =
    [
      Json.Obj [ ("op", Json.Str "ping") ];
      Json.Arr [ Json.Int 7; Json.Str (String.make 300 'q') ];
    ]
  in
  let expect = List.map Json.to_string msgs in
  let stream = String.concat "" (List.map Protocol.encode_frame msgs) in
  for split = 0 to String.length stream do
    let codec = Protocol.Codec.create () in
    let decoded = ref [] in
    let drain () =
      let rec go () =
        match Protocol.Codec.next codec with
        | Some j -> decoded := Json.to_string j :: !decoded; go ()
        | None -> ()
      in
      go ()
    in
    Protocol.Codec.feed codec stream ~off:0 ~len:split;
    drain ();
    Protocol.Codec.feed codec stream ~off:split ~len:(String.length stream - split);
    drain ();
    check bool (Printf.sprintf "all frames decoded at split %d" split) true
      (List.rev !decoded = expect);
    check int (Printf.sprintf "nothing left buffered at split %d" split) 0
      (Protocol.Codec.buffered codec)
  done

(* An oversized length prefix must be rejected as soon as the header is
   complete — before any body bytes accumulate. *)
let test_codec_oversized () =
  let header n =
    let b = Bytes.create 4 in
    Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
    Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
    Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
    Bytes.set_uint8 b 3 (n land 0xff);
    Bytes.to_string b
  in
  let codec = Protocol.Codec.create () in
  (* three header bytes: not yet decidable *)
  Protocol.Codec.feed codec (header (Protocol.max_frame + 1)) ~off:0 ~len:3;
  check bool "incomplete header yields no frame" true
    (Protocol.Codec.next codec = None);
  (* the fourth byte completes an oversized header *)
  Protocol.Codec.feed codec (header (Protocol.max_frame + 1)) ~off:3 ~len:1;
  (match Protocol.Codec.next codec with
  | exception Protocol.Protocol_error _ -> ()
  | _ -> Alcotest.fail "oversized header was not rejected");
  (* and a bad feed slice is the caller's bug, not silent corruption *)
  (match Protocol.Codec.feed (Protocol.Codec.create ()) "abc" ~off:2 ~len:5 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "out-of-bounds feed slice accepted")

(* --- TCP endpoint parsing ------------------------------------------- *)

let test_parse_tcp () =
  List.iter
    (fun (spec, expect) ->
      check bool (Printf.sprintf "parse %s" spec) true
        (Protocol.parse_tcp spec = expect))
    [
      ("127.0.0.1:7070", Ok ("127.0.0.1", 7070));
      (":7070", Ok ("127.0.0.1", 7070));
      ("localhost:0", Ok ("localhost", 0));
      ("nope", Error "nope: expected HOST:PORT");
    ];
  check bool "port out of range rejected" true
    (match Protocol.parse_tcp "h:70000" with Error _ -> true | Ok _ -> false);
  check bool "non-numeric port rejected" true
    (match Protocol.parse_tcp "h:x" with Error _ -> true | Ok _ -> false)

(* --- config-string aliases ------------------------------------------ *)

let test_config_aliases () =
  let open Uu_core.Pipelines in
  List.iter
    (fun (s, expect) ->
      match config_of_string s with
      | Ok got ->
        check bool (Printf.sprintf "alias %s" s) true (got = expect)
      | Error m -> Alcotest.fail (Printf.sprintf "alias %s rejected: %s" s m))
    [
      ("baseline", Baseline);
      ("unmerge", Unmerge);
      ("heuristic", Uu_heuristic);
      ("u&u-heuristic", Uu_heuristic);
      ("uu-heuristic", Uu_heuristic);
      ("heuristic-div", Uu_heuristic_divergence);
      ("u&u-heuristic+div", Uu_heuristic_divergence);
      ("uu-heuristic-div", Uu_heuristic_divergence);
      ("unroll", Unroll 2);
      ("unroll-8", Unroll 8);
      ("unroll:8", Unroll 8);
      ("uu", Uu 2);
      ("uu-4", Uu 4);
      ("u&u-4", Uu 4);
      ("u&u:4", Uu 4);
      ("uu-selective-3", Uu_selective 3);
      ("u&u-selective:5", Uu_selective 5);
    ];
  (* and the canonical names always parse back to themselves *)
  List.iter
    (fun c ->
      check bool
        (Printf.sprintf "round-trip %s" (config_to_string c))
        true
        (config_of_string (config_to_string c) = Ok c))
    configs

(* --- launch_config defaults ------------------------------------------ *)

let test_launch_defaults () =
  let fn =
    Ir_helpers.compile_one
      "kernel k(float* restrict out, int n) { int i = blockIdx.x * blockDim.x \
       + threadIdx.x; if (i < n) { out[i] = i * 2.0; } }"
  in
  let run exec_it =
    let mem = Uu_gpusim.Memory.create () in
    let out = Uu_gpusim.Memory.zeros_f64 mem 256 in
    let r =
      exec_it mem ~args:[ Uu_gpusim.Kernel.Buf out; Uu_gpusim.Kernel.Int_arg 200L ]
    in
    (r, Uu_gpusim.Memory.read_f64 out)
  in
  (* exec with no config and exec with the builder's empty config are the
     same launch; the builder with no arguments is the default record. *)
  let r_plain, mem_plain =
    run (fun mem ~args ->
        Uu_gpusim.Kernel.exec mem fn ~grid_dim:2 ~block_dim:128 ~args)
  in
  let r_built, mem_built =
    run (fun mem ~args ->
        Uu_gpusim.Kernel.exec
          ~config:(Uu_gpusim.Kernel.config ())
          mem fn ~grid_dim:2 ~block_dim:128 ~args)
  in
  check bool "metrics identical" true
    (r_plain.Uu_gpusim.Kernel.metrics = r_built.Uu_gpusim.Kernel.metrics);
  check bool "cycles identical" true
    (r_plain.Uu_gpusim.Kernel.kernel_cycles
    = r_built.Uu_gpusim.Kernel.kernel_cycles);
  check int "code bytes identical" r_plain.Uu_gpusim.Kernel.code_bytes
    r_built.Uu_gpusim.Kernel.code_bytes;
  check bool "memory identical" true (mem_plain = mem_built);
  check bool "config () = default_config" true
    (Uu_gpusim.Kernel.config () = Uu_gpusim.Kernel.default_config)

(* --- noise-seed delegation ------------------------------------------ *)

let test_noise_seed () =
  check bool "Jobs delegates to Request" true
    (Uu_harness.Jobs.noise_seed ~key:"abcdef" 3
    = Request.noise_seed ~key:"abcdef" 3);
  check bool "distinct runs, distinct seeds" true
    (Request.noise_seed ~key:"abcdef" 0 <> Request.noise_seed ~key:"abcdef" 1);
  check bool "distinct keys, distinct seeds" true
    (Request.noise_seed ~key:"abcdef" 0 <> Request.noise_seed ~key:"abcdeg" 0)


(* --- request bounds ------------------------------------------------- *)

let stencil = Request.App "stencil1d"

(* One store per thread and no shared memory, so a request at any bound
   runs in well under a second. *)
let tiny =
  Request.Inline
    {
      name = "tiny.cu";
      text =
        "kernel k(float* restrict out, int n) { int i = blockIdx.x * blockDim.x \
         + threadIdx.x; if (i < n) { out[i] = 2.0; } }";
    }

let bounds =
  let baseline = Uu_core.Pipelines.Baseline in
  [
    ("grid", Request.max_grid, fun n -> Request.make ~grid_dim:n ~block_dim:1 ~elems:1 tiny baseline);
    ("block", Request.max_block, fun n -> Request.make ~grid_dim:1 ~block_dim:n ~elems:1 tiny baseline);
    ("elems", Request.max_elems, fun n -> Request.make ~grid_dim:1 ~block_dim:1 ~elems:n tiny baseline);
    ( "runs",
      Request.max_runs,
      fun n ->
        Request.make ~mode:(Request.Schedule (Request.Noisy { runs = n }))
          (Request.App "stencil1d-256") baseline );
  ]

let names_limit field limit msg =
  Astring.String.is_infix ~affix:field msg
  && Astring.String.is_infix ~affix:(string_of_int limit) msg

(* Each bound is answered at its limit; one past it, and at 0, the
   funnel answers an [Error] naming the field and its limit, before
   compiling anything. *)
let test_request_bounds () =
  check bool "the documented limits" true
    (Request.max_grid = 65_535 && Request.max_block = 1_024
    && Request.max_elems = 4_194_304 && Request.max_runs = 1_000);
  List.iter
    (fun (field, limit, make) ->
      check bool (field ^ " at its limit runs") true
        (Result.is_ok (Uu_harness.Runner.run_request (make limit)));
      List.iter
        (fun n ->
          match Uu_harness.Runner.run_request (make n) with
          | Error msg ->
            check bool
              (Printf.sprintf "%s %d: error names the field and limit" field n)
              true (names_limit field limit msg)
          | Ok _ -> Alcotest.failf "%s %d was accepted" field n)
        [ limit + 1; 0 ])
    bounds;
  (* Only what the mode uses is bounded: a schedule ignores the shape. *)
  check bool "a schedule's unused shape is not checked" true
    (Request.check
       (Request.make ~mode:(Request.Schedule Request.Once) ~grid_dim:0 stencil
          Uu_core.Pipelines.Baseline)
    = Ok ())

(* --- the daemon end to end ------------------------------------------ *)

let fresh_paths tag =
  let tmp = Filename.get_temp_dir_name () in
  let stamp = Printf.sprintf "%s-%d-%d" tag (Unix.getpid ()) (Random.bits ()) in
  ( Filename.concat tmp (Printf.sprintf "uu-%s.sock" stamp),
    Filename.concat tmp (Printf.sprintf "uu-%s.cache" stamp) )

let with_server tag f =
  let socket, cache_dir = fresh_paths tag in
  let server = Uu_harness.Server.create ~socket ~domains:1 ~cache_dir () in
  let th = Thread.create Uu_harness.Server.serve_forever server in
  Fun.protect
    ~finally:(fun () ->
      Uu_harness.Server.request_stop server;
      Thread.join th)
    (fun () -> f ~socket ~server)

let test_end_to_end () =
  with_server "e2e" (fun ~socket ~server:_ ->
      let r =
        Request.make ~grid_dim:16 ~block_dim:32 ~elems:256 ~check_races:true
          (Request.App "complex") (Uu_core.Pipelines.Uu 2)
      in
      let local = Uu_harness.Runner.run_request r in
      let client = Client.connect ~socket () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let _, pipelines, semantics = Client.hello client in
          check string "hello pipelines" Uu_core.Pipelines.version pipelines;
          check string "hello semantics" Uu_gpusim.Kernel.semantics_version
            semantics;
          Client.ping client;
          let served1, resp1 = Client.request client r in
          let served2, resp2 = Client.request client r in
          check bool "first executed" true (served1 = Protocol.Executed);
          check bool "second cache-served" true (served2 = Protocol.Cache);
          check string "daemon response = local run_request"
            (Response.to_string local)
            (Response.to_string resp1);
          check string "cache-served bytes identical"
            (Response.to_string resp1)
            (Response.to_string resp2);
          check string "rendered bytes match too" (Response.render local)
            (Response.render resp1);
          (* a broken request comes back as a response, not a dead socket *)
          let bad =
            Request.make
              (Request.Inline { name = "bad.cu"; text = "kernel oops(" })
              Uu_core.Pipelines.Baseline
          in
          let _, bad_resp = Client.request client bad in
          check bool "parse failure is an Error response" true
            (match bad_resp with Error _ -> true | Ok _ -> false)))

let test_inflight_dedupe () =
  with_server "dedupe" (fun ~socket ~server ->
      (* A request slow enough that all clients pile in while it runs. *)
      let r =
        Request.make ~grid_dim:64 ~block_dim:32 ~elems:2048
          (Request.App "bezier-surface") (Uu_core.Pipelines.Uu 4)
      in
      let n = 6 in
      let results = Array.make n (Protocol.Executed, "") in
      let threads =
        List.init n (fun i ->
            Thread.create
              (fun i ->
                let c = Client.connect ~socket () in
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    let served, resp = Client.request c r in
                    results.(i) <- (served, Response.to_string resp)))
              i)
      in
      List.iter Thread.join threads;
      let stats = Uu_harness.Server.stats server in
      let stat name = List.assoc name stats in
      check int "one execution for N identical requests" 1 (stat "serve.executed");
      check int "all requests accounted" n (stat "serve.requests");
      check int "no errors" 0 (stat "serve.errors");
      let _, expect = results.(0) in
      Array.iteri
        (fun i (_, text) ->
          check string (Printf.sprintf "client %d got identical bytes" i) expect text)
        results;
      let executed, joined, cache =
        Array.fold_left
          (fun (e, j, c) (s, _) ->
            match s with
            | Protocol.Executed -> (e + 1, j, c)
            | Protocol.Joined -> (e, j + 1, c)
            | Protocol.Cache -> (e, j, c + 1))
          (0, 0, 0) results
      in
      check int "one client saw its request execute" 1 executed;
      check int "the rest joined in flight or hit the cache" (n - 1)
        (joined + cache))

(* The same daemon is reachable over TCP: bind port 0 (kernel picks),
   read the bound port back, and get the same bytes a local
   run_request produces. *)
let test_tcp_end_to_end () =
  let socket, cache_dir = fresh_paths "tcp" in
  let server =
    Uu_harness.Server.create ~socket ~tcp:("127.0.0.1", 0) ~domains:1 ~cache_dir ()
  in
  let th = Thread.create Uu_harness.Server.serve_forever server in
  Fun.protect
    ~finally:(fun () ->
      Uu_harness.Server.request_stop server;
      Thread.join th)
    (fun () ->
      let host, port =
        match Uu_harness.Server.tcp server with
        | Some endpoint -> endpoint
        | None -> Alcotest.fail "no TCP endpoint bound"
      in
      check bool "kernel assigned a real port" true (port > 0);
      let r =
        Request.make ~grid_dim:16 ~block_dim:32 ~elems:2048
          (Request.App "stencil1d") Uu_core.Pipelines.Baseline
      in
      let local = Uu_harness.Runner.run_request r in
      let client = Client.connect ~tcp:(host, port) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let served, resp = Client.request client r in
          check bool "executed" true (served = Protocol.Executed);
          check string "tcp response = local run_request"
            (Response.to_string local)
            (Response.to_string resp);
          (* and the unix listener serves the same daemon: this repeat
             must be cache-served with identical bytes *)
          let unix_client = Client.connect ~socket () in
          Fun.protect
            ~finally:(fun () -> Client.close unix_client)
            (fun () ->
              let served2, resp2 = Client.request unix_client r in
              check bool "cache-served over unix" true
                (served2 = Protocol.Cache);
              check string "same bytes over both transports"
                (Response.to_string resp)
                (Response.to_string resp2))))

(* Overload: one running slot, zero queue slots. Concurrent distinct
   requests must either execute or be shed with a busy frame — no
   errors, no hangs — and every survivor's bytes must match a local
   run. *)
let test_overload_shed () =
  let socket, cache_dir = fresh_paths "shed" in
  let server =
    Uu_harness.Server.create ~socket ~domains:1 ~cache_dir ~max_running:1
      ~max_queued:0 ()
  in
  let th = Thread.create Uu_harness.Server.serve_forever server in
  Fun.protect
    ~finally:(fun () ->
      Uu_harness.Server.request_stop server;
      Thread.join th)
    (fun () ->
      (* Distinct keys (different grids), one shared compile identity:
         cold compilation makes the first request slow enough for the
         rest to arrive while it runs. *)
      let requests =
        List.map
          (fun grid ->
            Request.make ~grid_dim:grid ~block_dim:32 ~elems:2048
              (Request.App "bezier-surface") (Uu_core.Pipelines.Uu 4))
          [ 16; 24; 32; 48; 64 ]
      in
      let n = List.length requests in
      let outcomes = Array.make n `Pending in
      let threads =
        List.mapi
          (fun i r ->
            Thread.create
              (fun () ->
                let c = Client.connect ~socket () in
                Fun.protect
                  ~finally:(fun () -> Client.close c)
                  (fun () ->
                    match Client.request c r with
                    | _, resp -> outcomes.(i) <- `Served (Response.to_string resp)
                    | exception Client.Busy _ -> outcomes.(i) <- `Shed))
              ())
          requests
      in
      List.iter Thread.join threads;
      let served, shed =
        Array.fold_left
          (fun (sv, sh) -> function
            | `Served _ -> (sv + 1, sh)
            | `Shed -> (sv, sh + 1)
            | `Pending -> (sv, sh))
          (0, 0) outcomes
      in
      check int "every request either served or shed" n (served + shed);
      check bool "at least one served" true (served >= 1);
      check bool "at least one shed" true (shed >= 1);
      let stats = Uu_harness.Server.stats server in
      check int "shed counted" shed (List.assoc "serve.shed" stats);
      check int "no errors" 0 (List.assoc "serve.errors" stats);
      (* survivors carry exactly the bytes a one-shot run produces *)
      List.iteri
        (fun i r ->
          match outcomes.(i) with
          | `Served text ->
            check string
              (Printf.sprintf "survivor %d byte-identical to run_request" i)
              (Response.to_string (Uu_harness.Runner.run_request r))
              text
          | `Shed | `Pending -> ())
        requests)

(* Pipelining: one connection writes N request frames back-to-back
   before reading anything. The reactor must decode them all from the
   buffered stream and answer each; replies arrive in admission order
   with the client's frame ids. *)
let test_pipelined_requests () =
  with_server "pipeline" (fun ~socket ~server:_ ->
      let r =
        Request.make ~grid_dim:16 ~block_dim:32 ~elems:2048
          (Request.App "stencil1d") Uu_core.Pipelines.Baseline
      in
      let local = Response.to_string (Uu_harness.Runner.run_request r) in
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX socket);
          (match Protocol.read_server ic with
          | Some (Protocol.Hello _) -> ()
          | _ -> Alcotest.fail "expected hello");
          let n = 5 in
          for id = 0 to n - 1 do
            output_string oc
              (Protocol.encode_frame
                 (Protocol.client_to_json (Protocol.Request { id; request = r })))
          done;
          flush oc;
          for expect_id = 0 to n - 1 do
            match Protocol.read_server ic with
            | Some (Protocol.Result { id; response; _ }) ->
              check int "replies in request order" expect_id id;
              check string "pipelined bytes identical" local
                (Response.to_string response)
            | _ -> Alcotest.fail "expected a result frame"
          done))

(* Shutdown must drain: a request admitted before the shutdown op still
   gets its full response, and the daemon exits afterwards. *)
let test_drain_shutdown () =
  let socket, cache_dir = fresh_paths "drain" in
  let server = Uu_harness.Server.create ~socket ~domains:1 ~cache_dir () in
  let th = Thread.create Uu_harness.Server.serve_forever server in
  let r =
    Request.make ~grid_dim:64 ~block_dim:32 ~elems:2048
      (Request.App "bezier-surface") (Uu_core.Pipelines.Uu 4)
  in
  let result = ref None in
  let requester =
    Thread.create
      (fun () ->
        let c = Client.connect ~socket () in
        Fun.protect
          ~finally:(fun () -> Client.close c)
          (fun () -> result := Some (Client.request c r)))
      ()
  in
  (* let the slow request get admitted, then ask for shutdown *)
  Thread.delay 0.3;
  let ctl = Client.connect ~socket () in
  Client.shutdown ctl;
  Client.close ctl;
  Thread.join requester;
  Thread.join th;
  (match !result with
  | Some (_, resp) ->
    check string "in-flight response delivered across shutdown"
      (Response.to_string (Uu_harness.Runner.run_request r))
      (Response.to_string resp)
  | None -> Alcotest.fail "request thread got no response");
  check bool "socket file removed" false (Sys.file_exists socket)


(* Bounds over the wire: each limit is served; one past it is an
   [Error] response naming the field, never cached, on a connection that
   stays usable, from a daemon that stays up. *)
let test_bounds_over_the_wire () =
  with_server "bounds" (fun ~socket ~server ->
      let client = Client.connect ~socket () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          List.iter
            (fun (field, limit, make) ->
              check bool (field ^ " at its limit over the wire") true
                (Result.is_ok (snd (Client.request client (make limit))));
              let past = make (limit + 1) in
              for attempt = 1 to 2 do
                match Client.request client past with
                | Protocol.Executed, Error msg ->
                  check bool
                    (Printf.sprintf "%s past its limit, attempt %d" field attempt)
                    true (names_limit field limit msg)
                | Protocol.Executed, Ok _ -> Alcotest.failf "%s past its limit accepted" field
                | (Protocol.Cache | Protocol.Joined), _ ->
                  Alcotest.failf "%s: an error response was served from the cache" field
              done)
            bounds);
      let again = Client.connect ~socket () in
      Client.ping again;
      Client.close again;
      check int "every error counted" (2 * List.length bounds)
        (List.assoc "serve.errors" (Uu_harness.Server.stats server)))

let cache_entry_path cache_dir key =
  Filename.concat (Filename.concat cache_dir (String.sub key 0 2)) (key ^ ".json")

(* Truncated, bit-flipped and empty entries under one key: each is
   dropped and recomputed with the right bytes, while another
   connection's cache-served bytes stay unchanged and the daemon stays
   up. *)
let test_corrupt_cache_entries () =
  let socket, cache_dir = fresh_paths "corrupt" in
  let server = Uu_harness.Server.create ~socket ~domains:1 ~cache_dir () in
  let th = Thread.create Uu_harness.Server.serve_forever server in
  Fun.protect
    ~finally:(fun () ->
      Uu_harness.Server.request_stop server;
      Thread.join th)
    (fun () ->
      let victim =
        Request.make ~grid_dim:64 ~block_dim:32 ~elems:2048 stencil
          Uu_core.Pipelines.Baseline
      in
      let bystander =
        Request.make ~grid_dim:16 ~block_dim:32 ~elems:2048 stencil
          Uu_core.Pipelines.Baseline
      in
      let want r = Response.to_string (Uu_harness.Runner.run_request r) in
      let want_victim = want victim and want_bystander = want bystander in
      let a = Client.connect ~socket () and b = Client.connect ~socket () in
      Fun.protect
        ~finally:(fun () -> Client.close a; Client.close b)
        (fun () ->
          let ask c r = Response.to_string (snd (Client.request c r)) in
          check string "victim executed" want_victim (ask a victim);
          check string "bystander executed" want_bystander (ask b bystander);
          let path = cache_entry_path cache_dir (Request.key victim) in
          let good = In_channel.with_open_bin path In_channel.input_all in
          let corruptions =
            [
              ("truncated", String.sub good 0 100);
              ( "bit-flipped",
                String.mapi
                  (fun i c -> if i = String.length good - 10 then Char.chr (Char.code c lxor 4) else c)
                  good );
              ("empty", "");
            ]
          in
          List.iter
            (fun (what, text) ->
              Out_channel.with_open_bin path (fun oc -> output_string oc text);
              let served, resp = Client.request a victim in
              check bool (what ^ ": recomputed, not served") true (served = Protocol.Executed);
              check string (what ^ ": correct bytes") want_victim (Response.to_string resp);
              let served, resp = Client.request b bystander in
              check bool (what ^ ": bystander cache-served") true (served = Protocol.Cache);
              check string (what ^ ": bystander bytes unchanged") want_bystander
                (Response.to_string resp))
            corruptions;
          Client.ping a;
          let stats = Uu_harness.Server.stats server in
          check int "three corrupt entries counted" 3 (List.assoc "serve.cache_corrupt" stats);
          check int "no errors" 0 (List.assoc "serve.errors" stats)))

(* A schedule request — the unit the experiments are made of — answered
   by the daemon is byte-identical to the local funnel, executed or
   cache-served. *)
let test_schedule_over_the_wire () =
  with_server "schedule" (fun ~socket ~server:_ ->
      let app = Option.get (Uu_benchmarks.Registry.find "quicksort") in
      let target =
        List.find
          (fun (l : Uu_harness.Runner.loop_ref) -> l.kernel = "qs_partition")
          (Uu_harness.Runner.loop_inventory app)
      in
      let r =
        Uu_harness.Runner.schedule_request ~protocol:(Request.Noisy { runs = 3 }) ~target
          app (Uu_core.Pipelines.Uu 2)
      in
      let local = Response.to_string (Uu_harness.Runner.run_request r) in
      let client = Client.connect ~socket () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let served1, resp1 = Client.request client r in
          let served2, resp2 = Client.request client r in
          check bool "executed, then cache-served" true
            (served1 = Protocol.Executed && served2 = Protocol.Cache);
          check string "daemon = local run_request" local (Response.to_string resp1);
          check string "cache-served bytes identical" local (Response.to_string resp2)))

(* [Server.result_frame] re-parses response text and prints it again:
   that is the identity on every response of perfbench's serve hit set
   (4 apps x 2 configs x 2 shapes) and on a schedule response. *)
let test_print_identity () =
  let identity what text =
    check string (what ^ ": parse then print") text
      (Json.to_string (Json.of_string_exn text));
    match Response.of_string text with
    | Ok r -> check string (what ^ ": decode then encode") text (Response.to_string r)
    | Error e -> Alcotest.failf "%s: %s" what e
  in
  List.iter
    (fun app ->
      List.iter
        (fun config ->
          let base = Request.make (Request.App app) config in
          match Uu_harness.Runner.compile_request base with
          | Error e -> Alcotest.fail e
          | Ok c ->
            List.iter
              (fun (grid_dim, block_dim, elems) ->
                let r = { base with Request.grid_dim; block_dim; elems } in
                identity
                  (Printf.sprintf "%s %s %dx%dx%d" app
                     (Uu_core.Pipelines.config_to_string config)
                     grid_dim block_dim elems)
                  (Response.to_string (Uu_harness.Runner.respond r c)))
              [ (64, 32, 2048); (128, 32, 4096) ])
        [ Uu_core.Pipelines.Baseline; Uu_core.Pipelines.Uu 4 ])
    [ "stencil1d"; "treduce"; "complex"; "bezier-surface" ];
  let app = Option.get (Uu_benchmarks.Registry.find "quicksort") in
  identity "quicksort schedule"
    (Response.to_string
       (Uu_harness.Runner.run_request
          {
            (Uu_harness.Runner.schedule_request ~protocol:(Request.Noisy { runs = 2 }) app
               Uu_core.Pipelines.Uu_heuristic)
            with
            check_races = true;
          }))

let suite =
  List.map (QCheck_alcotest.to_alcotest ~long:false) props
  @ [
      ("frame io over a channel", `Quick, test_frame_io);
      ("codec survives every split offset", `Quick, test_codec_every_split);
      ("codec rejects oversized frames", `Quick, test_codec_oversized);
      ("tcp endpoint parsing", `Quick, test_parse_tcp);
      ("config_of_string aliases", `Quick, test_config_aliases);
      ("launch_config defaults", `Quick, test_launch_defaults);
      ("noise-seed delegation", `Quick, test_noise_seed);
      ("daemon end to end", `Quick, test_end_to_end);
      ("in-flight dedupe: N requests, one execution", `Quick, test_inflight_dedupe);
      ("daemon over tcp", `Quick, test_tcp_end_to_end);
      ("overload sheds with busy frames", `Quick, test_overload_shed);
      ("pipelined requests on one connection", `Quick, test_pipelined_requests);
      ("shutdown drains in-flight work", `Quick, test_drain_shutdown);
      ("request bounds", `Quick, test_request_bounds);
      ("request bounds over the wire", `Quick, test_bounds_over_the_wire);
      ("corrupt cache entries are recomputed", `Quick, test_corrupt_cache_entries);
      ("schedule request over the wire", `Quick, test_schedule_over_the_wire);
      ("result text survives parse-then-print", `Slow, test_print_identity);
    ]
