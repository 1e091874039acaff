open Uu_support
open Uu_core

type source = App of string | Inline of { name : string; text : string }
type protocol = Once | Noisy of { runs : int }
type mode = Compile | Run | Schedule of protocol

type t = {
  mode : mode;
  source : source;
  config : Pipelines.config;
  kernel : string option;
  loop : int option;
  grid_dim : int;
  block_dim : int;
  elems : int;
  check_races : bool;
  trace : bool;
  noise_seed : int64 option;
  variant : string option;
  engine : Uu_gpusim.Kernel.engine;
  sim_jobs : int option;
}

let make ?(mode = Run) ?kernel ?loop ?(grid_dim = 4) ?(block_dim = 128)
    ?(elems = 1024) ?(check_races = false) ?(trace = false) ?noise_seed ?variant
    ?(engine = Uu_gpusim.Kernel.Decoded) ?sim_jobs source config =
  {
    mode;
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

let source_name = function App name -> name | Inline { name; _ } -> name

(* --- bounds ---------------------------------------------------------- *)

(* Wide enough for every shape the repo sends (at most grid 128, block
   128, elems 4096, 20 runs); tight enough that one request cannot
   allocate gigabytes of synthetic buffers or pin a pool domain for
   hours. *)
let max_grid = 65_535
let max_block = 1_024
let max_elems = 1 lsl 22
let max_runs = 1_000

let ( let* ) = Result.bind

let within field ~limit v =
  if v >= 1 && v <= limit then Ok ()
  else Error (Printf.sprintf "request: %s %d is out of range 1..%d" field v limit)

let check r =
  match r.mode with
  | Run ->
    let* () = within "grid" ~limit:max_grid r.grid_dim in
    let* () = within "block" ~limit:max_block r.block_dim in
    within "elems" ~limit:max_elems r.elems
  | Schedule (Noisy { runs }) -> within "runs" ~limit:max_runs runs
  | Schedule Once | Compile -> Ok ()

(* --- identity -------------------------------------------------------- *)

(* An inline source enters the spec by content hash, not by text: the
   spec stays one readable line, and two requests with the same kernel
   text share a cache entry no matter what the client named the file. *)
let source_spec = function
  | App name -> "app:" ^ name
  | Inline { name; text } ->
    Printf.sprintf "inline:%s:%s" name (Digest.to_hex (Digest.string text))

let protocol_string = function
  | Once -> "once"
  | Noisy { runs } -> Printf.sprintf "noisy-%d" runs

let protocol_of_string s =
  if s = "once" then Some Once
  else
    match String.split_on_char '-' s with
    | [ "noisy"; n ] -> Option.map (fun runs -> Noisy { runs }) (int_of_string_opt n)
    | _ -> None

let mode_string = function
  | Compile -> "compile"
  | Run -> "run"
  | Schedule _ -> "schedule"

(* Which loop the transform is restricted to: "-" for all loops, else
   "<kernel>#<id>", with "*" for every kernel or every loop. *)
let target_string r =
  match (r.kernel, r.loop) with
  | None, None -> "-"
  | k, l ->
    Printf.sprintf "%s#%s" (Option.value k ~default:"*")
      (match l with None -> "*" | Some id -> string_of_int id)

let work_string r =
  match r.variant with None -> "pipeline" | Some name -> "custom:" ^ name

(* Everything a response depends on enters the spec; what cannot change
   a response byte (engine, sim_jobs — both metric-identical by the
   determinism contract) stays out, so a request answered under one
   engine is a cache hit for the other. Both versions are folded in: a
   compiler change and a simulator-semantics change each invalidate old
   entries.

   A schedule spec is the job graph's spec, field for field, so the
   keys of untargeted jobs (and Table I's noise seeds, derived from
   them) stay where they were; knobs a job never set are appended only
   when set. A race-checked request names the race report's version, so
   only its key moves when the report's rules change. *)
let spec ?(version = Pipelines.version)
    ?(sim_version = Uu_gpusim.Kernel.semantics_version) r =
  let races = if r.check_races then "v" ^ Uu_gpusim.Racecheck.version else "false" in
  match r.mode with
  | Schedule protocol ->
    let app = match r.source with App name -> name | s -> source_spec s in
    String.concat ""
      [
        Printf.sprintf "v%s;sim=%s;app=%s;config=%s;target=%s;protocol=%s;work=%s"
          version sim_version app
          (Pipelines.config_to_string r.config)
          (target_string r) (protocol_string protocol) (work_string r);
        (match r.noise_seed with
        | None -> ""
        | Some s -> ";noise=" ^ Int64.to_string s);
        (if r.check_races then ";races=" ^ races else "");
        (if r.trace then ";trace=true" else "");
      ]
  | Compile | Run ->
    Printf.sprintf
      "serve;v%s;sim=%s;mode=%s;source=%s;config=%s;loop=%s;shape=%dx%dx%d;races=%s;trace=%b;noise=%s;work=%s"
      version sim_version (mode_string r.mode) (source_spec r.source)
      (Pipelines.config_to_string r.config)
      (target_string r) r.grid_dim r.block_dim r.elems races r.trace
      (match r.noise_seed with None -> "-" | Some s -> Int64.to_string s)
      (work_string r)

let key ?version ?sim_version r =
  Digest.to_hex (Digest.string (spec ?version ?sim_version r))

(* The compiled-module identity: what [Runner.compile_request]
   consumes. No simulator version, mode, shape, or race flag — those
   only affect the simulation of an already-compiled module, and the
   daemon's warm decode caches hang off this key. *)
let compile_key r =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "serve-compile;v%s;source=%s;config=%s;loop=%s;work=%s"
          Pipelines.version (source_spec r.source)
          (Pipelines.config_to_string r.config)
          (target_string r) (work_string r)))

let noise_seed ~key i =
  (* Fold the first 8 digest bytes of "key#run<i>" into an int64: a pure
     function of the request identity and the run index, so repeated
     noisy runs are reproducible no matter which domain executes them or
     in what order. *)
  let d = Digest.string (Printf.sprintf "%s#run%d" key i) in
  let v = ref 0L in
  for j = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code d.[j]))
  done;
  !v

(* --- JSON codec ----------------------------------------------------- *)

let engine_string = function
  | Uu_gpusim.Kernel.Decoded -> "decoded"
  | Uu_gpusim.Kernel.Reference -> "reference"

let opt_json f = function None -> Json.Null | Some v -> f v

let to_json r =
  let source =
    match r.source with
    | App name -> Json.Obj [ ("app", Json.Str name) ]
    | Inline { name; text } ->
      Json.Obj [ ("name", Json.Str name); ("text", Json.Str text) ]
  in
  let protocol =
    match r.mode with
    | Schedule p -> [ ("protocol", Json.Str (protocol_string p)) ]
    | Compile | Run -> []
  in
  Json.Obj
    ([ ("mode", Json.Str (mode_string r.mode)) ]
    @ protocol
    @ [
        ("source", source);
        ("config", Json.Str (Pipelines.config_to_string r.config));
        ("kernel", opt_json (fun k -> Json.Str k) r.kernel);
        ("loop", opt_json (fun id -> Json.Int id) r.loop);
        ("grid", Json.Int r.grid_dim);
        ("block", Json.Int r.block_dim);
        ("elems", Json.Int r.elems);
        ("check_races", Json.Bool r.check_races);
        ("trace", Json.Bool r.trace);
        ("noise_seed", opt_json (fun s -> Json.Str (Int64.to_string s)) r.noise_seed);
        ("variant", opt_json (fun v -> Json.Str v) r.variant);
        ("engine", Json.Str (engine_string r.engine));
        ("sim_jobs", opt_json (fun n -> Json.Int n) r.sim_jobs);
      ])

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "request: bad or missing field %S" name)

(* Absent and null both mean unset: clients speaking an older protocol
   keep round-tripping. *)
let opt_field name conv j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match conv v with
    | Some v -> Ok (Some v)
    | None -> Error (Printf.sprintf "request: bad field %S" name))

let of_json j =
  let* mode =
    let* s = field "mode" Json.to_str j in
    match s with
    | "compile" -> Ok Compile
    | "run" -> Ok Run
    | "schedule" ->
      let* p = field "protocol" (fun v -> Option.bind (Json.to_str v) protocol_of_string) j in
      Ok (Schedule p)
    | other -> Error (Printf.sprintf "request: unknown mode %S" other)
  in
  let* source =
    match Json.member "source" j with
    | None -> Error "request: missing field \"source\""
    | Some s -> (
      match Option.bind (Json.member "app" s) Json.to_str with
      | Some name -> Ok (App name)
      | None ->
        let* name = field "name" Json.to_str s in
        let* text = field "text" Json.to_str s in
        Ok (Inline { name; text }))
  in
  let* config =
    let* s = field "config" Json.to_str j in
    Pipelines.config_of_string s
  in
  let* kernel = opt_field "kernel" Json.to_str j in
  let* loop = opt_field "loop" Json.to_int j in
  let* grid_dim = field "grid" Json.to_int j in
  let* block_dim = field "block" Json.to_int j in
  let* elems = field "elems" Json.to_int j in
  let* check_races = field "check_races" Json.to_bool j in
  let* trace = opt_field "trace" Json.to_bool j in
  let* noise_seed =
    let* s = opt_field "noise_seed" Json.to_str j in
    match s with
    | None -> Ok None
    | Some s -> (
      match Int64.of_string_opt s with
      | Some v -> Ok (Some v)
      | None -> Error (Printf.sprintf "request: bad noise_seed %S" s))
  in
  let* variant = opt_field "variant" Json.to_str j in
  let* engine =
    let* s = field "engine" Json.to_str j in
    match s with
    | "decoded" -> Ok Uu_gpusim.Kernel.Decoded
    | "reference" -> Ok Uu_gpusim.Kernel.Reference
    | other -> Error (Printf.sprintf "request: unknown engine %S" other)
  in
  let* sim_jobs = opt_field "sim_jobs" Json.to_int j in
  Ok
    {
      mode;
      source;
      config;
      kernel;
      loop;
      grid_dim;
      block_dim;
      elems;
      check_races;
      trace = Option.value trace ~default:false;
      noise_seed;
      variant;
      engine;
      sim_jobs;
    }
