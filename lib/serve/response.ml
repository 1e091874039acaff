open Uu_support
open Uu_core

type measurement = {
  label : string;
  kernel_cycles : float;
  code_bytes : int;
  metrics : Uu_gpusim.Metrics.t;
  races : string option;
  trace : string option;
}

type run = {
  kernel_ms : float;
  transfer_ms : float;
  code_bytes : int;
  metrics : Uu_gpusim.Metrics.t;
  launches : measurement list;
}

type body =
  | Compiled of { ir : string; instr_count : int }
  | Measured of measurement list
  | Scheduled of run list

type ok = {
  config : Pipelines.config;
  body : body;
  compile_seconds : float;
  remarks : Remark.t list;
  stats : (string * int) list;
}

type t = (ok, string) result

(* --- rendering ------------------------------------------------------ *)

(* The exact lines [uu run] has always printed (CI greps the racecheck
   report out of them), so `uu run`, `uu request`, and a cache-served
   daemon response are textually indistinguishable. *)
let render_measurement ~config buf (m : measurement) =
  Buffer.add_string buf
    (Printf.sprintf "@%s under %s: %.0f cycles, code %d bytes\n  %s\n" m.label
       (Pipelines.config_name config)
       m.kernel_cycles m.code_bytes
       (Format.asprintf "%a" Uu_gpusim.Metrics.pp m.metrics));
  (match m.races with
  | None -> ()
  | Some report -> Buffer.add_string buf (Printf.sprintf "  %s\n" report));
  match m.trace with
  | None -> ()
  | Some t -> Buffer.add_string buf t

let render_run ~config buf i (r : run) =
  Buffer.add_string buf
    (Printf.sprintf "run %d under %s: %.3f ms kernel, %.3f ms transfer, code %d bytes\n  %s\n"
       i
       (Pipelines.config_name config)
       r.kernel_ms r.transfer_ms r.code_bytes
       (Format.asprintf "%a" Uu_gpusim.Metrics.pp r.metrics));
  List.iter (render_measurement ~config buf) r.launches

let render = function
  | Error msg -> Printf.sprintf "error: %s\n" msg
  | Ok { body = Compiled { ir; _ }; _ } -> ir
  | Ok { body = Measured ms; config; _ } ->
    let buf = Buffer.create 256 in
    List.iter (render_measurement ~config buf) ms;
    Buffer.contents buf
  | Ok { body = Scheduled runs; config; _ } ->
    let buf = Buffer.create 256 in
    List.iteri (render_run ~config buf) runs;
    Buffer.contents buf

(* --- JSON codec ----------------------------------------------------- *)

let measurement_to_json (m : measurement) =
  Json.Obj
    [
      ("label", Json.Str m.label);
      ("kernel_cycles", Json.Float m.kernel_cycles);
      ("code_bytes", Json.Int m.code_bytes);
      ("metrics", Uu_gpusim.Metrics.to_json m.metrics);
      ("races", match m.races with None -> Json.Null | Some r -> Json.Str r);
      ("trace", match m.trace with None -> Json.Null | Some t -> Json.Str t);
    ]

let run_to_json (r : run) =
  Json.Obj
    [
      ("kernel_ms", Json.Float r.kernel_ms);
      ("transfer_ms", Json.Float r.transfer_ms);
      ("code_bytes", Json.Int r.code_bytes);
      ("metrics", Uu_gpusim.Metrics.to_json r.metrics);
      ("launches", Json.Arr (List.map measurement_to_json r.launches));
    ]

let to_json = function
  | Error msg -> Json.Obj [ ("error", Json.Str msg) ]
  | Ok { config; body; compile_seconds; remarks; stats } ->
    let body_fields =
      match body with
      | Compiled { ir; instr_count } ->
        [ ("ir", Json.Str ir); ("instr_count", Json.Int instr_count) ]
      | Measured ms ->
        [ ("measurements", Json.Arr (List.map measurement_to_json ms)) ]
      | Scheduled runs -> [ ("runs", Json.Arr (List.map run_to_json runs)) ]
    in
    Json.Obj
      ([ ("config", Json.Str (Pipelines.config_to_string config)) ]
      @ body_fields
      @ [
          ("compile_seconds", Json.Float compile_seconds);
          ("remarks", Json.Arr (List.map Remark.to_json_value remarks));
          ("stats", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) stats));
        ])

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "response: bad or missing field %S" name)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let metrics_field j =
  match Json.member "metrics" j with
  | None -> Error "response: missing field \"metrics\""
  | Some m -> Uu_gpusim.Metrics.of_json m

let measurement_of_json j =
  let* label = field "label" Json.to_str j in
  let* kernel_cycles = field "kernel_cycles" Json.to_float j in
  let* code_bytes = field "code_bytes" Json.to_int j in
  let* metrics = metrics_field j in
  let* races =
    match Json.member "races" j with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match Json.to_str v with
      | Some r -> Ok (Some r)
      | None -> Error "response: bad field \"races\"")
  in
  (* Absent means untraced: pre-trace responses keep round-tripping. *)
  let* trace =
    match Json.member "trace" j with
    | None | Some Json.Null -> Ok None
    | Some v -> (
      match Json.to_str v with
      | Some t -> Ok (Some t)
      | None -> Error "response: bad field \"trace\"")
  in
  Ok { label; kernel_cycles; code_bytes; metrics; races; trace }

let run_of_json j =
  let* kernel_ms = field "kernel_ms" Json.to_float j in
  let* transfer_ms = field "transfer_ms" Json.to_float j in
  let* code_bytes = field "code_bytes" Json.to_int j in
  let* metrics = metrics_field j in
  let* launches =
    let* items = field "launches" Json.to_list j in
    map_result measurement_of_json items
  in
  Ok { kernel_ms; transfer_ms; code_bytes; metrics; launches }

let of_json j =
  match Option.bind (Json.member "error" j) Json.to_str with
  | Some msg -> Ok (Error msg)
  | None ->
    let* config =
      let* s = field "config" Json.to_str j in
      Pipelines.config_of_string s
    in
    let* body =
      match (Json.member "measurements" j, Json.member "runs" j) with
      | Some _, _ ->
        let* ms = field "measurements" Json.to_list j in
        let* ms = map_result measurement_of_json ms in
        Ok (Measured ms)
      | None, Some _ ->
        let* runs = field "runs" Json.to_list j in
        let* runs = map_result run_of_json runs in
        Ok (Scheduled runs)
      | None, None ->
        let* ir = field "ir" Json.to_str j in
        let* instr_count = field "instr_count" Json.to_int j in
        Ok (Compiled { ir; instr_count })
    in
    let* compile_seconds = field "compile_seconds" Json.to_float j in
    let* remarks =
      let* items = field "remarks" Json.to_list j in
      map_result Remark.of_json_value items
    in
    let* stats =
      let* fields = field "stats" Json.to_obj j in
      map_result
        (fun (k, v) ->
          match Json.to_int v with
          | Some n -> Ok (k, n)
          | None -> Error (Printf.sprintf "response: bad stat %S" k))
        fields
    in
    Ok (Ok { config; body; compile_seconds; remarks; stats })

let to_string t = Json.to_string (to_json t)

let of_string text =
  let* j = Json.of_string text in
  of_json j

let of_cached text =
  match of_string text with
  | Ok (Ok ok) when String.equal (to_string (Ok ok)) text -> Some ok
  | Ok _ | Error _ -> None
