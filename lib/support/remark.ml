type kind = Applied | Missed | Analysis

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool

type t = {
  kind : kind;
  pass : string;
  func : string;
  block : int option;
  message : string;
  args : (string * arg) list;
}

(* Sinks collect in reverse; [remarks] re-reverses. The active sink is
   dynamically scoped and domain-local, so passes can emit without
   threading a sink through every transform helper, and experiment jobs
   running on parallel domains each observe only their own sink;
   [with_sink] nests correctly because it restores whatever was active
   before on the same domain. *)
type sink = t list ref

let create () = ref []
let remarks s = List.rev !s
let clear s = s := []

let active_key : sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let enabled () = Option.is_some (Domain.DLS.get active_key)

let with_sink s body =
  let saved = Domain.DLS.get active_key in
  Domain.DLS.set active_key (Some s);
  Fun.protect ~finally:(fun () -> Domain.DLS.set active_key saved) body

let emit ~kind ~pass ~func ?block ?(args = []) message =
  match Domain.DLS.get active_key with
  | None -> ()
  | Some s -> s := { kind; pass; func; block; message; args } :: !s

let applied ~pass ~func ?block ?args message =
  emit ~kind:Applied ~pass ~func ?block ?args message

let missed ~pass ~func ?block ?args message =
  emit ~kind:Missed ~pass ~func ?block ?args message

let analysis ~pass ~func ?block ?args message =
  emit ~kind:Analysis ~pass ~func ?block ?args message

let find_arg r key = List.assoc_opt key r.args

let int_arg r key =
  match find_arg r key with Some (Int n) -> Some n | Some _ | None -> None

let kind_string = function
  | Applied -> "applied"
  | Missed -> "missed"
  | Analysis -> "analysis"

let arg_string = function
  | Int n -> string_of_int n
  | Float x -> Printf.sprintf "%g" x
  | Str s -> s
  | Bool b -> string_of_bool b

let to_text r =
  let loc = match r.block with Some b -> Printf.sprintf " bb%d" b | None -> "" in
  let args =
    match r.args with
    | [] -> ""
    | _ :: _ ->
      " {"
      ^ String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k (arg_string v)) r.args)
      ^ "}"
  in
  Printf.sprintf "%s: %s: @%s%s: %s%s" (kind_string r.kind) r.pass r.func loc
    r.message args

(* Hand-rolled JSON: the container has no JSON library and the shapes here
   are flat, so a correct string escaper is all that is needed. *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_string s = "\"" ^ json_escape s ^ "\""

let json_float x =
  if Float.is_integer x && Float.abs x < 1e17 then
    Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else json_string (Printf.sprintf "%h" x)

let arg_json = function
  | Int n -> string_of_int n
  | Float x -> json_float x
  | Str s -> json_string s
  | Bool b -> string_of_bool b

let to_json r =
  let fields =
    [
      ("kind", json_string (kind_string r.kind));
      ("pass", json_string r.pass);
      ("function", json_string r.func);
    ]
    @ (match r.block with Some b -> [ ("block", string_of_int b) ] | None -> [])
    @ [ ("message", json_string r.message) ]
    @
    match r.args with
    | [] -> []
    | _ :: _ ->
      [
        ( "args",
          "{"
          ^ String.concat ","
              (List.map (fun (k, v) -> json_string k ^ ":" ^ arg_json v) r.args)
          ^ "}" );
      ]
  in
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let list_to_json rs =
  match rs with
  | [] -> "[]"
  | _ :: _ -> "[\n  " ^ String.concat ",\n  " (List.map to_json rs) ^ "\n]"

let stats_to_json stats =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> json_string k ^ ":" ^ string_of_int v) stats)
  ^ "}"

(* Json.t converters for the result cache, which must read remarks back
   from disk (the string emitters above are write-only). *)

let arg_to_json_value = function
  | Int n -> Json.Int n
  | Float x -> Json.Float x
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let arg_of_json_value = function
  | Json.Int n -> Ok (Int n)
  | Json.Float x -> Ok (Float x)
  | Json.Str s -> Ok (Str s)
  | Json.Bool b -> Ok (Bool b)
  | Json.Null | Json.Arr _ | Json.Obj _ -> Error "remark arg: expected a scalar"

let to_json_value r =
  Json.Obj
    ([
       ("kind", Json.Str (kind_string r.kind));
       ("pass", Json.Str r.pass);
       ("function", Json.Str r.func);
     ]
    @ (match r.block with Some b -> [ ("block", Json.Int b) ] | None -> [])
    @ [ ("message", Json.Str r.message) ]
    @
    match r.args with
    | [] -> []
    | _ :: _ ->
      [ ("args", Json.Obj (List.map (fun (k, v) -> (k, arg_to_json_value v)) r.args)) ])

let of_json_value v =
  let ( let* ) = Result.bind in
  let str field =
    match Json.member field v with
    | Some (Json.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "remark: missing string field %s" field)
  in
  let* kind_s = str "kind" in
  let* kind =
    match kind_s with
    | "applied" -> Ok Applied
    | "missed" -> Ok Missed
    | "analysis" -> Ok Analysis
    | other -> Error (Printf.sprintf "remark: unknown kind %s" other)
  in
  let* pass = str "pass" in
  let* func = str "function" in
  let* message = str "message" in
  let* block =
    match Json.member "block" v with
    | None -> Ok None
    | Some (Json.Int b) -> Ok (Some b)
    | Some _ -> Error "remark: block must be an integer"
  in
  let* args =
    match Json.member "args" v with
    | None -> Ok []
    | Some (Json.Obj fields) ->
      List.fold_left
        (fun acc (k, jv) ->
          let* acc = acc in
          let* a = arg_of_json_value jv in
          Ok ((k, a) :: acc))
        (Ok []) fields
      |> Result.map List.rev
    | Some _ -> Error "remark: args must be an object"
  in
  Ok { kind; pass; func; block; message; args }
