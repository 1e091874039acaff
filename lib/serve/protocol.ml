open Uu_support

let default_socket () =
  match Sys.getenv_opt "UU_SERVE_SOCKET" with
  | Some path when path <> "" -> path
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "uu-serve.sock"

let max_frame = 64 * 1024 * 1024

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Protocol_error msg)) fmt

(* --- framing: 4-byte big-endian length, then that many JSON bytes --- *)

(* A frame whose [n]-byte payload is the concatenation of [parts]. *)
let frame_of_parts n parts =
  if n > max_frame then fail "frame too large (%d bytes)" n;
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  ignore
    (List.fold_left
       (fun off part ->
         Bytes.blit_string part 0 b off (String.length part);
         off + String.length part)
       4 parts);
  Bytes.unsafe_to_string b

let encode_frame json =
  let payload = Json.to_string json in
  frame_of_parts (String.length payload) [ payload ]

let write_frame oc json =
  output_string oc (encode_frame json);
  flush oc

(* [None] on clean EOF at a frame boundary; mid-frame EOF, an oversized
   length, or unparsable payload raise [Protocol_error]. *)
let read_frame ic =
  match really_input_string ic 4 with
  | exception End_of_file -> None
  | header ->
    let n =
      (Char.code header.[0] lsl 24)
      lor (Char.code header.[1] lsl 16)
      lor (Char.code header.[2] lsl 8)
      lor Char.code header.[3]
    in
    if n > max_frame then fail "frame too large (%d bytes)" n;
    let payload =
      try really_input_string ic n
      with End_of_file -> fail "connection closed mid-frame (wanted %d bytes)" n
    in
    (match Json.of_string payload with
    | Ok json -> Some json
    | Error msg -> fail "bad frame payload: %s" msg)

(* --- incremental codec ---------------------------------------------- *)

(* The reactor reads whatever the kernel has — which can split a frame
   anywhere, including inside the 4-byte length prefix — so decoding
   must be resumable: bytes are appended as they arrive and frames are
   extracted as soon as they are whole. One codec per connection. *)
module Codec = struct
  type t = {
    mutable buf : Bytes.t;
    mutable start : int;  (* first unconsumed byte *)
    mutable stop : int;  (* one past the last valid byte *)
  }

  let create () = { buf = Bytes.create 4096; start = 0; stop = 0 }
  let buffered t = t.stop - t.start

  let compact t =
    if t.start > 0 then begin
      let n = buffered t in
      Bytes.blit t.buf t.start t.buf 0 n;
      t.start <- 0;
      t.stop <- n
    end

  let ensure t extra =
    if t.stop + extra > Bytes.length t.buf then begin
      compact t;
      if t.stop + extra > Bytes.length t.buf then begin
        let cap = ref (Bytes.length t.buf) in
        while t.stop + extra > !cap do
          cap := !cap * 2
        done;
        let bigger = Bytes.create !cap in
        Bytes.blit t.buf 0 bigger 0 t.stop;
        t.buf <- bigger
      end
    end

  let feed t s ~off ~len =
    if off < 0 || len < 0 || off + len > String.length s then
      invalid_arg "Codec.feed";
    ensure t len;
    Bytes.blit_string s off t.buf t.stop len;
    t.stop <- t.stop + len

  (* [Some frame] when a whole frame is buffered, [None] when more bytes
     are needed. The length prefix is validated as soon as its 4 bytes
     are in, so an oversized frame is rejected before its body is ever
     accumulated. *)
  let next t =
    if buffered t < 4 then None
    else begin
      let byte i = Bytes.get_uint8 t.buf (t.start + i) in
      let n =
        (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3
      in
      if n > max_frame then fail "frame too large (%d bytes)" n;
      if buffered t < 4 + n then None
      else begin
        let payload = Bytes.sub_string t.buf (t.start + 4) n in
        t.start <- t.start + 4 + n;
        if t.start = t.stop then begin
          t.start <- 0;
          t.stop <- 0
        end;
        match Json.of_string payload with
        | Ok json -> Some json
        | Error msg -> fail "bad frame payload: %s" msg
      end
    end
end

(* --- TCP addresses -------------------------------------------------- *)

let parse_tcp spec =
  match String.rindex_opt spec ':' with
  | None -> Error (Printf.sprintf "%s: expected HOST:PORT" spec)
  | Some i -> (
    let host = String.sub spec 0 i in
    let host = if host = "" then "127.0.0.1" else host in
    match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
    | Some port when port >= 0 && port < 65536 -> Ok (host, port)
    | Some _ | None -> Error (Printf.sprintf "%s: bad port" spec))

let resolve_tcp (host, port) =
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
        failwith (Printf.sprintf "cannot resolve host %s" host)
      | { Unix.h_addr_list; _ } -> h_addr_list.(0))
  in
  Unix.ADDR_INET (addr, port)

(* --- typed messages ------------------------------------------------- *)

type client_msg =
  | Request of { id : int; request : Request.t }
  | Stats
  | Ping
  | Shutdown

type served = Executed | Cache | Joined

type server_msg =
  | Hello of { version : string; pipelines : string; semantics : string }
  | Result of { id : int; served : served; response : Response.t }
  | Busy of { id : int; queued : int; limit : int }
  | Stats_reply of (string * int) list
  | Pong
  | Bye
  | Error_msg of { id : int option; message : string }

let served_string = function
  | Executed -> "executed"
  | Cache -> "cache"
  | Joined -> "joined"

let served_of_string = function
  | "executed" -> Some Executed
  | "cache" -> Some Cache
  | "joined" -> Some Joined
  | _ -> None

let client_to_json = function
  | Request { id; request } ->
    Json.Obj
      [
        ("op", Json.Str "request");
        ("id", Json.Int id);
        ("request", Request.to_json request);
      ]
  | Stats -> Json.Obj [ ("op", Json.Str "stats") ]
  | Ping -> Json.Obj [ ("op", Json.Str "ping") ]
  | Shutdown -> Json.Obj [ ("op", Json.Str "shutdown") ]

let ( let* ) = Result.bind

let client_of_json j =
  match Option.bind (Json.member "op" j) Json.to_str with
  | Some "request" ->
    let* id =
      match Option.bind (Json.member "id" j) Json.to_int with
      | Some id -> Ok id
      | None -> Error "request frame: bad or missing id"
    in
    let* request =
      match Json.member "request" j with
      | None -> Error "request frame: missing request"
      | Some r -> Request.of_json r
    in
    Ok (Request { id; request })
  | Some "stats" -> Ok Stats
  | Some "ping" -> Ok Ping
  | Some "shutdown" -> Ok Shutdown
  | Some other -> Error (Printf.sprintf "unknown op %S" other)
  | None -> Error "frame without an op"

let server_to_json = function
  | Hello { version; pipelines; semantics } ->
    Json.Obj
      [
        ("frame", Json.Str "hello");
        ("uu", Json.Str version);
        ("pipelines", Json.Str pipelines);
        ("semantics", Json.Str semantics);
      ]
  | Result { id; served; response } ->
    Json.Obj
      [
        ("frame", Json.Str "result");
        ("id", Json.Int id);
        ("served", Json.Str (served_string served));
        ("response", Response.to_json response);
      ]
  | Busy { id; queued; limit } ->
    Json.Obj
      [
        ("frame", Json.Str "busy");
        ("id", Json.Int id);
        ("queued", Json.Int queued);
        ("limit", Json.Int limit);
      ]
  | Stats_reply stats ->
    Json.Obj
      [
        ("frame", Json.Str "stats");
        ("stats", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) stats));
      ]
  | Pong -> Json.Obj [ ("frame", Json.Str "pong") ]
  | Bye -> Json.Obj [ ("frame", Json.Str "bye") ]
  | Error_msg { id; message } ->
    Json.Obj
      ([ ("frame", Json.Str "error") ]
      @ (match id with None -> [] | Some id -> [ ("id", Json.Int id) ])
      @ [ ("message", Json.Str message) ])

let server_of_json j =
  match Option.bind (Json.member "frame" j) Json.to_str with
  | Some "hello" ->
    let str name =
      match Option.bind (Json.member name j) Json.to_str with
      | Some s -> Ok s
      | None -> Error (Printf.sprintf "hello frame: bad or missing %S" name)
    in
    let* version = str "uu" in
    let* pipelines = str "pipelines" in
    let* semantics = str "semantics" in
    Ok (Hello { version; pipelines; semantics })
  | Some "result" ->
    let* id =
      match Option.bind (Json.member "id" j) Json.to_int with
      | Some id -> Ok id
      | None -> Error "result frame: bad or missing id"
    in
    let* served =
      match
        Option.bind
          (Option.bind (Json.member "served" j) Json.to_str)
          served_of_string
      with
      | Some s -> Ok s
      | None -> Error "result frame: bad or missing served"
    in
    let* response =
      match Json.member "response" j with
      | None -> Error "result frame: missing response"
      | Some r -> Response.of_json r
    in
    Ok (Result { id; served; response })
  | Some "busy" ->
    let int name =
      match Option.bind (Json.member name j) Json.to_int with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "busy frame: bad or missing %S" name)
    in
    let* id = int "id" in
    let* queued = int "queued" in
    let* limit = int "limit" in
    Ok (Busy { id; queued; limit })
  | Some "stats" ->
    let* fields =
      match Option.bind (Json.member "stats" j) Json.to_obj with
      | Some fields -> Ok fields
      | None -> Error "stats frame: bad or missing stats"
    in
    let* stats =
      List.fold_left
        (fun acc (k, v) ->
          let* acc = acc in
          match Json.to_int v with
          | Some n -> Ok ((k, n) :: acc)
          | None -> Error (Printf.sprintf "stats frame: bad counter %S" k))
        (Ok []) fields
    in
    Ok (Stats_reply (List.rev stats))
  | Some "pong" -> Ok Pong
  | Some "bye" -> Ok Bye
  | Some "error" ->
    let* message =
      match Option.bind (Json.member "message" j) Json.to_str with
      | Some m -> Ok m
      | None -> Error "error frame: bad or missing message"
    in
    Ok (Error_msg { id = Option.bind (Json.member "id" j) Json.to_int; message })
  | Some other -> Error (Printf.sprintf "unknown frame %S" other)
  | None -> Error "frame without a frame tag"

(* The bytes [encode_frame (server_to_json (Result ...))] writes, with
   the response's serialized text spliced in as is: [Json.to_string]
   prints the frame's fields in this order and without spaces. *)
let result_frame ~id ~served text =
  let prefix =
    Printf.sprintf {|{"frame":"result","id":%d,"served":"%s","response":|} id
      (served_string served)
  in
  frame_of_parts
    (String.length prefix + String.length text + 1)
    [ prefix; text; "}" ]

let write_client oc msg = write_frame oc (client_to_json msg)

let read_server ic =
  match read_frame ic with
  | None -> None
  | Some j -> (
    match server_of_json j with
    | Ok msg -> Some msg
    | Error e -> fail "%s" e)
