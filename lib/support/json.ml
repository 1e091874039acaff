type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let escape s =
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

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (string_of_bool b)
    | Int n -> Buffer.add_string buf (string_of_int n)
    | Float x ->
      (* Keep floats recognizable as floats so the parser restores the
         constructor; %.17g round-trips every finite double exactly, but
         writes an integral one below 1e17 with neither a fraction nor an
         exponent, and %.1f prints such a double exactly. *)
      if not (Float.is_finite x) then
        Buffer.add_string buf
          (if Float.is_nan x then "\"nan\"" else if x > 0.0 then "\"inf\"" else "\"-inf\"")
      else if Float.is_integer x && Float.abs x < 1e17 then
        Buffer.add_string buf (Printf.sprintf "%.1f" x)
      else Buffer.add_string buf (Printf.sprintf "%.17g" x)
    | Str s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          go item)
        fields;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

exception Parse_error of string

(* The parser reads bytes in place with [String.unsafe_get] behind
   explicit bounds checks: it allocates nothing per byte, and an
   unescaped string run becomes one [String.sub]. Errors name the offset
   where they were detected. *)
type reader = { s : string; n : int; mutable pos : int }

let fail r msg = raise (Parse_error (Printf.sprintf "at offset %d: %s" r.pos msg))

let rec skip_ws r =
  if r.pos < r.n then
    match String.unsafe_get r.s r.pos with
    | ' ' | '\t' | '\n' | '\r' ->
      r.pos <- r.pos + 1;
      skip_ws r
    | _ -> ()

let expect r c =
  if r.pos >= r.n then fail r (Printf.sprintf "expected %c, found end of input" c);
  let c' = String.unsafe_get r.s r.pos in
  if c' = c then r.pos <- r.pos + 1
  else fail r (Printf.sprintf "expected %c, found %c" c c')

let literal r word value =
  let len = String.length word in
  let rec matches i =
    i = len || (String.unsafe_get r.s (r.pos + i) = String.unsafe_get word i && matches (i + 1))
  in
  if r.pos + len <= r.n && matches 0 then begin
    r.pos <- r.pos + len;
    value
  end
  else fail r ("expected " ^ word)

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

(* The end of the run of bytes from [i] that need no unescaping: the
   next quote or backslash, or the end of the input. *)
let rec run_end r i =
  if i < r.n then
    match String.unsafe_get r.s i with '"' | '\\' -> i | _ -> run_end r (i + 1)
  else i

(* One escape; [r.pos] is just past its backslash. *)
let parse_escape r buf =
  if r.pos >= r.n then fail r "unterminated escape";
  let simple c =
    Buffer.add_char buf c;
    r.pos <- r.pos + 1
  in
  match String.unsafe_get r.s r.pos with
  | ('"' | '\\' | '/') as c -> simple c
  | 'b' -> simple '\b'
  | 'f' -> simple '\012'
  | 'n' -> simple '\n'
  | 'r' -> simple '\r'
  | 't' -> simple '\t'
  | 'u' ->
    r.pos <- r.pos + 1;
    if r.pos + 4 > r.n then fail r "truncated \\u escape";
    let hex = String.sub r.s r.pos 4 in
    let cp =
      try int_of_string ("0x" ^ hex)
      with _ -> fail r (Printf.sprintf "bad \\u escape %s" hex)
    in
    r.pos <- r.pos + 4;
    add_utf8 buf cp
  | c -> fail r (Printf.sprintf "bad escape \\%c" c)

let parse_string r =
  expect r '"';
  let start = r.pos in
  let stop = run_end r start in
  if stop < r.n && String.unsafe_get r.s stop = '"' then begin
    r.pos <- stop + 1;
    String.sub r.s start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf r.s start (stop - start);
    r.pos <- stop;
    let rec go () =
      if r.pos >= r.n then fail r "unterminated string";
      match String.unsafe_get r.s r.pos with
      | '"' -> r.pos <- r.pos + 1
      | '\\' ->
        r.pos <- r.pos + 1;
        parse_escape r buf;
        go ()
      | _ ->
        let stop = run_end r r.pos in
        Buffer.add_substring buf r.s r.pos (stop - r.pos);
        r.pos <- stop;
        go ()
    in
    go ();
    Buffer.contents buf
  end

(* Advance over a number's bytes; [true] when one of them makes it a
   float. *)
let rec scan_number r is_float =
  if r.pos >= r.n then is_float
  else
    match String.unsafe_get r.s r.pos with
    | '0' .. '9' | '-' | '+' ->
      r.pos <- r.pos + 1;
      scan_number r is_float
    | '.' | 'e' | 'E' ->
      r.pos <- r.pos + 1;
      scan_number r true
    | _ -> is_float

let parse_number r =
  let start = r.pos in
  let is_float = scan_number r false in
  let text = String.sub r.s start (r.pos - start) in
  if is_float then
    match float_of_string_opt text with
    | Some x -> Float x
    | None -> fail r (Printf.sprintf "bad number %s" text)
  else
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
      match float_of_string_opt text with
      | Some x -> Float x
      | None -> fail r (Printf.sprintf "bad number %s" text))

let at r c = r.pos < r.n && String.unsafe_get r.s r.pos = c

let rec parse_value r =
  skip_ws r;
  if r.pos >= r.n then fail r "unexpected end of input";
  match String.unsafe_get r.s r.pos with
  | 'n' -> literal r "null" Null
  | 't' -> literal r "true" (Bool true)
  | 'f' -> literal r "false" (Bool false)
  | '"' -> Str (parse_string r)
  | '[' ->
    r.pos <- r.pos + 1;
    skip_ws r;
    if at r ']' then begin
      r.pos <- r.pos + 1;
      Arr []
    end
    else Arr (parse_items r [ parse_value r ])
  | '{' ->
    r.pos <- r.pos + 1;
    skip_ws r;
    if at r '}' then begin
      r.pos <- r.pos + 1;
      Obj []
    end
    else Obj (parse_fields r [ parse_field r ])
  | '0' .. '9' | '-' -> parse_number r
  | c -> fail r (Printf.sprintf "unexpected character %c" c)

(* The rest of an array whose first items, newest first, are [acc]. *)
and parse_items r acc =
  skip_ws r;
  if at r ',' then begin
    r.pos <- r.pos + 1;
    parse_items r (parse_value r :: acc)
  end
  else if at r ']' then begin
    r.pos <- r.pos + 1;
    List.rev acc
  end
  else fail r "expected , or ] in array"

and parse_field r =
  skip_ws r;
  let k = parse_string r in
  skip_ws r;
  expect r ':';
  (k, parse_value r)

and parse_fields r acc =
  skip_ws r;
  if at r ',' then begin
    r.pos <- r.pos + 1;
    parse_fields r (parse_field r :: acc)
  end
  else if at r '}' then begin
    r.pos <- r.pos + 1;
    List.rev acc
  end
  else fail r "expected , or } in object"

let of_string s =
  let r = { s; n = String.length s; pos = 0 } in
  match parse_value r with
  | exception Parse_error msg -> Error msg
  | v ->
    skip_ws r;
    if r.pos < r.n then Error (Printf.sprintf "trailing garbage at offset %d" r.pos)
    else Ok v

let of_string_exn s =
  match of_string s with Ok v -> v | Error msg -> failwith ("Json.of_string: " ^ msg)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int n -> Some n | _ -> None

let to_float = function
  | Float x -> Some x
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_bool = function Bool b -> Some b | _ -> None
let to_list = function Arr items -> Some items | _ -> None
let to_obj = function Obj fields -> Some fields | _ -> None
