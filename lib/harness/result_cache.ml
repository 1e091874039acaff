type t = {
  cache_dir : string;
  mutable hit_count : int;
  mutable miss_count : int;
  mutable corrupt_count : int;
}

let create ~dir = { cache_dir = dir; hit_count = 0; miss_count = 0; corrupt_count = 0 }
let dir t = t.cache_dir
let hits t = t.hit_count
let misses t = t.miss_count
let corrupt t = t.corrupt_count

(* Entries fan out over 256 shard directories keyed by the first two hex
   digits of the key — [<dir>/ab/<key>.json] — so the store stays a
   small-directory workload at millions of entries. Keys are content
   hashes (hex digests), so the fan-out is uniform by construction. *)
let shard_of key = if String.length key >= 2 then String.sub key 0 2 else key

let path_of t ~key =
  Filename.concat (Filename.concat t.cache_dir (shard_of key)) (key ^ ".json")

(* --- the entry format ------------------------------------------------ *)

let md5 s = Digest.to_hex (Digest.string s)

let wrap payload =
  Printf.sprintf "uu-cache 1 %d %s\n%s" (String.length payload) (md5 payload) payload

(* The payload, if the header is ours and the length and digest match. *)
let unwrap text =
  match String.index_opt text '\n' with
  | None -> None
  | Some nl -> (
    let body = String.length text - nl - 1 in
    match String.split_on_char ' ' (String.sub text 0 nl) with
    | [ "uu-cache"; "1"; len; digest ] when int_of_string_opt len = Some body ->
      let payload = String.sub text (nl + 1) body in
      if md5 payload = digest then Some payload else None
    | _ -> None)

(* --- the store ----------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lookup_raw t ~key =
  let path = path_of t ~key in
  let entry = try Some (read_file path) with Sys_error _ -> None in
  match Option.map unwrap entry with
  | Some (Some payload) ->
    t.hit_count <- t.hit_count + 1;
    Some payload
  | Some None ->
    Printf.eprintf "warning: dropping corrupt cache entry %s\n%!" path;
    (try Sys.remove path with Sys_error _ -> ());
    t.corrupt_count <- t.corrupt_count + 1;
    t.miss_count <- t.miss_count + 1;
    None
  | None ->
    t.miss_count <- t.miss_count + 1;
    None

(* Atomic store: write to a process-unique temporary in the shard
   directory, then rename. Several daemons may share one cache
   directory; identical keys hold identical bytes (keys are content
   hashes of the request identity and responses are deterministic), so
   a lost rename race still installs the right content. *)
let store_raw t ~key payload =
  let path = path_of t ~key in
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  Report.write_text ~path:tmp (wrap payload);
  Sys.rename tmp path
