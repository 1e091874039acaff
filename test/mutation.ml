(* Byte-level mutation of text inputs for the fuzz properties: a corpus
   entry under a few random edits. *)

(* One edit of an input; positions are fractions of its length, so an
   edit applies to any input. *)
type mutation =
  | Flip of float * int  (** flip one bit of a byte *)
  | Set of float * char
  | Insert of float * char
  | Delete of float * int  (** drop up to this many bytes *)
  | Repeat of float * int  (** repeat up to this many bytes in place *)
  | Cut of float  (** truncate *)

(* Inserted and overwritten bytes are arbitrary half the time, and taken
   from [alphabet], the input language's own punctuation, otherwise. *)
let gen ~alphabet =
  let open QCheck2.Gen in
  let at = float_bound_inclusive 1.0 in
  let byte = oneof [ char; oneofl (List.of_seq (String.to_seq alphabet)) ] in
  oneof
    [
      map2 (fun p b -> Flip (p, b)) at (int_bound 7);
      map2 (fun p c -> Set (p, c)) at byte;
      map2 (fun p c -> Insert (p, c)) at byte;
      map2 (fun p l -> Delete (p, l)) at (int_range 1 16);
      map2 (fun p l -> Repeat (p, l)) at (int_range 1 16);
      map (fun p -> Cut p) at;
    ]

let mutate s m =
  let n = String.length s in
  let pos p = min n (int_of_float (p *. float_of_int n)) in
  let splice i drop ins = String.sub s 0 i ^ ins ^ String.sub s (i + drop) (n - i - drop) in
  match m with
  | Flip (p, b) when pos p < n ->
    let i = pos p in
    splice i 1 (String.make 1 (Char.chr (Char.code s.[i] lxor (1 lsl b))))
  | Set (p, c) when pos p < n -> splice (pos p) 1 (String.make 1 c)
  | Flip _ | Set _ -> s
  | Insert (p, c) -> splice (pos p) 0 (String.make 1 c)
  | Delete (p, l) -> splice (pos p) (min l (n - pos p)) ""
  | Repeat (p, l) -> splice (pos p) 0 (String.sub s (pos p) (min l (n - pos p)))
  | Cut p -> String.sub s 0 (pos p)

(* A corpus entry, picked by index, under one to four mutations. *)
let mutated ~alphabet corpus =
  QCheck2.Gen.(
    map2
      (fun i ms ->
        let seeds = Lazy.force corpus in
        List.fold_left mutate seeds.(i mod Array.length seeds) ms)
      nat
      (list_size (int_range 1 4) (gen ~alphabet)))

let show s =
  Printf.sprintf "%S%s" (String.sub s 0 (min 400 (String.length s)))
    (if String.length s > 400 then "..." else "")

(* A property over a fixed QCheck seed, so [dune runtest] replays the
   same inputs every run. *)
let to_alcotest ~seed t =
  QCheck_alcotest.to_alcotest ~long:false ~rand:(Random.State.make [| seed |]) t
