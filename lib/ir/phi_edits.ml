(* A phi's entries as loaded, plus the edits made since. Every edit
   takes the next tick of [clock]; the loaded entries have tick 0. An
   entry is live while its tick is above its label's last drop, so a
   drop kills every entry its label has so far and none appended later,
   which is what [List.filter] then [@] leave. *)
type label_state = {
  mutable dropped_at : int;  (** tick of the last drop; -1 if none *)
  mutable first : Value.t option;  (** value of the oldest live entry *)
}

type phi = {
  phi : Instr.phi;
  labels : (Value.label, label_state) Hashtbl.t;
  mutable appended : ((Value.label * Value.t) * int) list;  (** newest first *)
  mutable edited : bool;
}

type t = {
  joins : (Value.label, Block.t * phi list) Hashtbl.t;
  mutable clock : int;
}

let create () = { joins = Hashtbl.create 16; clock = 1 }

let tick t =
  let c = t.clock in
  t.clock <- c + 1;
  c

let state (e : phi) l =
  match Hashtbl.find_opt e.labels l with
  | Some st -> st
  | None ->
    let st = { dropped_at = -1; first = None } in
    Hashtbl.replace e.labels l st;
    st

let load (p : Instr.phi) =
  let e = { phi = p; labels = Hashtbl.create 16; appended = []; edited = false } in
  List.iter
    (fun (l, v) ->
      let st = state e l in
      if Option.is_none st.first then st.first <- Some v)
    p.incoming;
  e

let phis t (b : Block.t) =
  match Hashtbl.find_opt t.joins b.label with
  | Some (_, es) -> es
  | None ->
    let es = List.map load b.phis in
    Hashtbl.replace t.joins b.label (b, es);
    es

let phi (e : phi) = e.phi

let first (e : phi) l =
  match Hashtbl.find_opt e.labels l with Some st -> st.first | None -> None

let drop t (e : phi) l =
  let st = state e l in
  st.dropped_at <- tick t;
  st.first <- None;
  e.edited <- true

let append t (e : phi) l v =
  let st = state e l in
  if Option.is_none st.first then st.first <- Some v;
  e.appended <- ((l, v), tick t) :: e.appended;
  e.edited <- true

(* The live entries in list order: the loaded ones first, then the
   appended ones, oldest first (the fold over a newest-first list
   conses the oldest last). *)
let incoming (e : phi) =
  let live tick (l, _) = tick > (Hashtbl.find e.labels l).dropped_at in
  List.filter (live 0) e.phi.incoming
  @ List.fold_left
      (fun acc (entry, tick) -> if live tick entry then entry :: acc else acc)
      [] e.appended

let flush t =
  Hashtbl.iter
    (fun _ ((b : Block.t), es) ->
      if List.exists (fun e -> e.edited) es then
        b.phis <-
          List.map
            (fun e -> if e.edited then { e.phi with Instr.incoming = incoming e } else e.phi)
            es)
    t.joins;
  Hashtbl.reset t.joins
