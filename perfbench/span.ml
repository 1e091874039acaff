(* Named, nested spans and counters, recorded by the benchmark's own code
   around each call it makes into a layer. Every domain appends to its own
   buffer (domain-local storage), so recording takes no lock; the buffers
   are read once, when the run ends. Recording is off unless [enable] was
   called, and then [with_] is a plain call. *)

type event = {
  name : string;
  parent : int;  (* index of the enclosing span in the same buffer; -1 for a root *)
  t0 : int64;
  mutable t1 : int64;
}

type buffer = {
  domain : int;
  mutable events : event array;
  mutable len : int;
  mutable open_ : int list;  (* innermost first *)
  counts : (string, int) Hashtbl.t;
}

let on = Atomic.make false
let enable () = Atomic.set on true

let registry = ref []
let registry_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          domain = (Domain.self () :> int);
          events = [||];
          len = 0;
          open_ = [];
          counts = Hashtbl.create 16;
        }
      in
      Mutex.lock registry_lock;
      registry := b :: !registry;
      Mutex.unlock registry_lock;
      b)

let push b e =
  if b.len = Array.length b.events then begin
    let grown = Array.make (max 1024 (2 * b.len)) e in
    Array.blit b.events 0 grown 0 b.len;
    b.events <- grown
  end;
  b.events.(b.len) <- e;
  b.len <- b.len + 1

let with_ name f =
  if not (Atomic.get on) then f ()
  else begin
    let b = Domain.DLS.get key in
    let parent = match b.open_ with p :: _ -> p | [] -> -1 in
    let e = { name; parent; t0 = Clock.now (); t1 = 0L } in
    let idx = b.len in
    push b e;
    b.open_ <- idx :: b.open_;
    let close () =
      e.t1 <- Clock.now ();
      b.open_ <- List.tl b.open_
    in
    match f () with
    | v ->
      close ();
      v
    | exception ex ->
      close ();
      raise ex
  end

let count name n =
  if Atomic.get on then begin
    let b = Domain.DLS.get key in
    Hashtbl.replace b.counts name (n + Option.value ~default:0 (Hashtbl.find_opt b.counts name))
  end

(* --- analysis (after the run) ---------------------------------------- *)

let duration e = Clock.to_s (Int64.sub e.t1 e.t0)

(* A span's self time is its duration minus the part its direct children
   cover. Children nest inside their parent on one domain, so their
   coverage is the sum of their durations. Returns per-name totals. *)
let self_times events =
  let child = Array.make (Array.length events) 0.0 in
  Array.iter
    (fun e -> if e.parent >= 0 then child.(e.parent) <- child.(e.parent) +. duration e)
    events;
  let totals = Hashtbl.create 32 in
  Array.iteri
    (fun i e ->
      let self = duration e -. child.(i) in
      Hashtbl.replace totals e.name
        (self +. Option.value ~default:0.0 (Hashtbl.find_opt totals e.name)))
    events;
  List.sort compare (List.of_seq (Hashtbl.to_seq totals))

(* Time the root spans of one buffer cover: the domain's busy time. *)
let busy events =
  Array.fold_left (fun acc e -> if e.parent < 0 then acc +. duration e else acc) 0.0 events

type domain_summary = {
  d_domain : int;
  d_events : event array;
  d_counts : (string * int) list;
}

let collect () =
  Mutex.lock registry_lock;
  let bs = !registry in
  Mutex.unlock registry_lock;
  List.filter_map
    (fun b ->
      if b.len = 0 && Hashtbl.length b.counts = 0 then None
      else
        Some
          {
            d_domain = b.domain;
            d_events = Array.sub b.events 0 b.len;
            d_counts = List.of_seq (Hashtbl.to_seq b.counts);
          })
    (List.sort (fun a b -> compare a.domain b.domain) bs)

(* Written as one line per span, so a run's trace can be inspected or
   re-aggregated without rerunning it. *)
let write_tsv path summaries =
  let oc = open_out path in
  output_string oc "domain\tindex\tparent\tname\tstart_ns\tend_ns\n";
  List.iter
    (fun d ->
      Array.iteri
        (fun i e ->
          Printf.fprintf oc "%d\t%d\t%d\t%s\t%Ld\t%Ld\n" d.d_domain i e.parent e.name e.t0
            e.t1)
        d.d_events)
    summaries;
  close_out oc
