(* The serve workload's request mix: each client draws from its own stream
   of the workload seed, so a seed fixes every client's sequence of
   operations regardless of how the clients interleave.

   The mix is stratified so that every stretch of requests carries the
   same work: each block of [fresh_one_in] requests holds exactly one
   fresh request, at a seeded position, and fresh requests deal their base
   from a shuffled deck, so each base comes up once per [fresh] fresh
   requests. *)

type op =
  | Hit of int  (** repeat hit-set request [i], served from the result cache *)
  | Fresh of int
      (** fresh-eligible request [i] under a noise seed never used before *)

type t = {
  rng : Uu_support.Rng.t;
  hits : int;
  fresh_one_in : int;
  deck : int array;
  mutable dealt : int;  (* cards of [deck] dealt since its last shuffle *)
  mutable pos : int;  (* position within the current block *)
  mutable fresh_at : int;  (* the current block's fresh position *)
}

let create ~seed ~client ~hits ~fresh ~fresh_one_in =
  if hits <= 0 || fresh <= 0 || fresh_one_in <= 0 then invalid_arg "Mix.create";
  {
    rng = Uu_support.Rng.stream (Int64.of_int seed) client;
    hits;
    fresh_one_in;
    deck = Array.init fresh Fun.id;
    dealt = 0;
    pos = 0;
    fresh_at = 0;
  }

let deal t =
  let n = Array.length t.deck in
  if t.dealt = 0 then
    for i = n - 1 downto 1 do
      let j = Uu_support.Rng.int t.rng (i + 1) in
      let x = t.deck.(i) in
      t.deck.(i) <- t.deck.(j);
      t.deck.(j) <- x
    done;
  let card = t.deck.(t.dealt) in
  t.dealt <- (t.dealt + 1) mod n;
  card

let next t =
  if t.pos = 0 then t.fresh_at <- Uu_support.Rng.int t.rng t.fresh_one_in;
  let op = if t.pos = t.fresh_at then Fresh (deal t) else Hit (Uu_support.Rng.int t.rng t.hits) in
  t.pos <- (t.pos + 1) mod t.fresh_one_in;
  op
