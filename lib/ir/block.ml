type t = {
  label : Value.label;
  mutable phis : Instr.phi list;
  mutable instrs : Instr.t list;
  mutable term : Instr.terminator;
  mutable hint : string;
}

let create ?(hint = "") label = { label; phis = []; instrs = []; term = Instr.Unreachable; hint }

let successors b = Instr.successors b.term

let defs b =
  List.map (fun (p : Instr.phi) -> p.dst) b.phis
  @ List.filter_map Instr.def b.instrs

let map_values f b =
  let map_phi (p : Instr.phi) =
    { p with incoming = List.map (fun (l, v) -> (l, f v)) p.incoming }
  in
  b.phis <- List.map map_phi b.phis;
  b.instrs <- List.map (Instr.map_values f) b.instrs;
  b.term <- Instr.term_map_values f b.term

let remove_incoming pred b =
  let drop (p : Instr.phi) =
    { p with incoming = List.filter (fun (l, _) -> l <> pred) p.incoming }
  in
  b.phis <- List.map drop b.phis

let has_convergent b = List.exists Instr.is_convergent b.instrs
