(* A fixed reference kernel, independent of the repository's code: integer
   hashing with dependent random reads and writes, first over a 512 KiB
   table that fits a core's L2 cache, then over a 4 MiB table that does
   not. Its time tracks how fast the host runs at that moment.

   Each phase alone tracked one kind of measured work: the L2 phase a
   compile-heavy sweep, the 4 MiB phase a simulation. Together they cut
   the drift of the calibrated time to a third of the measured drift for
   both. The kernel allocates nothing, so its time does not depend on the
   heap the measured work left behind, and its tables live outside the
   OCaml heap, so they do not change how that heap grows. *)

let small = 1 lsl 16
let large = 1 lsl 19

(* One pair of tables per domain, allocated on first use. *)
let tables = ref [||]

let table size =
  let t = Bigarray.(Array1.create int c_layout size) in
  Bigarray.Array1.fill t 0;
  t

let walk (t : (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t) size steps seed =
  let x = ref (0x2545F491 + seed) in
  for _ = 1 to steps do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    let i = (v lxor t.{v land (size - 1)}) land (size - 1) in
    t.{i} <- t.{i} + v;
    x := v
  done;
  ignore (Sys.opaque_identity !x)

let kernel (s, l) seed () =
  walk s small 3_000_000 seed;
  walk l large 600_000 seed

(* One timing of the kernel on [domains] domains at once. *)
let once ~domains =
  if Array.length !tables < domains then
    tables := Array.init domains (fun _ -> (table small, table large));
  let t = !tables in
  snd
    (Clock.time (fun () ->
         let others = List.init (domains - 1) (fun i -> Domain.spawn (kernel t.(i + 1) (i + 1))) in
         kernel t.(0) 0 ();
         List.iter Domain.join others))
