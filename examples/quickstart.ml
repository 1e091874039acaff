(* Quickstart: the library in one page.

   1. Write a GPU kernel in MiniCUDA.
   2. Compile it under the baseline pipeline and under unroll-and-unmerge.
   3. Run both on the SIMT simulator and compare results and cycles.

   Run with: dune exec examples/quickstart.exe *)

let source =
  {|
kernel saxpy_gated(float* restrict y, const float* restrict x,
                   int n, int warm, float a) {
  int tid = threadIdx.x + blockIdx.x * blockDim.x;
  if (tid < n) {
    float acc = 0.0;
    int w = warm;
    int i = 0;
    while (i < 16) {
      float v = x[tid] * (float)(i + 1);
      if (w > 0) {
        acc = acc + v / a;   /* expensive warm-up path, dies after w steps */
        w = w - 1;
      } else {
        acc = acc + v * 0.5;
      }
      i = i + 1;
    }
    y[tid] = acc;
  }
}
|}

let run config =
  (* Compile. *)
  let m = Uu_frontend.Lower.compile ~name:"quickstart" source in
  let kernel = List.hd m.Uu_ir.Func.funcs in
  let report = Uu_core.Pipelines.optimize config kernel in

  (* Set up device memory. *)
  let mem = Uu_gpusim.Memory.create () in
  let n = 1024 in
  let x = Uu_gpusim.Memory.alloc_f64 mem (Array.init n (fun i -> float_of_int i /. 100.0)) in
  let y = Uu_gpusim.Memory.zeros_f64 mem n in

  (* Launch. *)
  let result =
    Uu_gpusim.Kernel.exec mem kernel ~grid_dim:8 ~block_dim:128
      ~args:
        [
          Uu_gpusim.Kernel.Buf y; Uu_gpusim.Kernel.Buf x;
          Uu_gpusim.Kernel.Int_arg (Int64.of_int n);
          Uu_gpusim.Kernel.Int_arg 2L; Uu_gpusim.Kernel.Float_arg 1.5;
        ]
  in
  Printf.printf "%-14s: %7.0f cycles, %5d bytes of code, compile work %d\n"
    (Uu_core.Pipelines.config_name config)
    result.Uu_gpusim.Kernel.kernel_cycles result.Uu_gpusim.Kernel.code_bytes
    report.Uu_opt.Pass.work;
  Uu_gpusim.Memory.read_f64 y

let () =
  print_endline "Compiling and simulating the same kernel under three pipelines:\n";
  let baseline = run Uu_core.Pipelines.Baseline in
  let unrolled = run (Uu_core.Pipelines.Unroll 4) in
  let uu = run (Uu_core.Pipelines.Uu 4) in
  let agree a b =
    Array.for_all2 (fun p q -> Float.abs (p -. q) < 1e-9) a b
  in
  Printf.printf "\nresults agree across configurations: %b\n"
    (agree baseline unrolled && agree baseline uu);
  Printf.printf "y[42] = %.6f\n" baseline.(42)
