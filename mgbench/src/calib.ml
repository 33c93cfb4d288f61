(* A fixed reference kernel, timed next to the program's work so that
   the host's speed at that moment cancels out of the reported times.

   The hosts this benchmark runs on are shared: the speed of each of
   their processors moves by up to 1.9x within seconds and between
   runs, and the program's solves and this kernel slow down together.
   Each reported time is therefore taken relative to ticks of this
   kernel measured next to it on the same processor, and scaled by
   [reference_s], the tick's time on the host the baseline was recorded
   on, so that it still reads as seconds there.

   The kernel is compiled from the benchmark's own source and must not
   change, or every recorded figure is rescaled: a 7-point stencil
   sweep over a class-S-sized (34³) grid, like the program's resid
   operator, repeated [sweeps] times. *)

let n = 34
let sweeps = 12
let src = Float.Array.init (n * n * n) (fun i -> float_of_int (i mod 7) *. 0.125)
let dst = Float.Array.make (n * n * n) 0.0

(* Written so that it allocates nothing: a tick taken on one domain
   never forces a minor collection on the others. *)
let sweep () =
  let g = Float.Array.unsafe_get in
  for k = 1 to n - 2 do
    for j = 1 to n - 2 do
      let row = n * (j + (n * k)) in
      for i = row + 1 to row + n - 2 do
        Float.Array.unsafe_set dst i
          ((0.5 *. g src i)
          -. (0.0833
             *. (g src (i - 1) +. g src (i + 1) +. g src (i - n) +. g src (i + n) +. g src (i - (n * n))
                +. g src (i + (n * n)))))
      done
    done
  done

(* Seconds one tick takes on the reference host in its fast phase
   (about the lower decile of its ticks; 2-vCPU Intel Xeon, 2 MiB L2,
   OCaml 5.1.1); its slow phase takes up to 1.9 ms. *)
let reference_s = 1.1e-3

(* One tick: the kernel's time now, in seconds. *)
let tick () =
  let t0 = Mg_smp.Clock.now () in
  for _ = 1 to sweeps do
    sweep ()
  done;
  Mg_smp.Clock.now () -. t0

(* [seconds] measured when a tick took [calib], in reference seconds. *)
let scale ~calib seconds = seconds *. reference_s /. calib
