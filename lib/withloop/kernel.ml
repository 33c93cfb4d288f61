open Mg_ndarray
open Cluster

(* Executor path counters (diagnostics, tests and the bench JSON).
   Atomic metrics rather than plain refs: [run_k3] runs concurrently on
   pool domains, so [incr] on an [int ref] would lose updates. *)
module Metrics = Mg_obs.Metrics

let c_stencil = Metrics.counter "kernel.stencil"
let c_linebuf = Metrics.counter "kernel.linebuf"
let c_copy = Metrics.counter "kernel.copy"
let c_generic = Metrics.counter "kernel.generic"
let c_interp = Metrics.counter "kernel.interp"
let c_cfun = Metrics.counter "kernel.cfun"
let c_native = Metrics.counter "kernel.native"

(* Per-kernel ns/elt histograms (log₂ buckets), one per dispatch
   tier.  [ns_elt_names] is the single list the per-engine scope
   shards are built from, so no tier can be left out of them.  Timing
   runs exactly when span recording is on: two clock reads per piece
   would tax production runs. *)
let ns_elt tier =
  let name = "kernel.ns_elt." ^ tier in
  (name, Metrics.histogram name)

let ns_stencil = ns_elt "stencil"
let ns_linebuf = ns_elt "linebuf"
let ns_copy = ns_elt "copy"
let ns_generic = ns_elt "generic"
let ns_interp = ns_elt "interp"
let ns_cfun = ns_elt "cfun"
let ns_native = ns_elt "native"

let ns_elt_names =
  List.map fst [ ns_stencil; ns_linebuf; ns_copy; ns_generic; ns_interp; ns_cfun; ns_native ]

let counters () =
  [ ("stencil", Metrics.value c_stencil);
    ("linebuf", Metrics.value c_linebuf);
    ("copy", Metrics.value c_copy);
    ("generic", Metrics.value c_generic);
    ("interp", Metrics.value c_interp);
    ("cfun", Metrics.value c_cfun);
    ("native", Metrics.value c_native);
  ]

let reset_counters () =
  List.iter
    (fun c -> Metrics.set_counter c 0)
    [ c_stencil; c_linebuf; c_copy; c_generic; c_interp; c_cfun; c_native ]

(* ------------------------------------------------------------------ *)
(* Execution of a compiled linear part                                 *)

let sum_deltas (buf : Ndarray.buffer) b (deltas : int array) =
  let s = ref 0.0 in
  for t = 0 to Array.length deltas - 1 do
    s := !s +. Bigarray.Array1.unsafe_get buf (b + Array.unsafe_get deltas t)
  done;
  !s

(* The innermost loops below are written as closed loop nests with no
   function calls: ocamlopt's Closure middle-end does not inline
   functions containing loops, and an outlined call per element would
   box its float result — one heap allocation per grid point. *)

(* Row kernel: evaluate all clusters/groups for k = 0..n-1 along the
   innermost axis and store into out.  cb1 holds per-cluster bases for
   this row. *)
let[@inline never] run_row ~const (clusters : ccluster array) (cb1 : int array) ~axis ~n
    (out : Ndarray.buffer) ~ob ~os =
  let nc = Array.length clusters in
  if nc = 1 then begin
    (* The dominant shape: one source array (stencils, copies). *)
    let cl = Array.unsafe_get clusters 0 in
    let buf = cl.xbuf in
    let st = Array.unsafe_get cl.xsteps axis in
    let coeffs = cl.xcoeffs and deltas = cl.xdeltas in
    let ng = Array.length coeffs in
    let b = ref (Array.unsafe_get cb1 0) in
    for k = 0 to n - 1 do
      let acc = ref const in
      for gi = 0 to ng - 1 do
        let ds = Array.unsafe_get deltas gi in
        let s = ref 0.0 in
        for t = 0 to Array.length ds - 1 do
          s := !s +. Bigarray.Array1.unsafe_get buf (!b + Array.unsafe_get ds t)
        done;
        acc := !acc +. (Array.unsafe_get coeffs gi *. !s)
      done;
      Bigarray.Array1.unsafe_set out (ob + (k * os)) !acc;
      b := !b + st
    done
  end
  else
    for k = 0 to n - 1 do
      let acc = ref const in
      for ci = 0 to nc - 1 do
        let cl = Array.unsafe_get clusters ci in
        let b = Array.unsafe_get cb1 ci + (k * Array.unsafe_get cl.xsteps axis) in
        let buf = cl.xbuf in
        let coeffs = cl.xcoeffs and deltas = cl.xdeltas in
        for gi = 0 to Array.length coeffs - 1 do
          let ds = Array.unsafe_get deltas gi in
          let s = ref 0.0 in
          for t = 0 to Array.length ds - 1 do
            s := !s +. Bigarray.Array1.unsafe_get buf (b + Array.unsafe_get ds t)
          done;
          acc := !acc +. (Array.unsafe_get coeffs gi *. !s)
        done
      done;
      Bigarray.Array1.unsafe_set out (ob + (k * os)) !acc
    done

(* ------------------------------------------------------------------ *)
(* Kernel recognition: the code-generation step.  A compiled part whose
   reads form a 3-D box stencil (deltas drawn from {-1,0,1}^3 scaled by
   the source strides, grouped by distance class — every NAS-MG
   operator after coefficient factoring) is dispatched to a dedicated
   loop nest whose neighbour offsets are let-bound integers, matching
   what a compiler emits for hand-written stencil code.  Additional
   single-read clusters (the [v] of [v - A·u], the [z] of
   [z + S·r], …) ride along as linear extras. *)

type stencil3 = {
  sbuf : Ndarray.buffer;
  sbase : int;
  s_sp : int;  (* neighbour plane stride *)
  s_sr : int;  (* neighbour row stride *)
  s_st0 : int;  (* walk step per k0 *)
  s_st1 : int;
  s_st2 : int;
  c0 : float;
  c1 : float;
  c2 : float;
  c3 : float;
  extras : ccluster array;  (* single-read clusters *)
}

let class_deltas ~sp ~sr cls =
  match cls with
  | 0 -> [ 0 ]
  | 1 -> [ -1; 1; -sr; sr; -sp; sp ]
  | 2 ->
      [ -sr - 1; -sr + 1; sr - 1; sr + 1; -sp - 1; -sp + 1; sp - 1; sp + 1; -sp - sr; -sp + sr;
        sp - sr; sp + sr ]
  | _ ->
      [ -sp - sr - 1; -sp - sr + 1; -sp + sr - 1; -sp + sr + 1; sp - sr - 1; sp - sr + 1;
        sp + sr - 1; sp + sr + 1 ]

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

let is_single_read (cl : ccluster) =
  Array.length cl.xcoeffs = 1 && Array.length cl.xdeltas.(0) = 1

(* Recognise a box stencil on rank-3 dense axes.  The stencil cluster's
   steps must be the source strides themselves (unit-scale reads). *)
let recognize_stencil3 (clusters : ccluster array) ~(osteps : int array) =
  if Array.length osteps <> 3 then None
  else begin
    let stencil_cl = ref None and extras = ref [] and ok = ref true in
    Array.iter
      (fun cl ->
        if is_single_read cl then extras := cl :: !extras
        else if !stencil_cl = None then stencil_cl := Some cl
        else ok := false)
      clusters;
    match (!ok, !stencil_cl) with
    | false, _ | _, None -> None
    | true, Some cl ->
        (* Neighbour deltas are expressed in the source's own strides,
           independent of how fast the loop walks the source. *)
        let sp = cl.xstrides.(0) and sr = cl.xstrides.(1) in
        if cl.xstrides.(2) <> 1 || cl.xsteps.(2) < 1 || sr < 3 || sp < sr * 3 then None
        else begin
          (* Cluster deltas are relative to the first read; a box
             stencil is symmetric, so its centre is the midpoint of the
             delta range. *)
          let dmin = ref max_int and dmax = ref min_int in
          Array.iter
            (Array.iter (fun d ->
                 if d < !dmin then dmin := d;
                 if d > !dmax then dmax := d))
            cl.xdeltas;
          let centre = (!dmin + !dmax) asr 1 in
          let coeffs = [| 0.0; 0.0; 0.0; 0.0 |] in
          let all_match =
            Array.for_all2
              (fun coeff deltas ->
                let sorted = sorted_copy (Array.map (fun d -> d - centre) deltas) in
                let rec try_class cls =
                  if cls > 3 then false
                  else if
                    coeffs.(cls) = 0.0
                    && sorted = sorted_copy (Array.of_list (class_deltas ~sp ~sr cls))
                  then begin
                    coeffs.(cls) <- coeff;
                    true
                  end
                  else try_class (cls + 1)
                in
                try_class 0)
              cl.xcoeffs cl.xdeltas
          in
          if not all_match then None
          else
            Some
              { sbuf = cl.xbuf;
                sbase = cl.xbase + centre;
                s_sp = sp;
                s_sr = sr;
                s_st0 = cl.xsteps.(0);
                s_st1 = cl.xsteps.(1);
                s_st2 = cl.xsteps.(2);
                c0 = coeffs.(0);
                c1 = coeffs.(1);
                c2 = coeffs.(2);
                c3 = coeffs.(3);
                extras = Array.of_list (List.rev !extras);
              }
        end
  end

(* Specialised nest for a recognised stencil (+ extras).  One variant
   per present coefficient pattern would be even faster; the single
   variant below already keeps all offsets in registers. *)
let run_stencil3 ~const (st : stencil3) (out : Ndarray.buffer) ~obase ~osteps
    ~(counts : int array) =
  let n0 = counts.(0) and n1 = counts.(1) and n2 = counts.(2) in
  let os0 = osteps.(0) and os1 = osteps.(1) and os2 = osteps.(2) in
  let sp = st.s_sp and sr = st.s_sr in
  let st0 = st.s_st0 and st1 = st.s_st1 and st2 = st.s_st2 in
  let buf = st.sbuf in
  let c0 = st.c0 and c1 = st.c1 and c2 = st.c2 and c3 = st.c3 in
  let ne = Array.length st.extras in
  (* Hoist the extras' scalar layouts out of the loops. *)
  let ebuf = Array.map (fun e -> e.xbuf) st.extras in
  let ecoef = Array.map (fun e -> e.xcoeffs.(0)) st.extras in
  let ebase = Array.map (fun e -> e.xbase + e.xdeltas.(0).(0)) st.extras in
  let est0 = Array.map (fun e -> e.xsteps.(0)) st.extras in
  let est1 = Array.map (fun e -> e.xsteps.(1)) st.extras in
  let est2 = Array.map (fun e -> e.xsteps.(2)) st.extras in
  let eb = Array.make ne 0 in
  let has_c1 = c1 <> 0.0 and has_c3 = c3 <> 0.0 in
  (* Branchless single-expression row loops, one per coefficient
     pattern (c0/c2 are present in every NAS-MG operator).  The
     dispatch happens once per row, keeping the element loops
     straight-line like compiled stencil code. *)
  let g p = Bigarray.Array1.unsafe_get buf p in
  let faces p = g (p - 1) +. g (p + 1) +. g (p - sr) +. g (p + sr) +. g (p - sp) +. g (p + sp) in
  let edges p =
    g (p - sr - 1) +. g (p - sr + 1) +. g (p + sr - 1) +. g (p + sr + 1) +. g (p - sp - 1)
    +. g (p - sp + 1)
    +. g (p + sp - 1)
    +. g (p + sp + 1)
    +. g (p - sp - sr)
    +. g (p - sp + sr)
    +. g (p + sp - sr)
    +. g (p + sp + sr)
  in
  let corners p =
    g (p - sp - sr - 1)
    +. g (p - sp - sr + 1)
    +. g (p - sp + sr - 1)
    +. g (p - sp + sr + 1)
    +. g (p + sp - sr - 1)
    +. g (p + sp - sr + 1)
    +. g (p + sp + sr - 1)
    +. g (p + sp + sr + 1)
  in
  for k0 = 0 to n0 - 1 do
    for k1 = 0 to n1 - 1 do
      let b0 = st.sbase + (k0 * st0) + (k1 * st1) in
      let ob = obase + (k0 * os0) + (k1 * os1) in
      for e = 0 to ne - 1 do
        eb.(e) <- ebase.(e) + (k0 * est0.(e)) + (k1 * est1.(e))
      done;
      if ne = 1 && not has_c1 && has_c3 then begin
        (* residual: v - A·u *)
        let xb = Array.unsafe_get ebuf 0
        and xc = Array.unsafe_get ecoef 0
        and x0 = Array.unsafe_get eb 0
        and xs = Array.unsafe_get est2 0 in
        for k2 = 0 to n2 - 1 do
          let p = b0 + (k2 * st2) in
          Bigarray.Array1.unsafe_set out
            (ob + (k2 * os2))
            (const +. (c0 *. g p) +. (c2 *. edges p) +. (c3 *. corners p)
            +. (xc *. Bigarray.Array1.unsafe_get xb (x0 + (k2 * xs))))
        done
      end
      else if ne = 1 && has_c1 && not has_c3 then begin
        (* smoother applied into a sum: z + S·r *)
        let xb = Array.unsafe_get ebuf 0
        and xc = Array.unsafe_get ecoef 0
        and x0 = Array.unsafe_get eb 0
        and xs = Array.unsafe_get est2 0 in
        for k2 = 0 to n2 - 1 do
          let p = b0 + (k2 * st2) in
          Bigarray.Array1.unsafe_set out
            (ob + (k2 * os2))
            (const +. (c0 *. g p) +. (c1 *. faces p) +. (c2 *. edges p)
            +. (xc *. Bigarray.Array1.unsafe_get xb (x0 + (k2 * xs))))
        done
      end
      else if ne = 0 && has_c1 && has_c3 then
        (* full 27-point operator (projection P, interpolation Q) *)
        for k2 = 0 to n2 - 1 do
          let p = b0 + (k2 * st2) in
          Bigarray.Array1.unsafe_set out
            (ob + (k2 * os2))
            (const +. (c0 *. g p) +. (c1 *. faces p) +. (c2 *. edges p) +. (c3 *. corners p))
        done
      else if ne = 0 && (not has_c1) && has_c3 then
        for k2 = 0 to n2 - 1 do
          let p = b0 + (k2 * st2) in
          Bigarray.Array1.unsafe_set out
            (ob + (k2 * os2))
            (const +. (c0 *. g p) +. (c2 *. edges p) +. (c3 *. corners p))
        done
      else if ne = 0 && has_c1 && not has_c3 then
        for k2 = 0 to n2 - 1 do
          let p = b0 + (k2 * st2) in
          Bigarray.Array1.unsafe_set out
            (ob + (k2 * os2))
            (const +. (c0 *. g p) +. (c1 *. faces p) +. (c2 *. edges p))
        done
      else
        (* general fallback: any coefficient pattern, any extras *)
        for k2 = 0 to n2 - 1 do
          let p = b0 + (k2 * st2) in
          let acc = ref (const +. (c0 *. g p)) in
          if has_c1 then acc := !acc +. (c1 *. faces p);
          if c2 <> 0.0 then acc := !acc +. (c2 *. edges p);
          if has_c3 then acc := !acc +. (c3 *. corners p);
          for e = 0 to ne - 1 do
            acc :=
              !acc
              +. Array.unsafe_get ecoef e
                 *. Bigarray.Array1.unsafe_get (Array.unsafe_get ebuf e)
                      (Array.unsafe_get eb e + (k2 * Array.unsafe_get est2 e))
          done;
          Bigarray.Array1.unsafe_set out (ob + (k2 * os2)) !acc
        done
    done
  done

(* Line-buffered variant of the box-stencil kernel — the Fortran
   port's resid/psinv technique (mg_f77.ml).  Per output row, the four
   off-row face neighbours and the four edge diagonals of every inner
   position are summed once into [u1]/[u2]; the element loop then
   combines three adjacent entries of each, replacing 20 of the 26
   neighbour loads by 4 buffered adds plus 6 buffer reads.  Requires a
   unit inner walk step ([s_st2 = 1]) so buffer index and inner offset
   coincide; every read it performs is one the plain kernel performs
   too, so in-bounds-ness is inherited.  The groupings
   [u2 + u1(i-1) + u1(i+1)] and [u2(i-1) + u2(i+1)] are exactly the
   Fortran port's, which keeps the two implementations' floating-point
   results within ulps of each other. *)
let run_stencil3_linebuf ~const (st : stencil3) (out : Ndarray.buffer) ~obase ~osteps
    ~(counts : int array) =
  let n0 = counts.(0) and n1 = counts.(1) and n2 = counts.(2) in
  let os0 = osteps.(0) and os1 = osteps.(1) and os2 = osteps.(2) in
  let sp = st.s_sp and sr = st.s_sr in
  let st0 = st.s_st0 and st1 = st.s_st1 in
  let buf = st.sbuf in
  let c0 = st.c0 and c1 = st.c1 and c2 = st.c2 and c3 = st.c3 in
  let ne = Array.length st.extras in
  let ebuf = Array.map (fun e -> e.xbuf) st.extras in
  let ecoef = Array.map (fun e -> e.xcoeffs.(0)) st.extras in
  let ebase = Array.map (fun e -> e.xbase + e.xdeltas.(0).(0)) st.extras in
  let est0 = Array.map (fun e -> e.xsteps.(0)) st.extras in
  let est1 = Array.map (fun e -> e.xsteps.(1)) st.extras in
  let est2 = Array.map (fun e -> e.xsteps.(2)) st.extras in
  let eb = Array.make ne 0 in
  let has_c1 = c1 <> 0.0 and has_c3 = c3 <> 0.0 in
  let m = n2 + 2 in
  let u1 = Array.make m 0.0 and u2 = Array.make m 0.0 in
  let g p = Bigarray.Array1.unsafe_get buf p in
  for k0 = 0 to n0 - 1 do
    for k1 = 0 to n1 - 1 do
      let b0 = st.sbase + (k0 * st0) + (k1 * st1) in
      let ob = obase + (k0 * os0) + (k1 * os1) in
      (* Plane sums over the row, one element beyond each end. *)
      for i = 0 to m - 1 do
        let q = b0 + i - 1 in
        Array.unsafe_set u1 i (g (q - sr) +. g (q + sr) +. g (q - sp) +. g (q + sp));
        Array.unsafe_set u2 i
          (g (q - sp - sr) +. g (q - sp + sr) +. g (q + sp - sr) +. g (q + sp + sr))
      done;
      for e = 0 to ne - 1 do
        eb.(e) <- ebase.(e) + (k0 * est0.(e)) + (k1 * est1.(e))
      done;
      if ne = 1 && not has_c1 && has_c3 then begin
        (* residual: v - A·u *)
        let xb = Array.unsafe_get ebuf 0
        and xc = Array.unsafe_get ecoef 0
        and x0 = Array.unsafe_get eb 0
        and xs = Array.unsafe_get est2 0 in
        for k2 = 0 to n2 - 1 do
          let p = b0 + k2 and i = k2 + 1 in
          Bigarray.Array1.unsafe_set out
            (ob + (k2 * os2))
            (const +. (c0 *. g p)
            +. (c2
               *. (Array.unsafe_get u2 i +. Array.unsafe_get u1 (i - 1)
                  +. Array.unsafe_get u1 (i + 1)))
            +. (c3 *. (Array.unsafe_get u2 (i - 1) +. Array.unsafe_get u2 (i + 1)))
            +. (xc *. Bigarray.Array1.unsafe_get xb (x0 + (k2 * xs))))
        done
      end
      else if ne = 1 && has_c1 && not has_c3 then begin
        (* smoother applied into a sum: z + S·r *)
        let xb = Array.unsafe_get ebuf 0
        and xc = Array.unsafe_get ecoef 0
        and x0 = Array.unsafe_get eb 0
        and xs = Array.unsafe_get est2 0 in
        for k2 = 0 to n2 - 1 do
          let p = b0 + k2 and i = k2 + 1 in
          Bigarray.Array1.unsafe_set out
            (ob + (k2 * os2))
            (const +. (c0 *. g p)
            +. (c1 *. (g (p - 1) +. g (p + 1) +. Array.unsafe_get u1 i))
            +. (c2
               *. (Array.unsafe_get u2 i +. Array.unsafe_get u1 (i - 1)
                  +. Array.unsafe_get u1 (i + 1)))
            +. (xc *. Bigarray.Array1.unsafe_get xb (x0 + (k2 * xs))))
        done
      end
      else if ne = 0 && has_c1 && has_c3 then
        (* full 27-point operator *)
        for k2 = 0 to n2 - 1 do
          let p = b0 + k2 and i = k2 + 1 in
          Bigarray.Array1.unsafe_set out
            (ob + (k2 * os2))
            (const +. (c0 *. g p)
            +. (c1 *. (g (p - 1) +. g (p + 1) +. Array.unsafe_get u1 i))
            +. (c2
               *. (Array.unsafe_get u2 i +. Array.unsafe_get u1 (i - 1)
                  +. Array.unsafe_get u1 (i + 1)))
            +. (c3 *. (Array.unsafe_get u2 (i - 1) +. Array.unsafe_get u2 (i + 1))))
        done
      else
        (* general fallback: any coefficient pattern, any extras *)
        for k2 = 0 to n2 - 1 do
          let p = b0 + k2 and i = k2 + 1 in
          let acc = ref (const +. (c0 *. g p)) in
          if has_c1 then
            acc := !acc +. (c1 *. (g (p - 1) +. g (p + 1) +. Array.unsafe_get u1 i));
          if c2 <> 0.0 then
            acc :=
              !acc
              +. c2
                 *. (Array.unsafe_get u2 i +. Array.unsafe_get u1 (i - 1)
                    +. Array.unsafe_get u1 (i + 1));
          if has_c3 then
            acc := !acc +. (c3 *. (Array.unsafe_get u2 (i - 1) +. Array.unsafe_get u2 (i + 1)));
          for e = 0 to ne - 1 do
            acc :=
              !acc
              +. Array.unsafe_get ecoef e
                 *. Bigarray.Array1.unsafe_get (Array.unsafe_get ebuf e)
                      (Array.unsafe_get eb e + (k2 * Array.unsafe_get est2 e))
          done;
          Bigarray.Array1.unsafe_set out (ob + (k2 * os2)) !acc
        done
    done
  done

(* Flat-weighted kernel: one cluster with few reads (the specialised
   interpolation bodies that residue splitting produces).  Coefficients
   are pre-multiplied into per-read weights, trading the factored
   grouping for a single tight loop — profitable only when the read
   count is small, hence the cap at recognition time. *)
let run_flat3 ~const (cl : ccluster) (out : Ndarray.buffer) ~obase ~osteps
    ~(counts : int array) =
  let n0 = counts.(0) and n1 = counts.(1) and n2 = counts.(2) in
  let os0 = osteps.(0) and os1 = osteps.(1) and os2 = osteps.(2) in
  let nw = Array.fold_left (fun acc ds -> acc + Array.length ds) 0 cl.xdeltas in
  let wdeltas = Array.make nw 0 and weights = Array.make nw 0.0 in
  let t = ref 0 in
  Array.iteri
    (fun gi ds ->
      Array.iter
        (fun d ->
          wdeltas.(!t) <- d;
          weights.(!t) <- cl.xcoeffs.(gi);
          incr t)
        ds)
    cl.xdeltas;
  let buf = cl.xbuf in
  let st0 = cl.xsteps.(0) and st1 = cl.xsteps.(1) and st2 = cl.xsteps.(2) in
  for k0 = 0 to n0 - 1 do
    for k1 = 0 to n1 - 1 do
      let b0 = cl.xbase + (k0 * st0) + (k1 * st1) in
      let ob = obase + (k0 * os0) + (k1 * os1) in
      for k2 = 0 to n2 - 1 do
        let b = b0 + (k2 * st2) in
        let acc = ref const in
        for w = 0 to nw - 1 do
          acc :=
            !acc
            +. Array.unsafe_get weights w
               *. Bigarray.Array1.unsafe_get buf (b + Array.unsafe_get wdeltas w)
        done;
        Bigarray.Array1.unsafe_set out (ob + (k2 * os2)) !acc
      done
    done
  done

(* Element-wise kernel: every cluster is a single read (maps, zips and
   the affine combinations fusion builds from them). *)
let run_zip3 ~const (clusters : ccluster array) (out : Ndarray.buffer) ~obase ~osteps
    ~(counts : int array) =
  let n0 = counts.(0) and n1 = counts.(1) and n2 = counts.(2) in
  let os0 = osteps.(0) and os1 = osteps.(1) and os2 = osteps.(2) in
  let ne = Array.length clusters in
  let ebuf = Array.map (fun e -> e.xbuf) clusters in
  let ecoef = Array.map (fun e -> e.xcoeffs.(0)) clusters in
  let ebase = Array.map (fun e -> e.xbase + e.xdeltas.(0).(0)) clusters in
  let est0 = Array.map (fun e -> e.xsteps.(0)) clusters in
  let est1 = Array.map (fun e -> e.xsteps.(1)) clusters in
  let est2 = Array.map (fun e -> e.xsteps.(2)) clusters in
  if ne = 2 then begin
    let b0 = ebuf.(0) and b1 = ebuf.(1) in
    let c0 = ecoef.(0) and c1 = ecoef.(1) in
    let s02 = est2.(0) and s12 = est2.(1) in
    for k0 = 0 to n0 - 1 do
      for k1 = 0 to n1 - 1 do
        let p0 = ebase.(0) + (k0 * est0.(0)) + (k1 * est1.(0)) in
        let p1 = ebase.(1) + (k0 * est0.(1)) + (k1 * est1.(1)) in
        let ob = obase + (k0 * os0) + (k1 * os1) in
        for k2 = 0 to n2 - 1 do
          Bigarray.Array1.unsafe_set out
            (ob + (k2 * os2))
            (const
            +. (c0 *. Bigarray.Array1.unsafe_get b0 (p0 + (k2 * s02)))
            +. (c1 *. Bigarray.Array1.unsafe_get b1 (p1 + (k2 * s12))))
        done
      done
    done
  end
  else begin
    let eb = Array.make ne 0 in
    for k0 = 0 to n0 - 1 do
      for k1 = 0 to n1 - 1 do
        for e = 0 to ne - 1 do
          eb.(e) <- ebase.(e) + (k0 * est0.(e)) + (k1 * est1.(e))
        done;
        let ob = obase + (k0 * os0) + (k1 * os1) in
        for k2 = 0 to n2 - 1 do
          let acc = ref const in
          for e = 0 to ne - 1 do
            acc :=
              !acc
              +. Array.unsafe_get ecoef e
                 *. Bigarray.Array1.unsafe_get (Array.unsafe_get ebuf e)
                      (Array.unsafe_get eb e + (k2 * Array.unsafe_get est2 e))
          done;
          Bigarray.Array1.unsafe_set out (ob + (k2 * os2)) !acc
        done
      done
    done
  end

(* Identity-copy detection: a part that just moves a contiguous row of
   one source is executed as a blit. *)
let is_plain_copy ~const (clusters : ccluster array) ~(osteps : int array) =
  const = 0.0
  && Array.length clusters = 1
  &&
  let cl = clusters.(0) in
  Array.length cl.xcoeffs = 1
  && cl.xcoeffs.(0) = 1.0
  && Array.length cl.xdeltas.(0) = 1
  && cl.xdeltas.(0) = [| 0 |]
  && Shape.equal cl.xsteps osteps
  && osteps.(Array.length osteps - 1) = 1

(* Generic rank-3 cluster nest (no recognised kernel). *)
let run_generic3 ~const (clusters : ccluster array) (out : Ndarray.buffer) ~obase ~osteps
    ~(counts : int array) =
  let n0 = counts.(0) and n1 = counts.(1) and n2 = counts.(2) in
  let nc = Array.length clusters in
  let os0 = osteps.(0) and os1 = osteps.(1) and os2 = osteps.(2) in
  let cb0 = Array.make nc 0 and cb1 = Array.make nc 0 in
  for k0 = 0 to n0 - 1 do
    for ci = 0 to nc - 1 do
      cb0.(ci) <- clusters.(ci).xbase + (k0 * clusters.(ci).xsteps.(0))
    done;
    let ob0 = obase + (k0 * os0) in
    for k1 = 0 to n1 - 1 do
      for ci = 0 to nc - 1 do
        cb1.(ci) <- cb0.(ci) + (k1 * clusters.(ci).xsteps.(1))
      done;
      run_row ~const clusters cb1 ~axis:2 ~n:n2 out ~ob:(ob0 + (k1 * os1)) ~os:os2
    done
  done

(* The rank-3 kernel choice, decided once when a part is compiled and
   reused on every (possibly cached) execution.  Stencil payloads carry
   the index of their cluster and of each extra within the part's
   cluster array so the payload can be rebound to fresh buffers. *)
type k3 =
  | K3copy
  | K3stencil of stencil3 * int * int array
  | K3stencil_lb of stencil3 * int * int array
  | K3zip
  | K3flat
  | K3cfun of Cfun.t
  | K3native of Native.fn
  | K3generic

let k3_name = function
  | K3copy -> "copy"
  | K3stencil _ -> "stencil"
  | K3stencil_lb _ -> "linebuf"
  | K3zip -> "zip"
  | K3flat -> "flat"
  | K3cfun _ -> "cfun"
  | K3native _ -> "native"
  | K3generic -> "generic"

(* Rebuild a stencil payload against (freshly bound and/or base-shifted)
   clusters; [koff0]/[koff1] are the payload's displacement in whole
   axis-0/axis-1 steps (tiled pieces displace along both).  Compiled
   cfun kernels read buffers and bases from the live cluster array at
   run time, so they need no rebinding at all — and native kernels
   gather buffers and bases from the live clusters at each call
   ([Native.call]), likewise. *)
let rebind_k3 (clusters : ccluster array) ~koff0 ~koff1 = function
  | (K3copy | K3zip | K3flat | K3cfun _ | K3native _ | K3generic) as k -> k
  | K3stencil (s, si, eidx) ->
      K3stencil
        ( { s with
            sbuf = clusters.(si).xbuf;
            sbase = s.sbase + (koff0 * s.s_st0) + (koff1 * s.s_st1);
            extras = Array.map (fun i -> clusters.(i)) eidx;
          },
          si,
          eidx )
  | K3stencil_lb (s, si, eidx) ->
      K3stencil_lb
        ( { s with
            sbuf = clusters.(si).xbuf;
            sbase = s.sbase + (koff0 * s.s_st0) + (koff1 * s.s_st1);
            extras = Array.map (fun i -> clusters.(i)) eidx;
          },
          si,
          eidx )

(* Debug aid: dump the cluster structure of parts that fall to the
   generic nest (WL_DEBUG_KERNEL=1), to see what cfun must cover. *)
let debug_generic (clusters : ccluster array) =
  if Sys.getenv_opt "WL_DEBUG_KERNEL" <> None then
    Format.eprintf "GENERIC nc=%d %s@." (Array.length clusters)
      (String.concat " | "
         (Array.to_list
            (Array.map
               (fun cl ->
                 Printf.sprintf "steps=%s groups=%s"
                   (Shape.to_string cl.xsteps)
                   (String.concat ";"
                      (Array.to_list
                         (Array.map2
                            (fun c ds -> Printf.sprintf "%g*%d" c (Array.length ds))
                            cl.xcoeffs cl.xdeltas))))
               clusters)))

(* [native] carries the AOT cache directory when the native tier is
   on.  The tier ladder for unrecognised bodies is native → cfun →
   generic: a native compile that cannot be had (unsupported shape,
   missing compiler, rejected object) degrades to whatever the next
   tier offers.  Native deliberately takes over only this rung — the
   fixed kernels above it are shared by every tier, so the bitwise
   identity gate across tiers reduces to the one path native
   replicates (the generic nest's accumulation order). *)
let choose_k3 ~line_buffers ~cfun ~native ~const (clusters : ccluster array) ~osteps =
  if is_plain_copy ~const clusters ~osteps then K3copy
  else
    match recognize_stencil3 clusters ~osteps with
    | Some s ->
        let si = ref 0 and eidx = ref [] in
        Array.iteri
          (fun i cl -> if is_single_read cl then eidx := i :: !eidx else si := i)
          clusters;
        let eidx = Array.of_list (List.rev !eidx) in
        (* Line buffering pays when the plane sums are reused across the
           inner loop — i.e. when edge or corner classes are present —
           and needs a unit inner walk step. *)
        if line_buffers && s.s_st2 = 1 && (s.c2 <> 0.0 || s.c3 <> 0.0) then
          K3stencil_lb (s, !si, eidx)
        else K3stencil (s, !si, eidx)
    | None when Array.length clusters > 0 && Array.for_all is_single_read clusters -> K3zip
    | None
      when Array.length clusters = 1
           && Array.fold_left (fun acc ds -> acc + Array.length ds) 0 clusters.(0).xdeltas <= 8 ->
        K3flat
    | None when cfun || native <> None -> (
        let natively =
          match native with
          | Some cache_dir -> Native.compile ~cache_dir ~const clusters ~osteps
          | None -> None
        in
        match natively with
        | Some nf -> K3native nf
        | None ->
            if cfun then K3cfun (Cfun.compile ~const clusters ~osteps)
            else begin
              debug_generic clusters;
              K3generic
            end)
    | None ->
        debug_generic clusters;
        K3generic

let run_k3_untimed ~const k (clusters : ccluster array) (out : Ndarray.buffer) ~obase ~osteps
    ~(counts : int array) =
  match k with
  | K3copy ->
      Metrics.incr c_copy;
      let n0 = counts.(0) and n1 = counts.(1) and n2 = counts.(2) in
      let os0 = osteps.(0) and os1 = osteps.(1) in
      let cl = clusters.(0) in
      let delta = cl.xbase - obase in
      for k0 = 0 to n0 - 1 do
        for k1 = 0 to n1 - 1 do
          let ob = obase + (k0 * os0) + (k1 * os1) in
          Bigarray.Array1.blit
            (Bigarray.Array1.sub cl.xbuf (ob + delta) n2)
            (Bigarray.Array1.sub out ob n2)
        done
      done
  | K3stencil (st, _, _) ->
      Metrics.incr c_stencil;
      run_stencil3 ~const st out ~obase ~osteps ~counts
  | K3stencil_lb (st, _, _) ->
      Metrics.incr c_linebuf;
      run_stencil3_linebuf ~const st out ~obase ~osteps ~counts
  | K3zip ->
      Metrics.incr c_interp;
      run_zip3 ~const clusters out ~obase ~osteps ~counts
  | K3flat ->
      Metrics.incr c_interp;
      run_flat3 ~const clusters.(0) out ~obase ~osteps ~counts
  | K3cfun f ->
      Metrics.incr c_cfun;
      Cfun.run f clusters out ~obase ~osteps ~counts
  | K3native nf ->
      Metrics.incr c_native;
      Native.call nf clusters out ~obase ~counts
  | K3generic ->
      Metrics.incr c_generic;
      run_generic3 ~const clusters out ~obase ~osteps ~counts

(* The aggregate histogram and the name of its per-engine shard,
   which [Scope.observe] routes to the installed scope's pre-interned
   labelled histogram. *)
let ns_of = function
  | K3copy -> ns_copy
  | K3stencil _ -> ns_stencil
  | K3stencil_lb _ -> ns_linebuf
  | K3zip | K3flat -> ns_interp
  | K3cfun _ -> ns_cfun
  | K3native _ -> ns_native
  | K3generic -> ns_generic

let run_k3 ~const k (clusters : ccluster array) (out : Ndarray.buffer) ~obase ~osteps
    ~(counts : int array) =
  if not (Mg_obs.Span.enabled ()) then
    run_k3_untimed ~const k clusters out ~obase ~osteps ~counts
  else begin
    let t0 = Mg_smp.Clock.now_ns () in
    run_k3_untimed ~const k clusters out ~obase ~osteps ~counts;
    let dt = Int64.to_int (Int64.sub (Mg_smp.Clock.now_ns ()) t0) in
    let elts = counts.(0) * counts.(1) * counts.(2) in
    if elts > 0 then begin
      let name, h = ns_of k in
      Metrics.observe h (dt / elts);
      Mg_obs.Scope.observe name (dt / elts)
    end
  end

(* Generic any-rank cluster nest (parts that are not rank 3). *)
let run_lin_generic ~const (clusters : ccluster array) (out : Ndarray.buffer) ~obase ~osteps
    ~(counts : int array) =
  let rank = Array.length counts in
  let nc = Array.length clusters in
  if rank = 0 then begin
    let cb = Array.init nc (fun ci -> clusters.(ci).xbase) in
    (* Rank 0: a single element; reuse the inner evaluator with k=0. *)
    let v =
      const
      +.
      if nc = 0 then 0.0
      else begin
        let acc = ref 0.0 in
        for ci = 0 to nc - 1 do
          let cl = clusters.(ci) in
          for gi = 0 to Array.length cl.xcoeffs - 1 do
            acc := !acc +. (cl.xcoeffs.(gi) *. sum_deltas cl.xbuf cb.(ci) cl.xdeltas.(gi))
          done
        done;
        !acc
      end
    in
    Bigarray.Array1.unsafe_set out obase v
  end
  else begin
    let cb = Array.make_matrix rank nc 0 in
    let rec go axis (prev : int array) ob =
      if axis = rank - 1 then
        run_row ~const clusters prev ~axis ~n:counts.(axis) out ~ob ~os:osteps.(axis)
      else begin
        let row = cb.(axis) in
        for k = 0 to counts.(axis) - 1 do
          for ci = 0 to nc - 1 do
            row.(ci) <- prev.(ci) + (k * clusters.(ci).xsteps.(axis))
          done;
          (* Inner levels copy [row] before mutating their own level, so
             reusing one row per axis is safe. *)
          go (axis + 1) row (ob + (k * osteps.(axis)))
        done
      end
    in
    let top = Array.init nc (fun ci -> clusters.(ci).xbase) in
    go 0 top obase
  end

(* ------------------------------------------------------------------ *)
(* Fold over clusters (the fold with-loop's compiled path)             *)

let fold_lin ~op ~init ~const (clusters : ccluster array) ~(counts : int array) =
  let rank = Array.length counts in
  let nc = Array.length clusters in
  let acc = ref init in
  if rank = 0 then begin
    let v = ref const in
    for ci = 0 to nc - 1 do
      let cl = clusters.(ci) in
      for gi = 0 to Array.length cl.xcoeffs - 1 do
        v := !v +. (cl.xcoeffs.(gi) *. sum_deltas cl.xbuf cl.xbase cl.xdeltas.(gi))
      done
    done;
    acc := op !acc !v
  end
  else begin
    let cb = Array.make_matrix rank nc 0 in
    let rec go axis (prev : int array) =
      if axis = rank - 1 then begin
        let os = counts.(axis) in
        for k = 0 to os - 1 do
          let v = ref const in
          for ci = 0 to nc - 1 do
            let cl = Array.unsafe_get clusters ci in
            let b = Array.unsafe_get prev ci + (k * Array.unsafe_get cl.xsteps axis) in
            let coeffs = cl.xcoeffs and deltas = cl.xdeltas in
            for gi = 0 to Array.length coeffs - 1 do
              let ds = Array.unsafe_get deltas gi in
              let s = ref 0.0 in
              for t = 0 to Array.length ds - 1 do
                s := !s +. Bigarray.Array1.unsafe_get cl.xbuf (b + Array.unsafe_get ds t)
              done;
              v := !v +. (Array.unsafe_get coeffs gi *. !s)
            done
          done;
          acc := op !acc !v
        done
      end
      else begin
        let row = cb.(axis) in
        for k = 0 to counts.(axis) - 1 do
          for ci = 0 to nc - 1 do
            row.(ci) <- prev.(ci) + (k * clusters.(ci).xsteps.(axis))
          done;
          go (axis + 1) row
        done
      end
    in
    go 0 (Array.init nc (fun ci -> clusters.(ci).xbase));
    ()
  end;
  !acc
