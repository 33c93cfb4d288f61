(* Cross-implementation and official verification of the benchmark —
   the repository's central correctness gate. *)

open Mg_ndarray
open Mg_core

let check_float = Alcotest.(check (float 0.0))

(* ------------------------------------------------------------------ *)
(* Routine-level agreement between the Fortran port and the C port on
   random periodic fields: same maths, reassociated sums. *)

let random_grid n =
  let st = Mg_nasrand.Nasrand.make ~seed:77172319.0 () in
  let g = Ndarray.init [| n + 2; n + 2; n + 2 |] (fun _ -> Mg_nasrand.Nasrand.next st -. 0.5) in
  Mg_f77.comm3 g;
  g

let rel_close label a b =
  let d = Ndarray.max_abs_diff a b in
  Alcotest.(check bool) (Printf.sprintf "%s (max abs diff %.3e)" label d) true (d < 1e-12)

let test_resid_f77_vs_c () =
  let n = 8 in
  let u = random_grid n and v = random_grid n in
  let r1 = Ndarray.create [| n + 2; n + 2; n + 2 |] in
  let r2 = Ndarray.create [| n + 2; n + 2; n + 2 |] in
  let a = Stencil.to_array Stencil.a in
  Mg_f77.resid ~u ~v ~r:r1 ~a;
  Mg_c.resid ~u ~v ~r:r2 ~a;
  rel_close "resid" r1 r2

let test_psinv_f77_vs_c () =
  let n = 8 in
  let r = random_grid n in
  let u1 = random_grid n in
  let u2 = Ndarray.copy u1 in
  let c = Stencil.to_array Stencil.s_a in
  Mg_f77.psinv ~r ~u:u1 ~c;
  Mg_c.psinv ~r ~u:u2 ~c;
  rel_close "psinv" u1 u2

let test_rprj3_f77_vs_c () =
  let n = 8 in
  let fine = random_grid n in
  let coarse1 = Ndarray.create [| 6; 6; 6 |] and coarse2 = Ndarray.create [| 6; 6; 6 |] in
  Mg_f77.rprj3 ~fine ~coarse:coarse1;
  Mg_c.rprj3 ~fine ~coarse:coarse2;
  rel_close "rprj3" coarse1 coarse2

let test_interp_f77_vs_c () =
  let coarse = random_grid 4 in
  let fine1 = random_grid 8 in
  let fine2 = Ndarray.copy fine1 in
  Mg_f77.interp ~coarse ~fine:fine1;
  Mg_c.interp ~coarse ~fine:fine2;
  rel_close "interp" fine1 fine2

(* ------------------------------------------------------------------ *)
(* The high-level SAC program against the low-level ports. *)

let interior_close label ~eps (a : Ndarray.t) (b : Ndarray.t) =
  (* Only interiors are comparable: the SAC program leaves different
     (dead) values in ghost planes than comm3 does. *)
  let shp = Ndarray.shape a in
  let worst = ref 0.0 in
  Mg_withloop.Generator.iter (Mg_withloop.Generator.interior shp 1) (fun iv ->
      let d = Float.abs (Ndarray.get a iv -. Ndarray.get b iv) in
      if d > !worst then worst := d);
  Alcotest.(check bool) (Printf.sprintf "%s (interior max diff %.3e)" label !worst) true
    (!worst <= eps)

let run_cross_impl_norm cls =
  let r_sac = Driver.run ~impl:Driver.Sac ~cls () in
  let r_f77 = Driver.run ~impl:Driver.F77 ~cls () in
  let r_c = Driver.run ~impl:Driver.C ~cls () in
  let rel a b = Float.abs ((a -. b) /. Float.max 1e-300 (Float.abs b)) in
  Alcotest.(check bool)
    (Printf.sprintf "sac vs f77 norm (%.3e vs %.3e)" r_sac.Driver.rnm2 r_f77.Driver.rnm2)
    true
    (rel r_sac.Driver.rnm2 r_f77.Driver.rnm2 < 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "c vs f77 norm (%.3e vs %.3e)" r_c.Driver.rnm2 r_f77.Driver.rnm2)
    true
    (rel r_c.Driver.rnm2 r_f77.Driver.rnm2 < 1e-9)

let test_cross_impl_tiny () = run_cross_impl_norm Classes.tiny
let test_cross_impl_mini () = run_cross_impl_norm Classes.mini

(* Per-level resid differential matrix: the resid stencil of all three
   implementations on identical random fields at every grid level of
   class S (interior extents 32, 16, 8, 4, 2).  When a V-cycle
   regression appears, this pinpoints the first level that introduced
   it instead of merely failing the end-to-end norm; the failure
   message prints the whole matrix. *)
let test_resid_level_matrix_class_s () =
  let cls = Classes.class_s in
  let eps = 1e-12 in
  let extents = List.init (Classes.levels cls) (fun k -> cls.Classes.nx lsr k) in
  let a = Stencil.to_array Stencil.a in
  let diff_interior x y =
    let shp = Ndarray.shape x in
    let worst = ref 0.0 in
    Mg_withloop.Generator.iter (Mg_withloop.Generator.interior shp 1) (fun iv ->
        let d = Float.abs (Ndarray.get x iv -. Ndarray.get y iv) in
        if d > !worst then worst := d);
    !worst
  in
  let rows =
    List.map
      (fun n ->
        let u = random_grid n and v = random_grid n in
        let r_f77 = Ndarray.create [| n + 2; n + 2; n + 2 |] in
        let r_c = Ndarray.create [| n + 2; n + 2; n + 2 |] in
        Mg_f77.resid ~u ~v ~r:r_f77 ~a;
        Mg_c.resid ~u ~v ~r:r_c ~a;
        let r_sac =
          Mg_withloop.Wl.force
            (Mg_arraylib.Ops.sub
               (Mg_withloop.Wl.of_ndarray v)
               (Mg_sac.resid Stencil.a (Mg_withloop.Wl.of_ndarray u)))
        in
        (n, diff_interior r_f77 r_c, diff_interior r_f77 r_sac, diff_interior r_c r_sac))
      extents
  in
  match List.filter (fun (_, fc, fs, cs) -> fc > eps || fs > eps || cs > eps) rows with
  | [] -> ()
  | (n, _, _, _) :: _ ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf "level  f77-c      f77-sac    c-sac\n";
      List.iter
        (fun (n, fc, fs, cs) ->
          Buffer.add_string buf (Printf.sprintf "%5d  %.3e  %.3e  %.3e\n" n fc fs cs))
        rows;
      Alcotest.failf "resid diverges first at level n=%d:\n%s" n (Buffer.contents buf)

let test_sac_solution_matches_f77 () =
  (* Compare the full solution fields after one iteration on a tiny
     grid, not just the norm. *)
  let cls = Classes.tiny in
  let n = cls.Classes.nx in
  let v = Zran3.generate ~n in
  (* f77 path *)
  let st = Schedule.setup cls in
  Ndarray.blit ~src:v ~dst:st.Schedule.v;
  let a = Stencil.to_array Stencil.a in
  Mg_f77.resid ~u:st.Schedule.u.(3) ~v:st.Schedule.v ~r:st.Schedule.r.(3) ~a;
  Schedule.mg3p Mg_f77.routines st;
  (* sac path: one iteration of MGrid *)
  let u_sac =
    Mg_withloop.Wl.force
      (Mg_sac.m_grid ~smoother:(Classes.smoother_coeffs cls) ~v:(Mg_withloop.Wl.of_ndarray v)
         ~iter:1)
  in
  interior_close "solution after 1 iteration" ~eps:1e-14 u_sac st.Schedule.u.(3)

let test_sac_all_opt_levels_agree () =
  let cls = Classes.tiny in
  let norms =
    List.map
      (fun l ->
        Mg_withloop.(Wl.with_config (fun c -> { c with Engine.opt_level = l }))
          (fun () -> (Driver.run ~impl:Driver.Sac ~cls ()).Driver.rnm2))
      [ Mg_withloop.Wl.O0; Mg_withloop.Wl.O1; Mg_withloop.Wl.O2; Mg_withloop.Wl.O3 ]
  in
  match norms with
  | base :: rest ->
      List.iteri
        (fun i x ->
          Alcotest.(check bool)
            (Printf.sprintf "O%d vs O0 (%.6e vs %.6e)" (i + 1) x base)
            true
            (Float.abs (x -. base) /. base < 1e-9))
        rest
  | [] -> assert false

let test_sac_parallel_agrees () =
  let cls = Classes.tiny in
  let seq = Driver.run ~impl:Driver.Sac ~cls () in
  let par =
    Mg_withloop.(Wl.with_config (fun c -> { c with Engine.threads = 2 }))
      (fun () -> Driver.run ~impl:Driver.Sac ~cls ())
  in
  check_float "identical norm" seq.Driver.rnm2 par.Driver.rnm2

(* Official NPB verification — class S end-to-end for all three
   implementations (the W/A classes run in the benchmark binaries). *)
let test_official_class_s () =
  List.iter
    (fun impl ->
      let r = Driver.run ~impl ~cls:Classes.class_s () in
      Alcotest.(check bool)
        (Printf.sprintf "%s %a" (Driver.impl_to_string impl)
           (fun () s -> Format.asprintf "%a" Verify.pp_status s)
           r.Driver.status)
        true
        (match r.Driver.status with Verify.Verified _ -> true | _ -> false))
    [ Driver.F77; Driver.C; Driver.Sac ]

(* The paper's claim that the code is dimension-invariant: the same
   m_grid runs 1-D and 2-D multigrid and converges. *)
let test_rank_generic_v_cycle () =
  List.iter
    (fun shp ->
      let n = shp.(0) - 2 in
      let rank = Shape.rank shp in
      (* A smooth periodic right-hand side with zero mean. *)
      let pi = 4.0 *. Float.atan 1.0 in
      let v =
        Ndarray.init shp (fun iv ->
            let x = float_of_int ((iv.(0) + n - 1) mod n) /. float_of_int n in
            Float.sin (2.0 *. pi *. x))
      in
      let v = Mg_withloop.Wl.of_ndarray v in
      let u = Mg_sac.m_grid ~smoother:Stencil.s_a ~v ~iter:4 in
      Alcotest.(check int) "rank preserved" rank (Mg_withloop.Wl.rank u);
      let r =
        Mg_withloop.Wl.force (Mg_arraylib.Ops.sub v (Mg_sac.resid Stencil.a u))
      in
      (* The benchmark's coefficients are tuned for 3-D, so don't ask
         for 3-D convergence rates — only that the same code runs at
         other ranks and reduces the residual. *)
      let rnorm = Ndarray.fold (fun acc x -> acc +. (x *. x)) 0.0 r in
      let vnorm = Ndarray.fold (fun acc x -> acc +. (x *. x)) 0.0 (Mg_withloop.Wl.force v) in
      Alcotest.(check bool)
        (Printf.sprintf "rank %d residual reduced (%.3e vs %.3e)" rank rnorm vnorm)
        true (rnorm < 0.5 *. vnorm))
    [ [| 18 |]; [| 18; 18 |] ]

let suite =
  ( "mg",
    [ Alcotest.test_case "resid f77 = c" `Quick test_resid_f77_vs_c;
      Alcotest.test_case "psinv f77 = c" `Quick test_psinv_f77_vs_c;
      Alcotest.test_case "rprj3 f77 = c" `Quick test_rprj3_f77_vs_c;
      Alcotest.test_case "interp f77 = c" `Quick test_interp_f77_vs_c;
      Alcotest.test_case "cross-impl norms (tiny)" `Quick test_cross_impl_tiny;
      Alcotest.test_case "cross-impl norms (mini)" `Quick test_cross_impl_mini;
      Alcotest.test_case "resid level matrix, class S" `Quick test_resid_level_matrix_class_s;
      Alcotest.test_case "sac solution = f77 solution" `Quick test_sac_solution_matches_f77;
      Alcotest.test_case "sac opt levels agree" `Quick test_sac_all_opt_levels_agree;
      Alcotest.test_case "sac parallel agrees" `Quick test_sac_parallel_agrees;
      Alcotest.test_case "official verification, class S" `Slow test_official_class_s;
      Alcotest.test_case "rank-generic V-cycle" `Quick test_rank_generic_v_cycle;
    ] )
