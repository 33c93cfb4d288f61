(* The direct-periodic implementation (paper §7 future work): bare
   grids, relaxation as a folded sum of rotations.  Must agree with the
   border-based program and with the Fortran port. *)

open Mg_ndarray
open Mg_withloop
open Mg_core

let check_float = Alcotest.(check (float 0.0))

let compact_random n seed =
  let st = Mg_nasrand.Nasrand.make ~seed () in
  Ndarray.init [| n; n; n |] (fun _ -> Mg_nasrand.Nasrand.next st -. 0.5)

(* Oracle: apply a periodic stencil directly with modular indexing. *)
let periodic_stencil_oracle coeffs (a : Ndarray.t) =
  let shp = Ndarray.shape a in
  let n = shp.(0) in
  Ndarray.init shp (fun iv ->
      List.fold_left
        (fun acc (d, cls) ->
          let p = Array.init 3 (fun j -> (((iv.(j) + d.(j)) mod n) + n) mod n) in
          acc +. (Stencil.coeff coeffs cls *. Ndarray.get a p))
        0.0 (Stencil.offsets 3))

let test_relax_matches_oracle () =
  List.iter
    (fun coeffs ->
      let a = compact_random 8 191919.0 in
      let got = Wl.force (Mg_periodic.relax coeffs (Wl.of_ndarray a)) in
      let want = periodic_stencil_oracle coeffs a in
      Alcotest.(check bool)
        (Printf.sprintf "max diff %.3e" (Ndarray.max_abs_diff got want))
        true
        (Ndarray.max_abs_diff got want < 1e-12))
    [ Stencil.a; Stencil.s_a; Stencil.p; Stencil.q ]

let test_relax_all_opt_levels () =
  let a = compact_random 8 7.0 in
  let run l =
    Wl.with_config
      (fun c -> { c with Engine.opt_level = l })
      (fun () -> Wl.force (Mg_periodic.relax Stencil.p (Wl.of_ndarray a)))
  in
  let base = run Wl.O0 in
  List.iter
    (fun l -> Alcotest.(check bool) "agree" true (Ndarray.max_abs_diff base (run l) < 1e-12))
    [ Wl.O1; Wl.O2; Wl.O3 ]

let test_constant_field_annihilated () =
  (* A is a periodic Laplacian: constants are in its null space, with no
     boundary effects at all on bare grids. *)
  let a = Ndarray.fill_value [| 8; 8; 8 |] 3.25 in
  let got = Wl.force (Mg_periodic.resid (Wl.of_ndarray a)) in
  Alcotest.(check bool) "zero everywhere" true (Ndarray.max_abs_diff got (Ndarray.create [| 8; 8; 8 |]) < 1e-12)

let test_matches_border_implementation () =
  (* Same final norm as the border-based SAC program, to reassociation
     noise. *)
  List.iter
    (fun (cls : Classes.t) ->
      let rnm2_p, _ = Mg_periodic.run cls in
      let rnm2_b, _ = Mg_sac.run cls in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.13e vs %.13e" cls.Classes.name rnm2_p rnm2_b)
        true
        (Float.abs ((rnm2_p -. rnm2_b) /. rnm2_b) < 1e-9))
    [ Classes.tiny; Classes.mini ]

let test_official_class_s () =
  let r = Driver.run ~impl:Driver.Periodic ~cls:Classes.class_s () in
  Alcotest.(check bool)
    (Format.asprintf "%a" Verify.pp_status r.Driver.status)
    true
    (match r.Driver.status with Verify.Verified _ -> true | _ -> false)

let test_generate_compact_is_interior () =
  let n = 8 in
  let padded = Zran3.generate ~n in
  let compact = Zran3.generate_compact ~n in
  Generator.iter (Generator.full [| n; n; n |]) (fun iv ->
      check_float "interior value"
        (Ndarray.get padded (Array.map (fun c -> c + 1) iv))
        (Ndarray.get compact iv))

let test_rank_generic () =
  (* The rotation-based relax is rank-generic too. *)
  let a = Ndarray.init [| 6; 6 |] (fun iv -> float_of_int ((iv.(0) * 7) + iv.(1))) in
  let got = Wl.force (Mg_periodic.relax Stencil.p (Wl.of_ndarray a)) in
  let want =
    Ndarray.init [| 6; 6 |] (fun iv ->
        List.fold_left
          (fun acc (d, cls) ->
            let p = Array.init 2 (fun j -> (((iv.(j) + d.(j)) mod 6) + 6) mod 6) in
            acc +. (Stencil.coeff Stencil.p cls *. Ndarray.get a p))
          0.0 (Stencil.offsets 2))
  in
  Alcotest.(check bool) "2d" true (Ndarray.max_abs_diff got want < 1e-12)

let suite =
  ( "periodic",
    [ Alcotest.test_case "relax matches modular oracle" `Quick test_relax_matches_oracle;
      Alcotest.test_case "relax opt levels agree" `Quick test_relax_all_opt_levels;
      Alcotest.test_case "A annihilates constants" `Quick test_constant_field_annihilated;
      Alcotest.test_case "matches border implementation" `Quick test_matches_border_implementation;
      Alcotest.test_case "official verification, class S" `Slow test_official_class_s;
      Alcotest.test_case "compact charges = interior" `Quick test_generate_compact_is_interior;
      Alcotest.test_case "rank generic" `Quick test_rank_generic;
    ] )
