open Mg_ndarray
open Mg_withloop
open Mg_arraylib

let nd = Alcotest.testable Ndarray.pp (Ndarray.equal ~eps:0.0)

(* Reference implementation: sequential axis-by-axis copies exactly as
   Fortran MG's comm3 does them. *)
let reference_border (a : Ndarray.t) =
  let b = Ndarray.copy a in
  let shp = Ndarray.shape b in
  let n = Shape.rank shp in
  for axis = 0 to n - 1 do
    let e = shp.(axis) in
    Shape.iter shp (fun iv ->
        if iv.(axis) = 0 then begin
          let src = Array.copy iv in
          src.(axis) <- e - 2;
          Ndarray.set b iv (Ndarray.get b src)
        end);
    Shape.iter shp (fun iv ->
        if iv.(axis) = e - 1 then begin
          let src = Array.copy iv in
          src.(axis) <- 1;
          Ndarray.set b iv (Ndarray.get b src)
        end)
  done;
  b

let ramp shp = Ndarray.init shp (fun iv -> float_of_int (Shape.ravel ~shape:shp iv + 3))

let test_matches_comm3_1d () =
  let a = ramp [| 7 |] in
  let got = Wl.force (Border.setup_periodic_border (Wl.of_ndarray a)) in
  Alcotest.check nd "1d" (reference_border a) got

let test_matches_comm3_2d () =
  let a = ramp [| 5; 6 |] in
  let got = Wl.force (Border.setup_periodic_border (Wl.of_ndarray a)) in
  Alcotest.check nd "2d" (reference_border a) got

let test_matches_comm3_3d () =
  let a = ramp [| 4; 5; 6 |] in
  let got = Wl.force (Border.setup_periodic_border (Wl.of_ndarray a)) in
  Alcotest.check nd "3d" (reference_border a) got

let test_interior_untouched () =
  let a = ramp [| 5; 5 |] in
  let got = Wl.force (Border.setup_periodic_border (Wl.of_ndarray a)) in
  Generator.iter (Generator.interior [| 5; 5 |] 1) (fun iv ->
      Alcotest.(check (float 0.0)) "interior" (Ndarray.get a iv) (Ndarray.get got iv))

let test_idempotent () =
  (* Setting up borders twice changes nothing: the copies only read the
     interior. *)
  let a = ramp [| 5; 5; 5 |] in
  let once = Wl.force (Border.setup_periodic_border (Wl.of_ndarray a)) in
  let twice = Wl.force (Border.setup_periodic_border (Wl.of_ndarray once)) in
  Alcotest.check nd "idempotent" once twice

let test_periodicity_property () =
  (* After setup, a 27-point neighbourhood read at any interior point
     with wrap-around equals the direct read in the extended grid. *)
  let shp = [| 6; 6; 6 |] in
  let a = ramp shp in
  let b = Wl.force (Border.setup_periodic_border (Wl.of_ndarray a)) in
  let n = 4 in
  (* interior extent *)
  let interior_get iv = Ndarray.get b (Array.map (fun c -> c + 1) iv) in
  let wrap c = ((c mod n) + n) mod n in
  Generator.iter (Generator.interior shp 1) (fun iv ->
      List.iter
        (fun d ->
          let direct = Ndarray.get b (Shape.add iv d) in
          let logical =
            interior_get (Array.mapi (fun j c -> wrap (c - 1 + d.(j))) iv)
          in
          Alcotest.(check (float 0.0)) "periodic neighbour" logical direct)
        [ [| -1; -1; -1 |]; [| -1; 0; 1 |]; [| 1; 1; 1 |]; [| 0; -1; 1 |] ])

let test_rejects_thin_arrays () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Border.setup_periodic_border (Wl.of_ndarray (Ndarray.create [| 2; 5 |])));
       false
     with Invalid_argument _ -> true)

let test_all_levels_agree () =
  let a = ramp [| 5; 4; 6 |] in
  let results =
    List.map
      (fun l ->
        Wl.with_config (fun c -> { c with Engine.opt_level = l }) (fun () ->
            Wl.force (Border.setup_periodic_border (Wl.of_ndarray a))))
      [ Wl.O0; Wl.O1; Wl.O2; Wl.O3 ]
  in
  match results with
  | r0 :: rest -> List.iter (fun r -> Alcotest.check nd "same" r0 r) rest
  | [] -> assert false

let suite =
  ( "border",
    [ Alcotest.test_case "matches comm3 (1d)" `Quick test_matches_comm3_1d;
      Alcotest.test_case "matches comm3 (2d)" `Quick test_matches_comm3_2d;
      Alcotest.test_case "matches comm3 (3d)" `Quick test_matches_comm3_3d;
      Alcotest.test_case "interior untouched" `Quick test_interior_untouched;
      Alcotest.test_case "idempotent" `Quick test_idempotent;
      Alcotest.test_case "periodicity property" `Quick test_periodicity_property;
      Alcotest.test_case "rejects thin arrays" `Quick test_rejects_thin_arrays;
      Alcotest.test_case "all levels agree" `Quick test_all_levels_agree;
    ] )
