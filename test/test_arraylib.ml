open Mg_ndarray
open Mg_withloop
open Mg_arraylib
module E = Wl.Expr

let nd = Alcotest.testable Ndarray.pp (Ndarray.equal ~eps:1e-12)
let check_float = Alcotest.(check (float 1e-12))

let ramp shp = Ndarray.init shp (fun iv -> float_of_int (Shape.ravel ~shape:shp iv + 1))

let all_levels f =
  List.iter
    (fun l ->
      Wl.with_config (fun c -> { c with Engine.opt_level = l }) (fun () ->
          f (Wl.opt_level_to_string l)))
    [ Wl.O0; Wl.O1; Wl.O2; Wl.O3 ]

let test_elementwise () =
  all_levels (fun lvl ->
      let a = ramp [| 2; 3 |] and b = ramp [| 2; 3 |] in
      let wa = Wl.of_ndarray a and wb = Wl.of_ndarray b in
      Alcotest.check nd (lvl ^ " add") (Ndarray.map2 ( +. ) a b) (Wl.force (Ops.add wa wb));
      Alcotest.check nd (lvl ^ " sub") (Ndarray.map2 ( -. ) a b) (Wl.force (Ops.sub wa wb));
      Alcotest.check nd (lvl ^ " mul") (Ndarray.map2 ( *. ) a b) (Wl.force (Ops.mul wa wb));
      Alcotest.check nd (lvl ^ " div") (Ndarray.map2 ( /. ) a b) (Wl.force (Ops.div wa wb));
      Alcotest.check nd (lvl ^ " scalar")
        (Ndarray.map (fun x -> (2.0 *. x) +. 1.0) a)
        (Wl.force (Ops.add_scalar (Ops.mul_scalar wa 2.0) 1.0)))

let test_elementwise_shape_mismatch () =
  let a = Wl.of_ndarray (Ndarray.create [| 2 |]) and b = Wl.of_ndarray (Ndarray.create [| 3 |]) in
  Alcotest.check_raises "mismatch" (Invalid_argument "Arraylib.zip_with: shape mismatch ([2] vs [3])")
    (fun () -> ignore (Ops.add a b))

let test_reductions () =
  let a = Wl.of_ndarray (ramp [| 2; 3 |]) in
  check_float "sum" 21.0 (Ops.sum a);
  check_float "product" 720.0 (Ops.product a);
  check_float "max" 6.0 (Ops.max_val a);
  check_float "min" 1.0 (Ops.min_val a);
  check_float "sum squares" 91.0 (Ops.sum_squares a);
  let b = Wl.of_ndarray (Ndarray.of_array1 [| -5.0; 3.0 |]) in
  check_float "max abs" 5.0 (Ops.max_abs b)

let test_condense () =
  all_levels (fun lvl ->
      let a = ramp [| 6; 6 |] in
      let c = Wl.force (Select.condense 2 (Wl.of_ndarray a)) in
      let expected = Ndarray.init [| 3; 3 |] (fun iv -> Ndarray.get a (Shape.scale 2 iv)) in
      Alcotest.check nd lvl expected c)

let test_scatter () =
  all_levels (fun lvl ->
      let a = ramp [| 2; 2 |] in
      let s = Wl.force (Select.scatter 2 (Wl.of_ndarray a)) in
      let expected =
        Ndarray.init [| 4; 4 |] (fun iv ->
            if iv.(0) mod 2 = 0 && iv.(1) mod 2 = 0 then
              Ndarray.get a [| iv.(0) / 2; iv.(1) / 2 |]
            else 0.0)
      in
      Alcotest.check nd lvl expected s)

let test_condense_scatter_inverse () =
  all_levels (fun lvl ->
      let a = ramp [| 3; 4 |] in
      let roundtrip = Wl.force (Select.condense 2 (Select.scatter 2 (Wl.of_ndarray a))) in
      Alcotest.check nd lvl a roundtrip)

let test_embed () =
  all_levels (fun lvl ->
      let a = ramp [| 2; 2 |] in
      let e = Wl.force (Select.embed [| 4; 4 |] [| 1; 1 |] (Wl.of_ndarray a)) in
      let expected =
        Ndarray.init [| 4; 4 |] (fun iv ->
            if iv.(0) >= 1 && iv.(0) <= 2 && iv.(1) >= 1 && iv.(1) <= 2 then
              Ndarray.get a [| iv.(0) - 1; iv.(1) - 1 |]
            else 0.0)
      in
      Alcotest.check nd lvl expected e)

let test_take_embed_roundtrip () =
  all_levels (fun lvl ->
      let a = ramp [| 3; 3 |] in
      let roundtrip =
        Wl.force (Select.take [| 3; 3 |] (Select.embed [| 5; 5 |] [| 0; 0 |] (Wl.of_ndarray a)))
      in
      Alcotest.check nd lvl a roundtrip)

let test_take_drop () =
  let a = ramp [| 4; 4 |] in
  let t = Wl.force (Select.take [| 2; 3 |] (Wl.of_ndarray a)) in
  Alcotest.check nd "take" (Ndarray.init [| 2; 3 |] (Ndarray.get a)) t;
  let d = Wl.force (Select.drop [| 1; 2 |] (Wl.of_ndarray a)) in
  Alcotest.check nd "drop"
    (Ndarray.init [| 3; 2 |] (fun iv -> Ndarray.get a [| iv.(0) + 1; iv.(1) + 2 |]))
    d

let test_tile () =
  let a = ramp [| 5; 5 |] in
  let t = Wl.force (Select.tile [| 2; 2 |] [| 1; 3 |] (Wl.of_ndarray a)) in
  Alcotest.check nd "tile"
    (Ndarray.init [| 2; 2 |] (fun iv -> Ndarray.get a [| iv.(0) + 1; iv.(1) + 3 |]))
    t

let test_shift () =
  all_levels (fun lvl ->
      let a = Ndarray.of_array1 [| 1.0; 2.0; 3.0; 4.0 |] in
      let s = Wl.force (Select.shift [| 1 |] (Wl.of_ndarray a)) in
      Alcotest.check nd (lvl ^ " right") (Ndarray.of_array1 [| 0.0; 1.0; 2.0; 3.0 |]) s;
      let s = Wl.force (Select.shift [| -2 |] (Wl.of_ndarray a)) in
      Alcotest.check nd (lvl ^ " left") (Ndarray.of_array1 [| 3.0; 4.0; 0.0; 0.0 |]) s)

let test_rotate () =
  all_levels (fun lvl ->
      let a = Ndarray.of_array1 [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
      let r = Wl.force (Select.rotate [| 2 |] (Wl.of_ndarray a)) in
      Alcotest.check nd (lvl ^ " rot2") (Ndarray.of_array1 [| 4.0; 5.0; 1.0; 2.0; 3.0 |]) r;
      let r = Wl.force (Select.rotate [| -1 |] (Wl.of_ndarray a)) in
      Alcotest.check nd (lvl ^ " rot-1") (Ndarray.of_array1 [| 2.0; 3.0; 4.0; 5.0; 1.0 |]) r)

let test_rotate_2d () =
  let a = ramp [| 3; 4 |] in
  let r = Wl.force (Select.rotate [| 1; 2 |] (Wl.of_ndarray a)) in
  let expected =
    Ndarray.init [| 3; 4 |] (fun iv ->
        Ndarray.get a [| (iv.(0) + 2) mod 3; (iv.(1) + 2) mod 4 |])
  in
  Alcotest.check nd "2d rotate" expected r

let test_transpose () =
  let a = ramp [| 2; 3 |] in
  let t = Wl.force (Select.transpose (Wl.of_ndarray a)) in
  Alcotest.check nd "transpose" (Ndarray.init [| 3; 2 |] (fun iv -> Ndarray.get a [| iv.(1); iv.(0) |])) t

let test_reshape () =
  let a = ramp [| 2; 3 |] in
  let r = Wl.force (Select.reshape [| 3; 2 |] (Wl.of_ndarray a)) in
  check_float "linear order kept" (Ndarray.get a [| 0; 2 |]) (Ndarray.get r [| 1; 0 |])

let test_validation () =
  let a = Wl.of_ndarray (ramp [| 3; 3 |]) in
  Alcotest.(check bool) "take too big" true
    (try
       ignore (Select.take [| 4; 3 |] a);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "embed does not fit" true
    (try
       ignore (Select.embed [| 3; 3 |] [| 1; 1 |] a);
       false
     with Invalid_argument _ -> true)

(* qcheck properties over random shapes/strides *)

let shape_gen = QCheck.Gen.(list_size (1 -- 3) (2 -- 6) >|= Array.of_list)

let arb_shape = QCheck.make ~print:Shape.to_string shape_gen

let qcheck_condense_scatter =
  QCheck.Test.make ~name:"condense s (scatter s a) = a" ~count:100
    QCheck.(pair arb_shape (2 -- 3))
    (fun (shp, s) ->
      let a = ramp shp in
      let r = Wl.force (Select.condense s (Select.scatter s (Wl.of_ndarray a))) in
      Ndarray.equal a r)

let qcheck_take_embed =
  QCheck.Test.make ~name:"take (shape a) (embed big pos a) = a when pos = 0" ~count:100 arb_shape
    (fun shp ->
      let a = ramp shp in
      let big = Shape.add_scalar shp 2 in
      let pos = Shape.replicate (Shape.rank shp) 0 in
      let r = Wl.force (Select.take shp (Select.embed big pos (Wl.of_ndarray a))) in
      Ndarray.equal a r)

let qcheck_rotate_inverse =
  QCheck.Test.make ~name:"rotate (-d) (rotate d a) = a" ~count:100
    QCheck.(pair arb_shape (list_of_size Gen.(return 3) (-7 -- 7)))
    (fun (shp, ds) ->
      let d = Array.of_list (List.filteri (fun i _ -> i < Shape.rank shp) ds) in
      QCheck.assume (Shape.rank d = Shape.rank shp);
      let a = ramp shp in
      let r = Wl.force (Select.rotate (Shape.scale (-1) d) (Select.rotate d (Wl.of_ndarray a))) in
      Ndarray.equal a r)

let qcheck_sum_matches_fold =
  QCheck.Test.make ~name:"Ops.sum = Ndarray.fold (+.)" ~count:100 arb_shape (fun shp ->
      let a = ramp shp in
      Float.abs (Ops.sum (Wl.of_ndarray a) -. Ndarray.fold ( +. ) 0.0 a) < 1e-9)

let qcheck_shift_then_unshift =
  (* shift d then shift (-d) clears a band but restores the rest. *)
  QCheck.Test.make ~name:"shift -d (shift d a) restores the unclipped region" ~count:100
    QCheck.(pair arb_shape (1 -- 2))
    (fun (shp, d0) ->
      QCheck.assume (Array.for_all (fun e -> e > d0) shp);
      let a = ramp shp in
      let d = Shape.replicate (Shape.rank shp) d0 in
      let r =
        Wl.force (Select.shift (Shape.scale (-1) d) (Select.shift d (Wl.of_ndarray a)))
      in
      let ok = ref true in
      Shape.iter shp (fun iv ->
          let inside = Array.for_all2 (fun c e -> c < e - d0) iv shp in
          let expected = if inside then Ndarray.get a iv else 0.0 in
          if Float.abs (Ndarray.get r iv -. expected) > 0.0 then ok := false);
      !ok)

let qcheck_rotate_preserves_multiset =
  QCheck.Test.make ~name:"rotate preserves sum and extrema" ~count:100
    QCheck.(pair arb_shape (list_of_size Gen.(return 3) (-5 -- 5)))
    (fun (shp, ds) ->
      let d = Array.of_list (List.filteri (fun i _ -> i < Shape.rank shp) ds) in
      QCheck.assume (Shape.rank d = Shape.rank shp);
      let a = ramp shp in
      let r = Select.rotate d (Wl.of_ndarray a) in
      let wa = Wl.of_ndarray a in
      Float.abs (Ops.sum r -. Ops.sum wa) < 1e-9
      && Ops.max_val r = Ops.max_val wa
      && Ops.min_val r = Ops.min_val wa)

let qcheck_condense_of_embed =
  (* Embedding at the origin then condensing by the embed padding's
     stride recovers a sub-sampling of the original. *)
  QCheck.Test.make ~name:"condense s . embed = subsample" ~count:100
    QCheck.(pair arb_shape (2 -- 3))
    (fun (shp, s) ->
      let a = ramp shp in
      let big = Shape.scale s shp in
      let pos = Shape.replicate (Shape.rank shp) 0 in
      let c = Wl.force (Select.condense s (Select.embed big pos (Wl.of_ndarray a))) in
      let ok = ref true in
      Ndarray.iteri c (fun iv v ->
          let src = Shape.scale s iv in
          let expected = if Shape.within ~shape:shp src then Ndarray.get a src else 0.0 in
          if v <> expected then ok := false);
      !ok)

let qcheck_transpose_involution =
  QCheck.Test.make ~name:"transpose (transpose a) = a" ~count:100 arb_shape (fun shp ->
      let a = ramp shp in
      Ndarray.equal a (Wl.force (Select.transpose (Select.transpose (Wl.of_ndarray a)))))

let suite =
  ( "arraylib",
    [ Alcotest.test_case "elementwise" `Quick test_elementwise;
      Alcotest.test_case "elementwise mismatch" `Quick test_elementwise_shape_mismatch;
      Alcotest.test_case "reductions" `Quick test_reductions;
      Alcotest.test_case "condense" `Quick test_condense;
      Alcotest.test_case "scatter" `Quick test_scatter;
      Alcotest.test_case "condense . scatter = id" `Quick test_condense_scatter_inverse;
      Alcotest.test_case "embed" `Quick test_embed;
      Alcotest.test_case "take . embed = id" `Quick test_take_embed_roundtrip;
      Alcotest.test_case "take/drop" `Quick test_take_drop;
      Alcotest.test_case "tile" `Quick test_tile;
      Alcotest.test_case "shift" `Quick test_shift;
      Alcotest.test_case "rotate" `Quick test_rotate;
      Alcotest.test_case "rotate 2d" `Quick test_rotate_2d;
      Alcotest.test_case "transpose" `Quick test_transpose;
      Alcotest.test_case "reshape" `Quick test_reshape;
      Alcotest.test_case "validation" `Quick test_validation;
      QCheck_alcotest.to_alcotest qcheck_condense_scatter;
      QCheck_alcotest.to_alcotest qcheck_take_embed;
      QCheck_alcotest.to_alcotest qcheck_rotate_inverse;
      QCheck_alcotest.to_alcotest qcheck_sum_matches_fold;
      QCheck_alcotest.to_alcotest qcheck_shift_then_unshift;
      QCheck_alcotest.to_alcotest qcheck_rotate_preserves_multiset;
      QCheck_alcotest.to_alcotest qcheck_condense_of_embed;
      QCheck_alcotest.to_alcotest qcheck_transpose_involution;
    ] )
