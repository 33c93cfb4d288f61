(* Self-tests of the benchmark harness: the tail-percentile rule,
   open-loop timing from due times, seed determinism, and agreement of
   the printed names with BENCHMARK.json and workloads.json. *)

open Mgbench

let floats = Alcotest.(list (float 0.0))
let range n = List.init n (fun i -> float_of_int (i + 1))

(* ---- The highest percentile with >= 10 samples beyond it ---------- *)

let test_tail_thousand () =
  let t = Stats.tail (List.rev (range 1000)) in
  Alcotest.(check (float 0.0)) "p99 of 1..1000" 990.0 t.Stats.value;
  Alcotest.(check (float 1e-9)) "reported as p99" 99.0 t.Stats.pct;
  Alcotest.(check int) "ten beyond" 10 t.Stats.beyond_count

let test_tail_hundred () =
  (* p99 would have one sample beyond it; p90 is the highest with ten. *)
  let t = Stats.tail (range 100) in
  Alcotest.(check (float 0.0)) "value" 90.0 t.Stats.value;
  Alcotest.(check (float 1e-9)) "percentile" 90.0 t.Stats.pct;
  Alcotest.(check int) "beyond" 10 t.Stats.beyond_count;
  Alcotest.(check int) "samples" 100 t.Stats.samples

let test_tail_few () =
  let t = Stats.tail [ 3.0; 1.0; 2.0 ] in
  Alcotest.(check (float 0.0)) "maximum when too few samples" 3.0 t.Stats.value;
  Alcotest.(check int) "none beyond" 0 t.Stats.beyond_count;
  let t = Stats.tail (range 19) in
  Alcotest.(check (float 0.0)) "nineteen: ten beyond would be below the median" 19.0 t.Stats.value;
  let t = Stats.tail (range 21) in
  Alcotest.(check (float 0.0)) "twenty-one: p52 has ten beyond" 11.0 t.Stats.value

let test_tail_infinite () =
  (* A missed request (infinite latency) in the tail shows as a miss. *)
  let t = Stats.tail (infinity :: range 29) in
  Alcotest.(check bool) "finite: ten finite samples beyond" true (Float.is_finite t.Stats.value);
  let t = Stats.tail (List.init 11 (fun _ -> infinity) @ range 89) in
  Alcotest.(check bool) "eleven misses reach the tail" false (Float.is_finite t.Stats.value)

let test_median () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-12)) "lower quartile, on an order statistic" 2.0 (Stats.lower_quartile [ 5.0; 1.0; 3.0; 2.0; 4.0 ]);
  Alcotest.(check (float 1e-12)) "lower quartile, interpolated" 1.75 (Stats.lower_quartile [ 4.0; 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 0.0)) "lower quartile of one" 7.0 (Stats.lower_quartile [ 7.0 ])

(* ---- Open-loop timing ---------------------------------------------- *)

let ms x = Int64.of_float (x *. 1e6)

let req ?(tenant = "a") ?(window_end = 1e9) ~due ~submit outcome =
  { Openloop.tenant; due_ns = ms due; submit_ns = ms submit; window_end_ns = ms window_end; outcome }

let served q s = Openloop.Served { queue_ns = ms q; solve_ns = ms s }

let test_latency_from_due () =
  let r = req ~due:1000.0 ~submit:1005.0 (served 20.0 30.0) in
  Alcotest.(check (float 1e-6)) "due to completion" 55.0 (Openloop.latency_ms r);
  Alcotest.(check (float 1e-6)) "generator lag" 5.0 (Openloop.lag_ms r);
  Alcotest.(check (float 0.0)) "a missed request never completes" infinity
    (Openloop.latency_ms (req ~due:0.0 ~submit:0.0 Openloop.Missed))

let test_stall_counts () =
  (* The generator stalls until 100 ms: requests due at 0, 10 and 20 ms
     wait for it, and that wait is part of their latency. *)
  let reqs = List.map (fun d -> req ~window_end:200.0 ~due:d ~submit:100.0 (served 0.0 10.0)) [ 0.0; 10.0; 20.0 ] in
  Alcotest.check floats "latencies include the stall" [ 110.0; 100.0; 90.0 ] (List.map Openloop.latency_ms reqs);
  let v = Openloop.verdict ~limit_ms:1000.0 reqs in
  Alcotest.(check (float 1e-6)) "lag tail" 100.0 v.Openloop.lag.Stats.value;
  Alcotest.(check bool) "within the limit" true v.Openloop.meets

let test_verdict () =
  let at ?window_end i = req ?window_end ~due:(float_of_int i) ~submit:(float_of_int i) in
  let ok = List.init 30 (fun i -> at ~window_end:100.0 i (served 1.0 5.0)) in
  let v = Openloop.verdict ~limit_ms:10.0 ok in
  Alcotest.(check bool) "meets" true v.Openloop.meets;
  Alcotest.(check int) "no backlog" 0 v.Openloop.backlog;
  (* Twenty requests finishing after the window closed: a growing queue. *)
  let late = List.init 20 (fun i -> at ~window_end:100.0 i (served 200.0 5.0)) in
  let v = Openloop.verdict ~limit_ms:1e6 (ok @ late) in
  Alcotest.(check bool) "growing" true v.Openloop.growing;
  Alcotest.(check bool) "a growing queue fails the rung" false v.Openloop.meets;
  let missed = List.init 11 (fun i -> at i Openloop.Missed) in
  let v = Openloop.verdict ~limit_ms:1e6 (ok @ missed) in
  Alcotest.(check bool) "misses count against the limit" false v.Openloop.meets

let test_sustainable () =
  let v meets =
    { Openloop.n = 1; p50_ms = 1.0; tail = Stats.tail [ 1.0 ]; lag = Stats.tail [ 0.0 ]; backlog = 0;
      growing = false; meets }
  in
  Alcotest.(check (float 0.0)) "highest passing prefix" 10.0
    (Openloop.sustainable [ (20.0, v false); (5.0, v true); (40.0, v true); (10.0, v true) ]);
  Alcotest.(check (float 0.0)) "none" 0.0 (Openloop.sustainable [ (5.0, v false) ])

(* ---- Seed determinism ---------------------------------------------- *)

let tenants = [ ("a", 3); ("b", 1) ]
let arrivals seed = Seeded.arrivals ~seed ~name:"arrivals@10" ~rate:10.0 ~count:600 ~tenants

let test_same_seed () =
  let a = arrivals 7 and b = arrivals 7 in
  Alcotest.(check bool) "same arrival schedule" true (a = b);
  Alcotest.(check bool) "another seed, another schedule" false (a = arrivals 8);
  let ops = [ "sac"; "f77"; "c" ] in
  let i = Seeded.interleave ~seed:7 ~rounds:20 ops in
  Alcotest.(check bool) "same interleaving" true (i = Seeded.interleave ~seed:7 ~rounds:20 ops);
  Alcotest.(check bool) "another seed, another interleaving" false (i = Seeded.interleave ~seed:8 ~rounds:20 ops);
  List.iter
    (fun round -> Alcotest.(check (list string)) "each round is a permutation" (List.sort compare ops) (List.sort compare round))
    i

let test_arrival_shape () =
  let a = arrivals 3 in
  let n = List.length a in
  Alcotest.(check int) "count" 600 n;
  let dues = List.map (fun x -> x.Seeded.due_s) a in
  let last = List.nth dues (n - 1) in
  (* 600 gaps of mean 0.1 s: 60 s, within 5 standard deviations. *)
  Alcotest.(check bool) (Printf.sprintf "last arrival at %.1f s near count / rate" last) true (abs_float (last -. 60.0) < 12.5);
  Alcotest.(check bool) "increasing" true (List.sort compare dues = dues && List.hd dues > 0.0);
  let b = List.length (List.filter (fun x -> x.Seeded.tenant = "b") a) in
  Alcotest.(check bool) (Printf.sprintf "tenant b share %d/%d near 1/4" b n) true
    (abs_float ((float_of_int b /. float_of_int n) -. 0.25) < 0.06);
  Alcotest.(check bool) "streams are independent" false
    (a = Seeded.arrivals ~seed:3 ~name:"arrivals@20" ~rate:10.0 ~count:600 ~tenants)

(* ---- Names agree with BENCHMARK.json and workloads.json ------------ *)

let bench = lazy (Json.of_file "../../BENCHMARK.json")
let spec = lazy (Json.of_file "../workloads.json")
let names l = List.map (fun j -> Json.to_str (Json.member "name" j)) l

let metric_triples key =
  List.map
    (fun j ->
      ( Json.to_str (Json.member "name" j),
        Json.to_str (Json.member "unit" j),
        Json.to_str (Json.member "better" j) ))
    (Json.to_list (Json.member key (Lazy.force bench)))

let ours l = List.map (fun (m : Names.metric) -> (m.Names.name, m.Names.unit_, Names.better_string m.Names.better)) l
let triple = Alcotest.(list (triple string string string))

let test_names_benchmark () =
  let b = Lazy.force bench in
  Alcotest.(check (list string)) "workloads" Names.workloads (names (Json.to_list (Json.member "workloads" b)));
  Alcotest.check triple "end_to_end" (ours Names.end_to_end) (metric_triples "end_to_end");
  Alcotest.check triple "per_layer" (ours Names.per_layer) (metric_triples "per_layer")

let test_names_spec () =
  let s = Lazy.force spec in
  Alcotest.(check (list string)) "workloads" Names.workloads (Json.keys (Json.member "workloads" s));
  Alcotest.(check (list string)) "end_to_end"
    (List.map (fun (m : Names.metric) -> m.Names.name) Names.end_to_end)
    (Json.keys (Json.member "end_to_end" s));
  Alcotest.(check (list string)) "per_layer"
    (List.map (fun (m : Names.metric) -> m.Names.name) Names.per_layer)
    (Json.keys (Json.member "per_layer" s));
  let t = Spec.of_json s in
  Alcotest.(check (list string)) "every workload parses" Names.workloads (List.map (fun w -> w.Spec.name) t.Spec.workloads);
  let srv = Spec.serving t in
  Alcotest.(check (float 0.0)) "the headline rate is the ladder's lowest rung" srv.Spec.headline_rate
    (List.fold_left Float.min infinity srv.Spec.rates)

let test_metrics_line () =
  let values = List.map (fun (m : Names.metric) -> (m.Names.name, 1.5)) Names.end_to_end in
  (match Names.metrics_json Names.end_to_end values with
  | Ok j ->
      Alcotest.(check (list string)) "printed names" (List.map (fun (m : Names.metric) -> m.Names.name) Names.end_to_end)
        (Json.keys j)
  | Error e -> Alcotest.fail e);
  let bad l = match Names.metrics_json Names.end_to_end l with Ok _ -> false | Error _ -> true in
  Alcotest.(check bool) "missing" true (bad (List.tl values));
  Alcotest.(check bool) "unexpected" true (bad (("extra", 1.0) :: values));
  Alcotest.(check bool) "duplicated" true (bad (List.hd values :: values));
  Alcotest.(check bool) "not finite" true (bad (("solve_s", nan) :: List.tl values))

let test_json () =
  List.iter
    (fun (f, s) -> Alcotest.(check string) s s (Json.number_to_string f))
    [ (1.2034, "1.2034"); (0.1, "0.1"); (24.0, "24"); (1e-7, "1e-07") ];
  let j = Json.parse {|{"a": [1, 2.5, "x\"y"], "b": {"c": null, "d": true}}|} in
  Alcotest.(check string) "round trip" {|{"a": [1, 2.5, "x\"y"], "b": {"c": null, "d": true}}|} (Json.to_string j)

let () =
  Alcotest.run "mgbench"
    [ ( "tail",
        [ Alcotest.test_case "1000 samples" `Quick test_tail_thousand;
          Alcotest.test_case "100 samples" `Quick test_tail_hundred;
          Alcotest.test_case "too few samples" `Quick test_tail_few;
          Alcotest.test_case "missed requests" `Quick test_tail_infinite;
          Alcotest.test_case "median and lower quartile" `Quick test_median ] );
      ( "open loop",
        [ Alcotest.test_case "latency from due time" `Quick test_latency_from_due;
          Alcotest.test_case "a generator stall counts" `Quick test_stall_counts;
          Alcotest.test_case "rung verdict" `Quick test_verdict;
          Alcotest.test_case "sustainable rate" `Quick test_sustainable ] );
      ( "seed",
        [ Alcotest.test_case "same seed, same schedule" `Quick test_same_seed;
          Alcotest.test_case "arrival shape" `Quick test_arrival_shape ] );
      ( "names",
        [ Alcotest.test_case "BENCHMARK.json" `Quick test_names_benchmark;
          Alcotest.test_case "workloads.json" `Quick test_names_spec;
          Alcotest.test_case "result line" `Quick test_metrics_line;
          Alcotest.test_case "json" `Quick test_json ] ) ]
