open Mg_core

let test_impl_round_trip () =
  List.iter
    (fun impl ->
      let s = Driver.impl_to_string impl in
      Alcotest.(check bool) s true (Driver.impl_of_string s = Some impl))
    [ Driver.Sac; Driver.F77; Driver.C; Driver.Periodic ];
  Alcotest.(check bool) "aliases" true
    (Driver.impl_of_string "Fortran-77" = Some Driver.F77
    && Driver.impl_of_string "OpenMP" = Some Driver.C
    && Driver.impl_of_string "nope" = None)

let test_all_impls_agree_on_tiny () =
  let norms =
    List.map
      (fun impl -> (Driver.run ~impl ~cls:Classes.tiny ()).Driver.rnm2)
      [ Driver.Sac; Driver.F77; Driver.C; Driver.Periodic ]
  in
  match norms with
  | base :: rest ->
      List.iter
        (fun x ->
          Alcotest.(check bool)
            (Printf.sprintf "%.6e vs %.6e" x base)
            true
            (Float.abs ((x -. base) /. base) < 1e-9))
        rest
  | [] -> assert false

let test_trace_collection () =
  let r = Driver.traced_run ~impl:Driver.F77 ~cls:Classes.tiny in
  Alcotest.(check bool) "events recorded" true (List.length r.Driver.events > 10);
  (* The trace must cover every routine of the schedule. *)
  let tags = List.map (fun (e : Mg_smp.Trace.event) -> e.Mg_smp.Trace.tag) r.Driver.events in
  List.iter
    (fun tag -> Alcotest.(check bool) tag true (List.mem tag tags))
    [ "f77:resid"; "f77:psinv"; "f77:rprj3"; "f77:interp"; "f77:comm3" ];
  (* Self-times are positive and sum to roughly the run time. *)
  let total = Mg_smp.Trace.total_seconds r.Driver.events in
  Alcotest.(check bool) "total positive" true (total > 0.0)

let test_untraced_has_no_events () =
  let r = Driver.run ~impl:Driver.F77 ~cls:Classes.tiny () in
  Alcotest.(check int) "no events" 0 (List.length r.Driver.events)

(* Solving under a derived engine must leave the caller's current
   engine's configuration untouched. *)
let test_config_isolated () =
  let open Mg_withloop in
  let cfg () = Engine.config (Engine.current ()) in
  let before = cfg () in
  let engine =
    Engine.derive (Engine.current ()) (fun c -> { c with Engine.opt_level = Wl.O1; threads = 2 })
  in
  ignore (Driver.run ~engine ~impl:Driver.Sac ~cls:Classes.tiny ());
  Alcotest.(check string) "opt untouched"
    (Wl.opt_level_to_string before.Engine.opt_level)
    (Wl.opt_level_to_string (cfg ()).Engine.opt_level);
  Alcotest.(check int) "threads untouched" before.Engine.threads (cfg ()).Engine.threads

let test_schedule_determinism () =
  let r1 = Driver.run ~impl:Driver.F77 ~cls:Classes.mini () in
  let r2 = Driver.run ~impl:Driver.F77 ~cls:Classes.mini () in
  Alcotest.(check (float 0.0)) "bitwise deterministic" r1.Driver.rnm2 r2.Driver.rnm2

let test_wl_trace_events_parallel_flag () =
  let r = Driver.traced_run ~impl:Driver.Sac ~cls:Classes.tiny in
  Alcotest.(check bool) "with-loop events parallelisable" true
    (List.for_all (fun (e : Mg_smp.Trace.event) -> e.Mg_smp.Trace.parallel) r.Driver.events)

let suite =
  ( "driver",
    [ Alcotest.test_case "impl round trip" `Quick test_impl_round_trip;
      Alcotest.test_case "all four impls agree (tiny)" `Quick test_all_impls_agree_on_tiny;
      Alcotest.test_case "trace collection" `Quick test_trace_collection;
      Alcotest.test_case "untraced has no events" `Quick test_untraced_has_no_events;
      Alcotest.test_case "caller config isolated" `Quick test_config_isolated;
      Alcotest.test_case "deterministic" `Quick test_schedule_determinism;
      Alcotest.test_case "wl events parallel flag" `Quick test_wl_trace_events_parallel_flag;
    ] )
