(* The repository benchmark.

     mgbench --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload (see mgbench/workloads.json) from the root of a
   checkout.  It prints a host and working-set record, one line per
   metric, and as its last line one JSON object with the keys
   correct, attempted, failed and metrics: the end-to-end metrics with
   --trace 0, the per-layer metrics (from spans, written to
   mgbench-out/) with --trace 1.  It exits non-zero when any output was
   wrong. *)

open Mgbench

let usage = "mgbench --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed for the interleaving order and arrival schedule");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the traced per-layer run (1)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let spec = Spec.load () in
  let w =
    match Spec.find spec !workload with
    | Some w when List.mem !workload Names.workloads -> w
    | _ ->
        prerr_endline ("mgbench: unknown workload " ^ !workload);
        exit 2
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let cls = Option.get (Mg_core.Classes.of_string w.Spec.cls) in
  print_endline
    ("record "
    ^ Json.to_string (Host.record ~workload:w.Spec.name ~cls:w.Spec.cls ~nx:cls.Mg_core.Classes.nx));
  let gate = Gate.create () in
  let seconds = float_of_int !seconds in
  let values, notes, expected =
    match
      if !trace = 1 then
        let m, n = Layers.run gate spec w ~seed:!seed ~seconds in
        (m, n, Names.per_layer)
      else
        let m, n =
          match w.Spec.serving with
          | Some _ -> Serving.run gate spec w ~seed:!seed ~seconds
          | None -> Npb.run gate w ~seed:!seed ~seconds
        in
        (m, n, Names.end_to_end)
    with
    | r -> r
    | exception e ->
        Gate.check gate false ("workload raised " ^ Printexc.to_string e);
        ([], [], if !trace = 1 then Names.per_layer else Names.end_to_end)
  in
  List.iter (fun n -> print_endline ("note " ^ n)) notes;
  List.iter
    (fun (e : Names.metric) ->
      match List.assoc_opt e.Names.name values with
      | Some v -> Printf.printf "metric %s = %s %s\n" e.Names.name (Json.number_to_string v) e.Names.unit_
      | None -> ())
    expected;
  let metrics =
    match Names.metrics_json expected values with
    | Ok j -> j
    | Error msg ->
        Gate.check gate false msg;
        Json.Obj []
  in
  List.iter (fun m -> print_endline ("miss " ^ m)) (List.rev gate.Gate.misses);
  Printf.printf "failed_frac = %s (%d of %d operations)\n"
    (Json.number_to_string (float_of_int gate.Gate.failed /. float_of_int (max 1 gate.Gate.attempted)))
    gate.Gate.failed gate.Gate.attempted;
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (Gate.correct gate));
            ("attempted", Json.Num (float_of_int gate.Gate.attempted));
            ("failed", Json.Num (float_of_int gate.Gate.failed));
            ("metrics", metrics) ]));
  exit (if Gate.correct gate then 0 else 1)
