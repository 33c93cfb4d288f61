(* Figure 11 — single-processor performance (paper §5).

   Runs all three implementations sequentially for each requested size
   class and prints absolute runtimes plus the two ratios the paper
   reports: by how much Fortran-77 outperforms SAC, and by how much SAC
   outperforms the C port.  Paper values for reference:

     class W: F77 beats SAC by 29.6 %, SAC beats C by 14.2 %
     class A: F77 beats SAC by 23.0 %, SAC beats C by 22.5 %  *)

open Mg_core
module Table = Mg_bench_util.Bench_util.Table

let run classes repeats csv kernels =
  Exp_common.header ();
  Printf.printf "# Figure 11: single-processor runtimes (best of %d)\n\n" repeats;
  (* A scoped engine derivation: the SAC leg's kernel tier for
     unrecognised bodies; F77/C are unaffected. *)
  let with_kernels f =
    match kernels with
    | Some k -> Mg_withloop.Wl.with_config (Mg_withloop.Engine.kernel_tier k) f
    | None -> f ()
  in
  with_kernels @@ fun () ->
  let rows = ref [] in
  List.iter
    (fun (cls : Classes.t) ->
      let results =
        List.map
          (fun impl ->
            let seconds, r = Exp_common.measure_seconds ~repeats ~impl ~cls in
            (impl, seconds, r))
          Exp_common.all_impls
      in
      let time_of i =
        let _, s, _ = List.find (fun (impl, _, _) -> impl = i) results in
        s
      in
      List.iter
        (fun (impl, seconds, r) ->
          rows :=
            [ cls.Classes.name;
              Exp_common.impl_label impl;
              Printf.sprintf "%.3f" seconds;
              Printf.sprintf "%.2f" (seconds /. time_of Driver.F77);
              Exp_common.status_string r;
            ]
            :: !rows)
        results;
      let f77 = time_of Driver.F77 and sac = time_of Driver.Sac and c = time_of Driver.C in
      Printf.printf "class %s: F77 outperforms SAC by %.1f%% (paper W: 29.6%%, A: 23.0%%); "
        cls.Classes.name (Exp_common.pct sac f77);
      Printf.printf "SAC vs C: %+.1f%% (positive = SAC faster; paper W: 14.2%%, A: 22.5%%)\n"
        (Exp_common.pct c sac))
    classes;
  Printf.printf "\n";
  let rows = List.rev !rows in
  Table.render Format.std_formatter
    ~header:[ "class"; "implementation"; "seconds"; "vs F77"; "verification" ]
    ~align:[ Table.L; Table.L; Table.R; Table.R; Table.L ] rows;
  (match csv with
  | Some path ->
      let oc = open_out path in
      Table.render_csv oc ~header:[ "class"; "implementation"; "seconds"; "vs_f77" ]
        (List.map (fun r -> List.filteri (fun i _ -> i < 4) r) rows);
      close_out oc;
      Printf.printf "\nCSV written to %s\n" path
  | None -> ());
  0

open Cmdliner

let classes_arg =
  Arg.(value
      & opt Exp_common.classes_conv [ Classes.class_s; Classes.class_w ]
      & info [ "classes" ] ~docv:"C1,C2" ~doc:"Size classes to run (default S,W; the paper uses W,A).")

let repeats_arg =
  Arg.(value & opt int 3 & info [ "repeats" ] ~docv:"N" ~doc:"Repetitions; the best time is kept.")

let csv_arg = Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Also write CSV.")

let kernels_arg =
  Arg.(value
       & opt (some (enum [ ("generic", `Generic); ("cfun", `Cfun); ("native", `Native) ])) None
       & info [ "kernels" ] ~docv:"PATH"
           ~doc:"Kernel path for the SAC implementation's unrecognised bodies: \
                 $(b,generic), $(b,cfun) (the O2+ default) or $(b,native) (AOT \
                 shared-object kernels).")

let cmd =
  Cmd.v
    (Cmd.info "fig11" ~doc:"reproduce Fig. 11: single-processor performance")
    Term.(const run $ classes_arg $ repeats_arg $ csv_arg $ kernels_arg)

let () = exit (Cmd.eval' cmd)
