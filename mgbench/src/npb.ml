(* The closed-loop solve workload: interleaved rounds of SAC, F77 and C
   solves of one class through [Driver.run], and the set-up time of a
   fresh engine. *)

open Mg_core
open Mg_withloop
open Mgbench
module Clock = Mg_smp.Clock

type op = Sac | F77 | C

let op_name = function Sac -> "sac" | F77 -> "f77" | C -> "c"
let ops = [ Sac; F77; C ]

(* Every SAC solve runs at 1 thread under the default engine
   configuration, whatever the environment says. *)
let create_engine () = Engine.create ~config:Engine.default_config ()

type solve = {
  op : op;
  result : Driver.result;
  wall : float;
  calib : float;  (** The mean of [Calib] ticks taken just before and after the solve. *)
}

(* One gated solve: it must pass NAS verification, and its rnm2 must be
   bitwise equal to the first rnm2 of the same implementation and class
   in this run. *)
let solve gate ~engine cls op =
  let impl, engine =
    match op with Sac -> (Driver.Sac, Some engine) | F77 -> (Driver.F77, None) | C -> (Driver.C, None)
  in
  let what = Printf.sprintf "%s class %s" (op_name op) cls.Classes.name in
  Gate.attempt gate what (fun () ->
      let before = Calib.tick () in
      let t0 = Clock.now () in
      let r = Tracer.with_span ("driver." ^ op_name op) (fun () -> Driver.run ?engine ~impl ~cls ()) in
      let wall = Clock.now () -. t0 in
      (r, wall, (before +. Calib.tick ()) /. 2.0))
  |> Option.map (fun (r, wall, calib) ->
         let key = Driver.impl_to_string impl ^ "/" ^ cls.Classes.name in
         let ok = Verify.status_ok r.Driver.status && Gate.bitwise_ok gate ~key r.Driver.rnm2 in
         Gate.check gate ok (Printf.sprintf "%s: rnm2 %h failed verification or the bitwise gate" what r.Driver.rnm2);
         { op; result = r; wall; calib })

(* One untimed solve of every op: plans compiled, arenas grown. *)
let warm_up gate ~engine cls = List.iter (fun op -> ignore (solve gate ~engine cls op)) ops

(* Rounds until [deadline] (at least one), each running every op once
   in an order drawn from the seed's [stream]. *)
let rounds ?stream gate ~engine cls ~seed ~deadline =
  let rec go acc = function
    | order :: rest ->
        let round = List.filter_map (solve gate ~engine cls) order in
        let acc = round :: acc in
        if Clock.now () >= deadline then List.rev acc else go acc rest
    | [] -> List.rev acc
  in
  go [] (Seeded.interleave ?name:stream ~seed ~rounds:10_000 ops)

let seconds_of op round =
  List.find_map (fun s -> if s.op = op then Some s.result.Driver.seconds else None) round

let scaled_seconds_of op round =
  List.find_map (fun s -> if s.op = op then Some (Calib.scale ~calib:s.calib s.result.Driver.seconds) else None) round

(* Median over rounds of an op's solve time, each scaled by its
   ticks. *)
let time_of op rounds = Stats.median (List.filter_map (scaled_seconds_of op) rounds)

(* Median over rounds of a per-round ratio of two ops' scaled solve
   times: within a round of class-W solves, seconds long, the host can
   change phase. *)
let ratio_of a b rounds =
  Stats.median
    (List.filter_map
       (fun r -> match (scaled_seconds_of a r, scaled_seconds_of b r) with Some x, Some y -> Some (x /. y) | _ -> None)
       rounds)

(* The end-to-end solve metrics of a set of rounds. *)
let solve_metrics rounds =
  [ ("solve_s", time_of Sac rounds);
    ("f77_solve_s", time_of F77 rounds);
    ("c_solve_s", time_of C rounds);
    ("sac_f77_ratio", ratio_of Sac F77 rounds);
    ("c_f77_ratio", ratio_of C F77 rounds) ]

let quartiles_note what xs =
  let a = Stats.sorted xs in
  let q k = a.(k * (Array.length a - 1) / 4) in
  Printf.sprintf "%s: n=%d min=%.4g q1=%.4g median=%.4g q3=%.4g max=%.4g" what (Array.length a) (q 0) (q 1) (q 2)
    (q 3) (q 4)

(* Per op: sample count and quartiles of its unscaled solve times, and
   those of the ticks. *)
let spread_notes rounds =
  List.map (fun op -> quartiles_note (op_name op ^ " unscaled s") (List.filter_map (seconds_of op) rounds)) ops
  @ [ quartiles_note "calibration tick s" (List.concat_map (List.map (fun s -> s.calib)) rounds) ]

(* The SAC solves are also the workload's requests: a closed loop with
   one client, each timed (and scaled) from when it was sent to its
   verified answer. *)
let closed_loop_latency rounds =
  let lat =
    List.concat_map
      (List.filter_map (fun s -> if s.op = Sac then Some (Calib.scale ~calib:s.calib s.wall *. 1e3) else None))
      rounds
  in
  let p50 = Stats.median lat and tail = Stats.tail lat in
  ([ ("latency_p50_ms", p50); ("sustainable_rate_per_s", 1e3 /. p50) ], tail)

(* The one-time cost in [pairs] of (tick, cold, warm) timings: the
   median of cold minus warm, scaled by the median tick (the pairs take
   a second or two, within one phase of the host), and a note on the
   unscaled cold and warm timings. *)
let one_time what pairs =
  let calib = Stats.median (List.map (fun (c, _, _) -> c) pairs) in
  ( Calib.scale ~calib (Stats.median (List.map (fun (_, cold, warm) -> cold -. warm) pairs)),
    [ quartiles_note (what ^ " unscaled cold s") (List.map (fun (_, c, _) -> c) pairs);
      quartiles_note (what ^ " unscaled warm s") (List.map (fun (_, _, w) -> w) pairs) ] )

(* The set-up recipe: 25 fresh engines, each solving an NAS-sized
   64³ grid for one iteration, cold and then warm. *)
let setup_cls = Classes.make_custom ~name:"setup-64-1" ~nx:64 ~nit:1
let setup_pairs = 25

(* Set-up time of a fresh engine: with the arenas emptied, create an
   engine and solve cold (plan compilation, arena growth), then solve
   warm on it. *)
let setup_engine gate =
  let one () =
    Mempool.clear ();
    let calib = Calib.tick () in
    let t0 = Clock.now () in
    let engine = create_engine () in
    let cold = solve gate ~engine setup_cls Sac in
    let t1 = Clock.now () in
    let warm = solve gate ~engine setup_cls Sac in
    let t2 = Clock.now () in
    Engine.shutdown engine;
    match (cold, warm) with Some _, Some _ -> Some (calib, t1 -. t0, t2 -. t1) | _ -> None
  in
  one_time "setup engine" (List.filter_map (fun _ -> one ()) (List.init setup_pairs Fun.id))

(* [f ()], whose memory high-water mark is read before the set-up
   pairs run, so that [peak_rss_mb] covers the workload itself; the
   RSS the set-up pairs leave behind is reported as a note. *)
let then_setup f setup =
  let r = f () in
  let peak = Host.status_mb "VmHWM" in
  let rss0 = Host.status_mb "VmRSS" in
  let setup_s, notes = setup () in
  let grew = Host.status_mb "VmRSS" -. rss0 in
  (r, [ ("peak_rss_mb", peak); ("setup_s", setup_s) ], Printf.sprintf "set-up pairs: RSS grew %.1f MB" grew :: notes)

let run gate (w : Spec.workload) ~seed ~seconds =
  let cls = Option.get (Classes.of_string w.Spec.cls) in
  let rs, setup, setup_notes =
    then_setup
      (fun () ->
        let engine = create_engine () in
        Fun.protect ~finally:(fun () -> Engine.shutdown engine) (fun () ->
            warm_up gate ~engine cls;
            rounds gate ~engine cls ~seed ~deadline:(Clock.now () +. seconds)))
      (fun () -> setup_engine gate)
  in
  let latency, tail = closed_loop_latency rs in
  let notes =
    (Printf.sprintf "rounds=%d; latency tail p%.1f %.1f ms of %d closed-loop SAC requests (%d beyond)"
       (List.length rs) tail.Stats.pct tail.Stats.value tail.Stats.samples tail.Stats.beyond_count
    :: spread_notes rs)
    @ setup_notes
  in
  (solve_metrics rs @ latency @ setup, notes)
