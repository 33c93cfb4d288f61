(* The open-loop serving workload: seeded Poisson arrivals of class-S
   SAC requests from one generator on the main domain into [Serve],
   timed from their due times, over a fixed rate ladder. *)

open Mg_core
open Mg_withloop
open Mg_serve
open Mgbench
module Clock = Mg_smp.Clock

(* One serving worker domain with one solver thread, under the default
   engine configuration; the admission bound is far above any backlog
   the ladder builds, so no request is refused. *)
let config = { Serve.capacity = 256; workers = 1; solver_threads = 1; engine_config = Engine.default_config }

let request (s : Spec.serving) cls tenant =
  Serve.request ~tenant ~weight:(List.assoc tenant s.Spec.tenants)
    (Serve.Solve (Serve.spec ~impl:Driver.Sac ~cls ()))

let twin_key cls = "sac/" ^ cls.Classes.name

(* A served response must be verified and bitwise equal to the
   sequential [Driver.run] twin already recorded under the same key.
   [Some (response, ok)] for every completed request. *)
let check_response gate cls what = function
  | Serve.Done r ->
      let ok = r.Serve.verified && Gate.matches gate ~key:(twin_key cls) r.Serve.rnm2 in
      Gate.check gate ok (Printf.sprintf "%s: rnm2 %h unverified or not bitwise equal to its twin" what r.Serve.rnm2);
      Some (r, ok)
  | Serve.Failed msg ->
      Gate.check gate false (what ^ " failed: " ^ msg);
      None
  | Serve.Cancelled ->
      Gate.check gate false (what ^ " cancelled");
      None

(* Admission accounting must be exact: every submission accepted or
   refused, every accepted request completed, nothing left queued or in
   flight, and the totals equal to what the generator counted. *)
let check_accounting gate srv ~submitted ~completed =
  let s = Serve.stats srv in
  let ok =
    s.Admission.submitted = submitted
    && s.Admission.accepted + s.Admission.rejected = s.Admission.submitted
    && s.Admission.completed = s.Admission.accepted - s.Admission.cancelled
    && s.Admission.completed = completed
    && s.Admission.queued = 0 && s.Admission.in_flight = 0
  in
  Gate.check gate ok
    (Printf.sprintf "accounting: submitted %d/%d accepted %d rejected %d completed %d/%d queued %d in flight %d"
       s.Admission.submitted submitted s.Admission.accepted s.Admission.rejected s.Admission.completed completed
       s.Admission.queued s.Admission.in_flight)

(* Submit one request and wait for it (closed loop). *)
let round_trip gate srv s cls what =
  match Serve.submit srv (request s cls (fst (List.hd s.Spec.tenants))) with
  | Ok ticket -> check_response gate cls what (Serve.await srv ticket)
  | Error e ->
      Gate.check gate false (what ^ " refused: " ^ Admission.reject_to_string e);
      None

(* A [Calib] tick run on the worker domain itself, as a [Custom]
   request: the host's two processors change speed independently, so
   ticks on the main domain do not measure the worker. *)
let submit_tick ?tenant ?weight srv = Serve.submit srv (Serve.request ?tenant ?weight (Serve.Custom Calib.tick))

(* The tick's time, or [None] (counted failed) when it was not served. *)
let await_tick gate srv = function
  | Ok ticket -> (
      match Serve.await srv ticket with
      | Serve.Done r -> Some r.Serve.rnm2
      | Serve.Failed msg ->
          Gate.check gate false ("calibration request failed: " ^ msg);
          None
      | Serve.Cancelled ->
          Gate.check gate false "calibration request cancelled";
          None)
  | Error e ->
      Gate.check gate false ("calibration request refused: " ^ Admission.reject_to_string e);
      None

(* The median of [k] worker ticks, one after another, and the number
   served. *)
let worker_tick gate srv k =
  let ticks = List.filter_map (fun _ -> await_tick gate srv (submit_tick srv)) (List.init k Fun.id) in
  (Stats.median ticks, List.length ticks)

(* Set-up time of a fresh service, [setup_pairs] times: create it and
   time its first (cold) request, then time a warm one, then take
   three ticks on its worker.  The requests solve a class-S grid for
   one iteration: the same plans as a class-S request, with a quarter
   of the solve time, and so of its jitter, in each timing.  Their
   sequential twin is solved first. *)
let setup_cls = Classes.make_custom ~name:"setup-32-1" ~nx:32 ~nit:1
let setup_pairs = 25

let setup gate ~engine (s : Spec.serving) =
  ignore (Npb.solve gate ~engine setup_cls Npb.Sac);
  let one () =
    let t0 = Clock.now () in
    let srv = Serve.create ~config () in
    let cold = round_trip gate srv s setup_cls "setup cold request" in
    let t1 = Clock.now () in
    let warm = round_trip gate srv s setup_cls "setup warm request" in
    let t2 = Clock.now () in
    let calib, ticked = worker_tick gate srv 3 in
    Serve.shutdown srv;
    let completed = ticked + List.length (List.filter Option.is_some [ cold; warm ]) in
    check_accounting gate srv ~submitted:5 ~completed;
    match (cold, warm) with Some (_, true), Some (_, true) -> Some (calib, t1 -. t0, t2 -. t1) | _ -> None
  in
  Npb.one_time "setup service" (List.filter_map (fun _ -> one ()) (List.init setup_pairs Fun.id))

let rec sleep_until t_ns =
  let d = Int64.sub t_ns (Clock.now_ns ()) in
  if d > 0L then begin
    Unix.sleepf (Int64.to_float d *. 1e-9);
    sleep_until t_ns
  end

type window = {
  requests : Openloop.request list;
  submitted : int;  (** Including calibration requests. *)
  completed : int;
  responses : Serve.response list;  (** The completed, correct ones. *)
  scaled_ms : float list;
      (** With [~calibrate], each request's latency scaled by the worker
          tick that ran right after it (infinite when it was missed). *)
}

(* One open-loop window of about [duration] seconds at [rate], arrivals
   drawn from the seed's stream [name]: submit each request at its due
   time without waiting for answers, then collect every answer, so
   nothing is in flight when the window returns.  The window closes at
   the last arrival.  With [~calibrate], every request is followed by a
   worker tick of the same tenant, which the worker runs after it. *)
let window ?(calibrate = false) gate srv (s : Spec.serving) cls ~seed ~name ~rate ~duration =
  let count = max 1 (int_of_float (Float.round (rate *. duration))) in
  let arrivals = Seeded.arrivals ~seed ~name ~rate ~count ~tenants:s.Spec.tenants in
  let t0 = Int64.add (Clock.now_ns ()) 1_000_000L in
  let last = List.fold_left (fun _ (a : Seeded.arrival) -> a.Seeded.due_s) 0.0 arrivals in
  let window_end_ns = Int64.add t0 (Int64.of_float (last *. 1e9)) in
  let sent =
    List.map
      (fun (a : Seeded.arrival) ->
        let due_ns = Int64.add t0 (Int64.of_float (a.Seeded.due_s *. 1e9)) in
        sleep_until due_ns;
        let submit_ns = Clock.now_ns () in
        let r = Tracer.with_span "serve.submit" (fun () -> Serve.submit srv (request s cls a.Seeded.tenant)) in
        let tick =
          if calibrate then
            (* The tenant's own weight: the last weight submitted wins. *)
            Some (submit_tick ~tenant:a.Seeded.tenant ~weight:(List.assoc a.Seeded.tenant s.Spec.tenants) srv)
          else None
        in
        (a.Seeded.tenant, due_ns, submit_ns, r, tick))
      arrivals
  in
  let collected =
    List.map
      (fun (tenant, due_ns, submit_ns, r, tick) ->
        let what = Printf.sprintf "request at %g/s due %Ld" rate due_ns in
        let resp =
          match r with
          | Ok ticket -> check_response gate cls what (Serve.await srv ticket)
          | Error e ->
              Gate.check gate false (what ^ " refused: " ^ Admission.reject_to_string e);
              None
        in
        let outcome =
          match resp with
          | Some (r, true) -> Openloop.Served { queue_ns = r.Serve.queue_ns; solve_ns = r.Serve.solve_ns }
          | _ -> Openloop.Missed
        in
        let req = { Openloop.tenant; due_ns; submit_ns; window_end_ns; outcome } in
        (match (r, Openloop.done_ns req) with
        | Ok ticket, Some d -> Tracer.record ~req:ticket ~attrs:[ ("tenant", tenant) ] "serve.request" ~t0:due_ns ~t1:d
        | _ -> ());
        let calib = Option.bind tick (await_tick gate srv) in
        (req, resp, calib))
      sent
  in
  let completed = List.filter_map (fun (_, r, _) -> r) collected in
  let calibs = List.filter_map (fun (_, _, c) -> c) collected in
  { requests = List.map (fun (r, _, _) -> r) collected;
    submitted = List.length sent * if calibrate then 2 else 1;
    completed = List.length completed + List.length calibs;
    responses = List.filter_map (fun (r, ok) -> if ok then Some r else None) completed;
    scaled_ms =
      List.filter_map
        (fun (r, _, c) ->
          match (Openloop.done_ns r, c) with
          | None, _ -> Some infinity
          | Some _, Some calib -> Some (Calib.scale ~calib (Openloop.latency_ms r))
          | Some _, None -> None)
        collected }

(* One rung of the ladder: the windows run at its rate, judged together. *)
type rung = { rate : float; verdict : Openloop.verdict; windows : window list }

let rung ~limit_ms ~rate windows =
  { rate; verdict = Openloop.verdict ~limit_ms (List.concat_map (fun w -> w.requests) windows); windows }

let requests r = List.concat_map (fun w -> w.requests) r.windows
let responses r = List.concat_map (fun w -> w.responses) r.windows

(* A warm service: created, one request served, ready for load. *)
let with_service gate (s : Spec.serving) cls f =
  let srv = Serve.create ~config () in
  let warm = round_trip gate srv s cls "warm-up request" in
  let result = Fun.protect ~finally:(fun () -> Serve.shutdown srv) (fun () -> f srv) in
  (srv, warm, result)

let accounting gate srv ~warm windows =
  let sum f = List.fold_left (fun acc w -> acc + f w) 0 windows in
  let ok = if Option.is_some warm then 1 else 0 in
  check_accounting gate srv ~submitted:(1 + sum (fun w -> w.submitted)) ~completed:(ok + sum (fun w -> w.completed))

(* The run is split into [blocks] blocks, each running twin rounds, a
   headline window and a climb of the ladder, so that every phase
   samples the whole run rather than one stretch of it: on a shared
   host, speed changes over tens of seconds.  The shares are of the
   run's seconds, summed over the blocks; a climb runs [rung_share] per
   rung above the headline. *)
let blocks = 5
let twin_share = 0.15
let headline_share = 0.3
let rung_share = 0.18

(* One block's climb: the headline window (the lowest rung), then each
   higher rung in turn while the one below it met the limit.  The rungs
   run, lowest first. *)
let climb gate srv (s : Spec.serving) cls ~limit_ms ~seed ~seconds ~block =
  let per_block share = share *. seconds /. float_of_int blocks in
  let run_rung ?calibrate rate share =
    rung ~limit_ms ~rate
      [ window ?calibrate gate srv s cls ~seed
          ~name:(Printf.sprintf "arrivals@%g#%d" rate block)
          ~rate ~duration:(per_block share) ]
  in
  let rec go acc = function
    | rate :: rest when (List.hd acc).verdict.Openloop.meets -> go (run_rung rate rung_share :: acc) rest
    | _ -> List.rev acc
  in
  go
    [ run_rung ~calibrate:true s.Spec.headline_rate headline_share ]
    (List.filter (fun r -> r > s.Spec.headline_rate) (List.sort_uniq Float.compare s.Spec.rates))

let sustainable climb = Openloop.sustainable (List.map (fun r -> (r.rate, r.verdict)) climb)

let climb_note block climb =
  Printf.sprintf "block %d climb:%s" block
    (String.concat ""
       (List.map
          (fun r ->
            let v = r.verdict in
            Printf.sprintf " %g/s n=%d p%.0f=%.0fms backlog=%d %s;" r.rate v.Openloop.n v.Openloop.tail.Stats.pct
              v.Openloop.tail.Stats.value v.Openloop.backlog
              (if v.Openloop.meets then "meets" else "misses"))
          climb))

let run gate spec (w : Spec.workload) ~seed ~seconds =
  let cls = Option.get (Classes.of_string w.Spec.cls) in
  let s = Option.get w.Spec.serving in
  let limit_ms = spec.Spec.latency_limit_ms in
  let engine = Npb.create_engine () in
  let (srv, warm, blocks), setup, setup_notes =
    Fun.protect ~finally:(fun () -> Engine.shutdown engine) (fun () ->
        Npb.then_setup
          (fun () ->
            (* The warm-up records the sequential twin every served
               answer must equal bitwise. *)
            Npb.warm_up gate ~engine cls;
            with_service gate s cls (fun srv ->
                List.init blocks (fun k ->
                    let rounds =
                      Npb.rounds ~stream:(Printf.sprintf "interleave#%d" k) gate ~engine cls ~seed
                        ~deadline:(Clock.now () +. (twin_share *. seconds /. float_of_int blocks))
                    in
                    (rounds, climb gate srv s cls ~limit_ms ~seed ~seconds ~block:k))))
          (fun () -> setup gate ~engine s))
  in
  let climbs = List.map snd blocks and rounds = List.concat_map fst blocks in
  accounting gate srv ~warm (List.concat_map (fun c -> List.concat_map (fun r -> r.windows) c) climbs);
  let heads = List.map List.hd climbs in
  let head = rung ~limit_ms ~rate:s.Spec.headline_rate (List.concat_map (fun r -> r.windows) heads) in
  let v = head.verdict in
  (* Over the blocks, the median of the headline windows' medians of
     scaled latency, which a burst of host load spanning one or two
     blocks does not move, and the lower quartile of the rates
     sustained: the rate the service kept up in all but one block, so
     neither one block hit by a burst nor the blocks that fell in a fast
     phase of the host move it. *)
  let p50 = Stats.median (List.concat_map (fun r -> List.map (fun w -> Stats.median w.scaled_ms) r.windows) heads) in
  let rate = Stats.lower_quartile (List.map sustainable climbs) in
  let notes =
    (Printf.sprintf
       "twin rounds=%d; unscaled latency at %g/s: p50 %.1f ms, p%.1f %.1f ms of %d requests (%d beyond), generator lag p%.1f %.2f ms"
       (List.length rounds) head.rate v.Openloop.p50_ms v.Openloop.tail.Stats.pct v.Openloop.tail.Stats.value
       v.Openloop.n v.Openloop.tail.Stats.beyond_count v.Openloop.lag.Stats.pct v.Openloop.lag.Stats.value
    :: List.mapi climb_note climbs)
    @ Npb.spread_notes rounds @ setup_notes
  in
  ( Npb.solve_metrics rounds
    @ [ ("latency_p50_ms", p50); ("sustainable_rate_per_s", rate) ]
    @ setup,
    notes )
