(* The traced run: per-layer numbers from spans the benchmark records
   around calls into each layer's public functions, plus the counters
   the program already exports, read as per-solve deltas.  Nothing here
   is used for an end-to-end metric. *)

open Mg_ndarray
open Mg_core
open Mg_withloop
open Mg_arraylib
open Mgbench
module Clock = Mg_smp.Clock

let ns_to_ms ns = Int64.to_float ns *. 1e-6
let mb bytes = float_of_int bytes /. 1e6

(* Repeat [f] until [budget] seconds have passed, at least [min] times. *)
let repeat ?(min = 3) ~budget f =
  let deadline = Clock.now () +. budget in
  let rec go i acc = if i >= min && Clock.now () >= deadline then List.rev acc else go (i + 1) (f i :: acc) in
  go 0 []

let self_of name =
  let self = Tracer.self_ns () in
  List.map (fun s -> Int64.to_float (self s)) (Tracer.named name)

(* ---- Per-solve counter deltas ------------------------------------ *)

type counters = {
  kernel : (string * int) list;
  cache : Plan_cache.stats;
  mem : Mempool.snapshot;
  reuse_hits : int;
  gc : Gc.stat;
}

let c_reuse = Mg_obs.Metrics.counter "mempool.reuse_hits"

let counters e =
  { kernel = Kernel.counters ();
    cache = Engine.cache_stats e;
    mem = Mempool.snapshot ();
    reuse_hits = Mg_obs.Metrics.value c_reuse;
    gc = Gc.quick_stat () }

(* A SAC solve with its instrumentation: a span and the counters
   before and after. *)
let traced_solve gate ~engine cls =
  Tracer.with_span "solve" (fun () ->
      let c0 = counters engine in
      let s = Npb.solve gate ~engine cls Npb.Sac in
      let c1 = counters engine in
      Option.map (fun s -> (s, c0, c1)) s)

let counter_metrics (c0 : counters) (c1 : counters) =
  let kernel =
    List.map (fun (k, v) -> ("wl.kernel." ^ k, float_of_int (v - List.assoc k c0.kernel))) c1.kernel
  in
  let hits = c1.cache.Plan_cache.hits - c0.cache.Plan_cache.hits
  and misses = c1.cache.Plan_cache.misses - c0.cache.Plan_cache.misses in
  let words w = w *. float_of_int (Sys.word_size / 8) /. 1e6 in
  kernel
  @ [ ("wl.plan_cache.hits", float_of_int hits);
      ("wl.plan_cache.misses", float_of_int misses);
      ("wl.plan_cache.hit_ratio", float_of_int hits /. float_of_int (max 1 (hits + misses)));
      ("mempool.alloc_mb", mb (c1.mem.Mempool.alloc_bytes - c0.mem.Mempool.alloc_bytes));
      ("mempool.live_hw_mb", mb c1.mem.Mempool.bytes_live_hw);
      ("mempool.reuse_hits", float_of_int (c1.reuse_hits - c0.reuse_hits));
      ("mempool.pool_hits", float_of_int (c1.mem.Mempool.reused - c0.mem.Mempool.reused));
      ("gc.minor_mb", words (c1.gc.Gc.minor_words -. c0.gc.Gc.minor_words));
      ("gc.promoted_mb", words (c1.gc.Gc.promoted_words -. c0.gc.Gc.promoted_words));
      ("gc.major_collections", float_of_int (c1.gc.Gc.major_collections - c0.gc.Gc.major_collections)) ]

(* Untraced and traced SAC solves, alternating: the overhead of the
   instrumentation, [Driver.run]'s own cost, and the counter deltas of
   the last traced solve. *)
let solve_pairs gate ~engine cls ~budget =
  let pairs =
    repeat ~min:2 ~budget (fun _ ->
        Tracer.on := false;
        let u = Npb.solve gate ~engine cls Npb.Sac in
        Tracer.on := true;
        (u, traced_solve gate ~engine cls))
  in
  let untraced = List.filter_map fst pairs and traced = List.filter_map snd pairs in
  let secs l = Stats.median (List.map (fun (s : Npb.solve) -> s.Npb.result.Driver.seconds) l) in
  let tsolves = List.map (fun (s, _, _) -> s) traced in
  let overhead =
    Stats.median
      (List.map (fun (s : Npb.solve) -> (s.Npb.wall -. s.Npb.result.Driver.seconds) *. 1e3) (untraced @ tsolves))
  in
  let _, c0, c1 = List.nth traced (List.length traced - 1) in
  counter_metrics c0 c1
  @ [ ("driver.overhead_ms", overhead); ("obs.trace_overhead", (secs tsolves /. secs untraced) -. 1.0) ]

(* ---- F77, wrapped from outside ----------------------------------- *)

let interior g = (Ndarray.shape g).(0) - 2

(* The routines record with a span around every operator call. *)
let wrap (rt : Schedule.routines) =
  let span name g f = Tracer.with_span ("f77." ^ name) ~attrs:[ ("n", string_of_int (interior g)) ] f in
  { rt with
    Schedule.resid = (fun ~u ~v ~r ~a -> span "resid" u (fun () -> rt.Schedule.resid ~u ~v ~r ~a));
    psinv = (fun ~r ~u ~c -> span "psinv" r (fun () -> rt.Schedule.psinv ~r ~u ~c));
    rprj3 = (fun ~fine ~coarse -> span "rprj3" fine (fun () -> rt.Schedule.rprj3 ~fine ~coarse));
    interp = (fun ~coarse ~fine -> span "interp" fine (fun () -> rt.Schedule.interp ~coarse ~fine)) }

let f77_ops = [ "resid"; "psinv"; "rprj3"; "interp" ]

(* [Schedule.run] over the wrapped routines: its rnm2 must be bitwise
   equal to [Mg_f77.run]'s (the reference an untraced F77 solve
   recorded), and the operator spans must cover at least 95 % of the
   NAS-timed seconds. *)
let f77 gate cls ~budget =
  let nx = cls.Classes.nx in
  let key = "f77/" ^ cls.Classes.name in
  let solves =
    repeat ~min:1 ~budget (fun i ->
        Tracer.with_span ~req:i "f77.solve" (fun () -> Schedule.run (wrap Mg_f77.routines) cls))
  in
  List.iter
    (fun (rnm2, _) ->
      let ok = Verify.status_ok (Verify.check cls ~rnm2) && Gate.matches gate ~key rnm2 in
      Gate.check gate ok (Printf.sprintf "wrapped Schedule.run rnm2 %h differs from Mg_f77.run" rnm2))
    solves;
  let timed = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 solves in
  let self = Tracer.self_ns () in
  let op_spans = List.concat_map (fun op -> Tracer.named ("f77." ^ op)) f77_ops in
  let at_fine s = int_of_string (Tracer.attr s "n") = nx in
  let covered = List.fold_left (fun acc s -> acc +. Int64.to_float (Tracer.dur_ns s)) 0.0 op_spans *. 1e-9 in
  let coverage = covered /. timed in
  Gate.check gate (coverage >= 0.95) (Printf.sprintf "f77 operator spans cover %.3f of the timed seconds" coverage);
  let elts = float_of_int (nx * nx * nx) in
  let fine op =
    let l = List.filter at_fine (Tracer.named ("f77." ^ op)) in
    let total = List.fold_left (fun acc s -> acc +. Int64.to_float (self s)) 0.0 l in
    (Printf.sprintf "f77.%s.fine_ns_elt" op, total /. (float_of_int (List.length l) *. elts))
  in
  let coarse =
    List.fold_left (fun acc s -> if at_fine s then acc else acc +. Int64.to_float (self s)) 0.0 op_spans
  in
  List.map fine f77_ops
  @ [ ("f77.coarse_ms", coarse *. 1e-6 /. float_of_int (List.length solves)); ("f77.op_coverage", coverage) ]

(* ---- SAC operators, one force at a time --------------------------- *)

(* Solved F77 state of the class: realistic grids for the probes. *)
let solved_state cls =
  let st = Schedule.setup cls in
  Schedule.iterate Mg_f77.routines st;
  st

let sac gate e cls st ~budget =
  let lt = Classes.levels cls and nx = cls.Classes.nx in
  let leaf g = Wl.of_ndarray g in
  let u = leaf st.Schedule.u.(lt) and r = leaf st.Schedule.r.(lt) and v = leaf st.Schedule.v in
  let zc = leaf st.Schedule.u.(lt - 1) and rc = leaf st.Schedule.r.(lt - 1) in
  let smoother = Classes.smoother_coeffs cls in
  let probes =
    [ ("resid", fun () -> Ops.sub v (Mg_sac.resid Stencil.a u));
      ("psinv", fun () -> Ops.add u (Mg_sac.smooth smoother r));
      ("rprj3", fun () -> Mg_sac.fine2coarse r);
      ("interp", fun () -> Mg_sac.coarse2fine zc);
      ("comm3", fun () -> Border.setup_periodic_border u);
      ("coarse", fun () -> Mg_sac.v_cycle ~smoother rc) ]
  in
  (* Each force runs inside a pool scope on the warm engine; its result
     is handed back to the arena so the next force reuses it, as the
     solver's own intermediates are. *)
  let force name build =
    Wl.with_engine e (fun () ->
        Wl.with_pool_scope (fun () ->
            let g = Tracer.with_span ("sac." ^ name) (fun () -> Wl.force (build ())) in
            Mempool.recycle g))
  in
  let elts = float_of_int (nx * nx * nx) in
  List.map
    (fun (name, build) ->
      (* The first, untraced force compiles the plan. *)
      ignore
        (Gate.attempt gate ("sac probe " ^ name) (fun () ->
             Tracer.on := false;
             force name build;
             Tracer.on := true;
             repeat ~budget (fun _ -> force name build)));
      Tracer.on := true;
      let t = Stats.median (self_of ("sac." ^ name)) in
      if name = "coarse" then ("sac.coarse_ms", t *. 1e-6)
      else (Printf.sprintf "sac.%s.fine_ns_elt" name, t /. elts))
    probes

(* ---- smp, driver inputs, verification ------------------------------ *)

let fork_join () =
  let pool = Mg_smp.Domain_pool.create 2 in
  Fun.protect ~finally:(fun () -> Mg_smp.Domain_pool.shutdown pool) (fun () ->
      let job () = Mg_smp.Domain_pool.parallel_for pool ~lo:0 ~hi:2 (fun _ _ -> ()) in
      for _ = 1 to 50 do job () done;
      for _ = 1 to 500 do Tracer.with_span "smp.parallel_for" job done;
      ("smp.fork_join_us", Stats.median (self_of "smp.parallel_for") *. 1e-3))

let inputs cls st =
  let nx = cls.Classes.nx and lt = Classes.levels cls in
  for _ = 1 to 5 do ignore (Tracer.with_span "zran3.generate" (fun () -> Zran3.generate ~n:nx)) done;
  for _ = 1 to 5 do
    ignore (Tracer.with_span "verify.norm2u3" (fun () -> Verify.norm2u3 st.Schedule.r.(lt) ~n:nx))
  done;
  [ ("zran3.generate_ms", Stats.median (self_of "zran3.generate") *. 1e-6);
    ("verify.norm_ms", Stats.median (self_of "verify.norm2u3") *. 1e-6) ]

(* ---- The serving layer --------------------------------------------- *)

let serve gate spec ~seed ~duration =
  let s = Spec.serving spec in
  let cls = Classes.class_s in
  let limit_ms = spec.Spec.latency_limit_ms in
  let srv, warm, (p, hit_ratio) =
    Serving.with_service gate s cls (fun srv ->
        let rate = s.Spec.headline_rate in
        let p =
          Serving.rung ~limit_ms ~rate
            [ Serving.window gate srv s cls ~seed ~name:(Printf.sprintf "arrivals@%g" rate) ~rate ~duration ]
        in
        let c = Engine.cache_stats (List.hd (Mg_serve.Serve.engines srv)) in
        let h = c.Plan_cache.hits and m = c.Plan_cache.misses in
        (p, float_of_int h /. float_of_int (max 1 (h + m))))
  in
  Serving.accounting gate srv ~warm p.Serving.windows;
  let v = p.Serving.verdict in
  let served f = List.map (fun r -> ns_to_ms (f r)) (Serving.responses p) in
  let queue = served (fun r -> r.Mg_serve.Serve.queue_ns) and solve = served (fun r -> r.Mg_serve.Serve.solve_ns) in
  let tenant_b =
    List.filter_map
      (fun (r : Openloop.request) -> if r.Openloop.tenant = "b" then Some (Openloop.latency_ms r) else None)
      (Serving.requests p)
  in
  [ ("serve.submit_us", Stats.median (self_of "serve.submit") *. 1e-3);
    ("serve.queue_ms.p50", Stats.median queue);
    ("serve.queue_ms.p99", (Stats.tail queue).Stats.value);
    ("serve.solve_ms.p50", Stats.median solve);
    ("serve.solve_ms.p99", (Stats.tail solve).Stats.value);
    ("serve.latency_p99_ms", v.Openloop.tail.Stats.value);
    ("serve.tenant_b.latency_p99_ms", (Stats.tail tenant_b).Stats.value);
    ("serve.rejected", float_of_int (Mg_serve.Serve.stats srv).Mg_serve.Admission.rejected);
    ("serve.plan_cache.hit_ratio", hit_ratio);
    ("serve.generator_lag_ms", v.Openloop.lag.Stats.value) ]

let trace_path ~workload ~seed = Printf.sprintf "mgbench-out/trace-%s-seed%d.jsonl" workload seed

let run gate spec (w : Spec.workload) ~seed ~seconds =
  let cls = Option.get (Classes.of_string w.Spec.cls) in
  Tracer.enable ();
  Mempool.clear ();
  let engine = Npb.create_engine () in
  let metrics =
    Fun.protect ~finally:(fun () -> Engine.shutdown engine) (fun () ->
        (* References: the first SAC and F77 solves of the class, and a
           class-S twin for the serve probe's answers. *)
        ignore (Npb.solve gate ~engine cls Npb.Sac);
        ignore (Npb.solve gate ~engine cls Npb.F77);
        ignore (Npb.solve gate ~engine Classes.class_s Npb.Sac);
        let pairs = solve_pairs gate ~engine cls ~budget:(0.3 *. seconds) in
        let f77 = f77 gate cls ~budget:(0.1 *. seconds) in
        let st = solved_state cls in
        let sac = sac gate engine cls st ~budget:(0.03 *. seconds) in
        let inputs = inputs cls st in
        let smp = fork_join () in
        (* At least 8 s (80 requests at 10/s), so both tenants are all
           but sure to be served. *)
        let serve_s = if w.Spec.serving = None then 0.15 else 0.4 in
        let serve = serve gate spec ~seed ~duration:(Float.max 8.0 (serve_s *. seconds)) in
        pairs @ f77 @ sac @ inputs @ (smp :: serve))
  in
  let path = trace_path ~workload:w.Spec.name ~seed in
  (try Sys.mkdir "mgbench-out" 0o755 with Sys_error _ -> ());
  Tracer.write path;
  (metrics, [ Printf.sprintf "spans=%d written to %s" (List.length (Tracer.all ())) path ])
