(* Every workload and metric the benchmark prints, with its unit and
   direction; BENCHMARK.json lists the same names (a self-test checks
   it) and the result line is checked against these lists before it
   is printed. *)

type metric = { name : string; unit_ : string; better : [ `Lower | `Higher ] }

let m ?(better = `Lower) name unit_ = { name; unit_; better }

let workloads = [ "npb-w"; "serve-s" ]

let end_to_end =
  [ m "solve_s" "s";
    m "f77_solve_s" "s";
    m "c_solve_s" "s";
    m "sac_f77_ratio" "ratio";
    m "c_f77_ratio" "ratio";
    m "setup_s" "s";
    m "peak_rss_mb" "MB";
    m "latency_p50_ms" "ms";
    m ~better:`Higher "sustainable_rate_per_s" "1/s" ]

let per_layer =
  List.concat
    [ List.map (fun op -> m (Printf.sprintf "f77.%s.fine_ns_elt" op) "ns/elt") [ "resid"; "psinv"; "rprj3"; "interp" ];
      [ m "f77.coarse_ms" "ms"; m ~better:`Higher "f77.op_coverage" "ratio" ];
      List.map
        (fun op -> m (Printf.sprintf "sac.%s.fine_ns_elt" op) "ns/elt")
        [ "resid"; "psinv"; "rprj3"; "interp"; "comm3" ];
      [ m "sac.coarse_ms" "ms" ];
      List.map
        (fun k -> m ("wl.kernel." ^ k) "count")
        [ "stencil"; "linebuf"; "copy"; "interp"; "cfun"; "native"; "generic" ];
      [ m ~better:`Higher "wl.plan_cache.hits" "count";
        m "wl.plan_cache.misses" "count";
        m ~better:`Higher "wl.plan_cache.hit_ratio" "ratio";
        m "mempool.alloc_mb" "MB";
        m "mempool.live_hw_mb" "MB";
        m ~better:`Higher "mempool.reuse_hits" "count";
        m ~better:`Higher "mempool.pool_hits" "count";
        m "gc.minor_mb" "MB";
        m "gc.promoted_mb" "MB";
        m "gc.major_collections" "count";
        m "smp.fork_join_us" "us";
        m "driver.overhead_ms" "ms";
        m "zran3.generate_ms" "ms";
        m "verify.norm_ms" "ms";
        m "serve.submit_us" "us";
        m "serve.queue_ms.p50" "ms";
        m "serve.queue_ms.p99" "ms";
        m "serve.solve_ms.p50" "ms";
        m "serve.solve_ms.p99" "ms";
        m "serve.latency_p99_ms" "ms";
        m "serve.tenant_b.latency_p99_ms" "ms";
        m "serve.rejected" "count";
        m ~better:`Higher "serve.plan_cache.hit_ratio" "ratio";
        m "serve.generator_lag_ms" "ms";
        m "obs.trace_overhead" "ratio" ] ]

let better_string = function `Lower -> "lower" | `Higher -> "higher"

(* The metrics object of the result line, in [expected] order.  Fails
   when a value is missing, duplicated, not expected, or not finite. *)
let metrics_json expected values =
  let missing = List.filter (fun e -> not (List.mem_assoc e.name values)) expected in
  let extra = List.filter (fun (n, _) -> not (List.exists (fun e -> e.name = n) expected)) values in
  let dup = List.length values <> List.length (List.sort_uniq compare (List.map fst values)) in
  let bad = List.filter (fun (_, v) -> not (Float.is_finite v)) values in
  if missing <> [] || extra <> [] || dup || bad <> [] then
    Error
      (Printf.sprintf "metrics: missing [%s] unexpected [%s]%s non-finite [%s]"
         (String.concat "," (List.map (fun e -> e.name) missing))
         (String.concat "," (List.map fst extra))
         (if dup then " duplicated" else "")
         (String.concat "," (List.map fst bad)))
  else
    Ok
      (Json.Obj
         (List.map
            (fun e ->
              (e.name, Json.Obj [ ("value", Json.Num (List.assoc e.name values)); ("unit", Json.Str e.unit_) ]))
            expected))
