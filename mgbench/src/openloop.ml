(* Open-loop accounting.  A request is timed from when it was due, not
   from when the generator got round to sending it, so a stall that
   delays later submissions shows up in their latency; how late the
   generator ran is reported on its own. *)

type outcome =
  | Served of { queue_ns : int64; solve_ns : int64 }
      (** Queue wait and solve time as the service measured them from
          the moment it accepted the request. *)
  | Missed  (** Refused, failed, or a wrong answer. *)

type request = {
  tenant : string;
  due_ns : int64;  (** Absolute due time. *)
  submit_ns : int64;  (** When the generator called submit. *)
  window_end_ns : int64;  (** When its phase's arrival window closed. *)
  outcome : outcome;
}

let ms ns = Int64.to_float ns *. 1e-6
let lag_ms r = ms (Int64.sub r.submit_ns r.due_ns)

(* Completion time, or [None] for a missed request. *)
let done_ns r =
  match r.outcome with
  | Served { queue_ns; solve_ns } -> Some (Int64.add r.submit_ns (Int64.add queue_ns solve_ns))
  | Missed -> None

(* Due-to-completion latency; a missed request never completes, so it
   misses any latency limit. *)
let latency_ms r =
  match done_ns r with Some d -> ms (Int64.sub d r.due_ns) | None -> infinity

type verdict = {
  n : int;
  p50_ms : float;
  tail : Stats.tail;  (** Latency at the highest percentile with enough samples beyond it. *)
  lag : Stats.tail;  (** Generator lag, same rule. *)
  backlog : int;  (** Requests not completed when the arrival window closed. *)
  growing : bool;
  meets : bool;  (** Tail within the limit and no growing backlog. *)
}

(* The queue keeps growing when the service could not keep up with the
   arrivals: more than a fifth of them (plus slack for the requests
   legitimately in flight) still outstanding when their window closed.
   A window of a few seconds below capacity ends with a few requests
   queued by chance; above capacity the backlog grows with every
   second. *)
let verdict ~limit_ms reqs =
  let lat = List.map latency_ms reqs in
  let n = List.length reqs in
  let backlog =
    List.length
      (List.filter (fun r -> match done_ns r with Some d -> d > r.window_end_ns | None -> true) reqs)
  in
  let growing = float_of_int backlog > (0.2 *. float_of_int n) +. 2.0 in
  let tail = Stats.tail lat in
  { n;
    p50_ms = Stats.median lat;
    tail;
    lag = Stats.tail (List.map lag_ms reqs);
    backlog;
    growing;
    meets = n > 0 && tail.Stats.value <= limit_ms && not growing }

(* The highest ladder rate whose rung, and every rung below it, meets
   the limit; 0 when even the lowest does not. *)
let sustainable rungs =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) rungs in
  let rec go best = function
    | (rate, v) :: rest when v.meets -> go rate rest
    | _ -> best
  in
  go 0.0 sorted
