(* The workload definitions, read from mgbench/workloads.json: the one
   place the classes, arrival rates, tenant mix and latency limit are
   written down.  Everything else a workload needs (one solver thread,
   one serving worker, the set-up recipes) is fixed in the code that
   runs it. *)

type serving = {
  rates : float list;  (** The rate ladder, per second. *)
  headline_rate : float;  (** The rung the latency metrics are read at. *)
  tenants : (string * int) list;
}

type workload = {
  name : string;
  cls : string;  (** NAS class name, as [Classes.of_string] reads it. *)
  serving : serving option;  (** Present for the open-loop workload. *)
}

type t = { latency_limit_ms : float; workloads : workload list }

let path = "mgbench/workloads.json"

let of_json j =
  let open Json in
  let serving j =
    match j with
    | Obj kv when List.mem_assoc "rates_per_s" kv ->
        Some
          { rates = List.map to_num (to_list (member "rates_per_s" j));
            headline_rate = to_num (member "headline_rate_per_s" j);
            tenants = Seeded.parse_tenants (to_str (member "tenants" j)) }
    | _ -> None
  in
  let workload (name, j) = { name; cls = to_str (member "class" j); serving = serving j } in
  { latency_limit_ms = to_num (member "latency_limit_ms" j);
    workloads =
      (match member "workloads" j with
      | Obj kv -> List.map workload kv
      | _ -> raise (Error "workloads: expected an object")) }

let load ?(file = path) () = of_json (Json.of_file file)
let find t name = List.find_opt (fun w -> w.name = name) t.workloads

(* The serving parameters the per-layer serve probe uses on every
   workload: those of the open-loop workload. *)
let serving t =
  match List.find_map (fun w -> w.serving) t.workloads with
  | Some s -> s
  | None -> raise (Json.Error "no workload defines rates_per_s")
