(* Everything the workload seed decides: the order of the solves in
   each interleaved round, and the open-loop arrival schedule with its
   tenant draw.  A private SplitMix64 stream keeps the schedules
   identical across OCaml versions; each use takes its own named
   stream, so adding a phase never shifts another phase's draws. *)

type rng = { mutable s : int64 }

let golden = 0x9E3779B97F4A7C15L

let next r =
  r.s <- Int64.add r.s golden;
  let z = r.s in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let stream ~seed name =
  let r = { s = Int64.of_int seed } in
  String.iter (fun c -> r.s <- Int64.logxor (next r) (Int64.of_int (Char.code c))) name;
  ignore (next r);
  r

(* Uniform in [0, 1): the top 53 bits. *)
let float r = Int64.to_float (Int64.shift_right_logical (next r) 11) *. 0x1p-53

let int r bound = int_of_float (float r *. float_of_int bound)

let shuffle r a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* One permutation of [ops] per round. *)
let interleave ?(name = "interleave") ~seed ~rounds ops =
  let r = stream ~seed name in
  List.init rounds (fun _ -> Array.to_list (shuffle r (Array.of_list ops)))

(* "a:3,b:1" -> [("a", 3); ("b", 1)] *)
let parse_tenants s =
  String.split_on_char ',' s
  |> List.map (fun part ->
         match String.split_on_char ':' (String.trim part) with
         | [ name; w ] when name <> "" && int_of_string_opt w <> None && int_of_string w > 0 ->
             (name, int_of_string w)
         | _ -> invalid_arg ("tenant mix: bad entry " ^ part))

type arrival = { due_s : float;  (** Offset from the phase start. *) tenant : string }

(* [count] Poisson arrivals at [rate] per second: exponential
   inter-arrival gaps, each request's tenant drawn with probability
   proportional to its weight.  A fixed count, rather than a fixed
   duration, keeps the tail percentile a window can report fixed. *)
let arrivals ~seed ~name ~rate ~count ~tenants =
  let r = stream ~seed name in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 tenants in
  let pick () =
    let x = int r total in
    let rec go acc = function
      | [ (t, _) ] -> t
      | (t, w) :: rest -> if x < acc + w then t else go (acc + w) rest
      | [] -> assert false
    in
    go 0 tenants
  in
  let rec go i t acc =
    if i = count then List.rev acc
    else
      let t = t -. (log (1.0 -. float r) /. rate) in
      go (i + 1) t ({ due_s = t; tenant = pick () } :: acc)
  in
  go 0 0.0 []
