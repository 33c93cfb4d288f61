(* The correctness gate: every operation the benchmark attempts is
   counted, and every miss (an exception, a failed NAS verification, a
   result that is not bitwise equal to its reference, a refused
   request, broken accounting) is counted as failed and named. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable misses : string list;
  first : (string, float) Hashtbl.t;
}

let create () = { attempted = 0; failed = 0; misses = []; first = Hashtbl.create 8 }

let miss g what =
  g.failed <- g.failed + 1;
  if List.length g.misses < 20 then g.misses <- what :: g.misses

(* One attempted operation whose outcome is [ok]. *)
let check g ok what =
  g.attempted <- g.attempted + 1;
  if not ok then miss g what

(* One attempted operation: [None] when [f] raised (counted failed). *)
let attempt g what f =
  match f () with
  | v -> Some v
  | exception e ->
      g.attempted <- g.attempted + 1;
      miss g (Printf.sprintf "%s raised %s" what (Printexc.to_string e));
      None

(* [rnm2] is bitwise equal to the reference recorded under [key]
   (false when there is none). *)
let matches g ~key rnm2 =
  match Hashtbl.find_opt g.first key with
  | Some r0 -> Int64.equal (Int64.bits_of_float r0) (Int64.bits_of_float rnm2)
  | None -> false

(* [rnm2] must be bitwise equal to the first value recorded under
   [key]; the first one becomes the reference. *)
let bitwise_ok g ~key rnm2 =
  if Hashtbl.mem g.first key then matches g ~key rnm2
  else begin
    Hashtbl.replace g.first key rnm2;
    true
  end

let correct g = g.failed = 0 && g.attempted > 0
