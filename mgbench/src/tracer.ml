(* In-memory spans recorded by the benchmark around its calls into the
   program's public functions, written out when the run ends.  All
   spans are opened on the calling domain, so a span's children never
   overlap and its self time is its duration minus theirs.  While
   tracing is off [with_span] is a plain call. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span. *)
  req : int;  (** Solve or request id, -1 when none. *)
  attrs : (string * string) list;
  t0 : int64;
  mutable t1 : int64;
}

let on = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let now_ns = Mg_smp.Clock.now_ns

let enable () =
  on := true;
  spans := [];
  stack := [];
  next_id := 0

let open_span ~req ~attrs ~parent name t0 =
  let s = { id = !next_id; name; parent; req; attrs; t0; t1 = t0 } in
  incr next_id;
  spans := s :: !spans;
  s

let with_span ?(req = -1) ?(attrs = []) name f =
  if not !on then f ()
  else begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    let s = open_span ~req ~attrs ~parent name (now_ns ()) in
    stack := s.id :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now_ns ();
        stack := List.tl !stack)
      f
  end

(* A span whose bounds were measured elsewhere (a served request's
   due time and completion time), under the currently open span. *)
let record ?(req = -1) ?(attrs = []) name ~t0 ~t1 =
  if !on then begin
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    (open_span ~req ~attrs ~parent name t0).t1 <- t1
  end

let all () = List.rev !spans
let dur_ns s = Int64.sub s.t1 s.t0
let named name = List.filter (fun s -> s.name = name) (all ())
let attr s k = List.assoc k s.attrs

(* Self time of every span, by id. *)
let self_ns () =
  let tbl = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace tbl s.id (dur_ns s)) !spans;
  List.iter
    (fun s ->
      if s.parent >= 0 then
        match Hashtbl.find_opt tbl s.parent with
        | Some d -> Hashtbl.replace tbl s.parent (Int64.sub d (dur_ns s))
        | None -> ())
    !spans;
  fun s -> Hashtbl.find tbl s.id

let to_json s =
  Json.Obj
    ([ ("id", Json.Num (float_of_int s.id));
       ("name", Json.Str s.name);
       ("parent", Json.Num (float_of_int s.parent));
       ("req", Json.Num (float_of_int s.req));
       ("start_ns", Json.Num (Int64.to_float s.t0));
       ("end_ns", Json.Num (Int64.to_float s.t1)) ]
    @ List.map (fun (k, v) -> (k, Json.Str v)) s.attrs)

(* One span per line. *)
let write path =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun s -> output_string oc (Json.to_string (to_json s) ^ "\n")) (all ()))
