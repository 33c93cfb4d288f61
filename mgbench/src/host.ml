(* The host and working-set record printed with every result, so that
   figures from different machines or commits are never compared
   unknowingly. *)

let read_file path = try Some (In_channel.with_open_bin path In_channel.input_all) with _ -> None
let trim_opt = Option.map String.trim

(* First line of a command's standard output; the child is always
   waited for. *)
let command_line prog args =
  try
    let ic = Unix.open_process_args_in prog (Array.of_list (prog :: args)) in
    let line = try Some (input_line ic) with End_of_file -> None in
    (try ignore (In_channel.input_all ic) with _ -> ());
    ignore (Unix.close_process_in ic);
    trim_opt line
  with _ -> None

let cpu_model () =
  match read_file "/proc/cpuinfo" with
  | None -> None
  | Some s ->
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             match String.index_opt l ':' with
             | Some i when String.trim (String.sub l 0 i) = "model name" ->
                 Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
             | _ -> None)

(* Size of the unified cache at [level] of cpu0, e.g. "2048K". *)
let cache_size level =
  let dir = "/sys/devices/system/cpu/cpu0/cache" in
  match Sys.readdir dir with
  | exception _ -> None
  | entries ->
      Array.to_list entries |> List.sort compare
      |> List.find_map (fun e ->
             let f x = trim_opt (read_file (Filename.concat (Filename.concat dir e) x)) in
             match (f "level", f "type", f "size") with
             | Some l, Some t, Some s when l = string_of_int level && t <> "Instruction" -> Some s
             | _ -> None)

(* Current value of a "VmHWM:"-style line of /proc/self/status, in
   10^6 bytes; nan where there is none. *)
let status_mb field =
  match read_file "/proc/self/status" with
  | None -> nan
  | Some s ->
      let prefix = field ^ ":" in
      let n = String.length prefix in
      String.split_on_char '\n' s
      |> List.find_map (fun l ->
             if String.length l > n && String.sub l 0 n = prefix then
               Scanf.sscanf (String.sub l n (String.length l - n)) " %d kB" (fun kb -> Some (float_of_int kb *. 1024. /. 1e6))
             else None)
      |> Option.value ~default:nan

(* Digest of the program's sources, which identifies the code where
   there is no git metadata. *)
let source_digest root =
  let rec files dir =
    match Sys.readdir dir with
    | exception _ -> []
    | es ->
        Array.to_list es |> List.sort compare
        |> List.concat_map (fun e ->
               let p = Filename.concat dir e in
               if Sys.is_directory p then files p
               else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
                       || Filename.check_suffix p ".c"
               then [ p ]
               else [])
  in
  match files root with
  | [] -> None
  | fs -> Some (Digest.to_hex (Digest.string (String.concat "" (List.map (fun f -> f ^ Digest.file f) fs))))

let opt = function Some s -> Json.Str s | None -> Json.Null

let host () =
  Json.Obj
    [ ("cpu_model", opt (cpu_model ()));
      ("nproc", opt (command_line "nproc" []));
      ("l2", opt (cache_size 2));
      ("l3", opt (cache_size 3));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("cc", opt (command_line "cc" [ "--version" ]));
      ("git_commit", opt (command_line "git" [ "rev-parse"; "HEAD" ]));
      ("lib_source_md5", opt (source_digest "lib")) ]

(* Bytes of one grid per V-cycle level: extent 2^k + 2 cubed, 8-byte
   floats, for k = 1 .. log2 nx. *)
let grid_bytes ~nx =
  let rec levels k acc = if 1 lsl k > nx then List.rev acc else levels (k + 1) (k :: acc) in
  levels 1 [] |> List.map (fun k -> let m = (1 lsl k) + 2 in (k, m * m * m * 8))

(* Per interior element of the mg.f line-buffer form, counted from the
   loops of lib/core/mg_f77.ml.  Both first build two 4-term line sums
   (6 adds).  resid then computes v - a0 u - a2 (3 terms) - a3 (2
   terms): 3 mul + 6 add/sub, 15 in all.  psinv computes u + c0 r +
   c1 (3 terms) + c2 (3 terms): 3 mul + 7 add, 16 in all.  Bytes are
   the compulsory traffic of two
   streamed inputs and one output of 8 bytes; cache misses beyond that
   are not counted. *)
let stencils =
  Json.Obj
    [ ("label", Json.Str "computed");
      ("resid", Json.Obj [ ("flops_per_elt", Json.Num 15.); ("bytes_per_elt", Json.Num 24.) ]);
      ("psinv", Json.Obj [ ("flops_per_elt", Json.Num 16.); ("bytes_per_elt", Json.Num 24.) ]) ]

let working_set ~cls ~nx =
  Json.Obj
    [ ("class", Json.Str cls);
      ( "grid_bytes_per_level",
        Json.Obj (List.map (fun (k, b) -> (string_of_int k, Json.Num (float_of_int b))) (grid_bytes ~nx)) );
      ("stencils", stencils) ]

let record ~workload ~cls ~nx =
  Json.Obj [ ("workload", Json.Str workload); ("host", host ()); ("working_set", working_set ~cls ~nx) ]
