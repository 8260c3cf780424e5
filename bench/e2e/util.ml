(* Clock, filesystem and JSON helpers shared by every sitbench module. *)

module Json = Obs.Json

exception Bench_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bench_error s)) fmt

(* CLOCK_MONOTONIC in seconds: latencies must not jump with wall-clock
   adjustments. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec dir_bytes path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.fold_left
        (fun n f -> n + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | Unix.S_REG -> (Unix.lstat path).Unix.st_size
  | _ -> 0
  | exception Unix.Unix_error _ -> 0

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* First index of [key] in [s] at or after [from]. *)
let find_sub ?(from = 0) s key =
  let n = String.length s and k = String.length key in
  let rec go i =
    if i + k > n then None
    else if String.sub s i k = key then Some i
    else go (i + 1)
  in
  go from

(* JSON has no NaN or infinity: a value that was not measured is null. *)
let num v = if Float.is_finite v then Json.Float v else Json.Null

let to_float = function
  | Json.Int i -> Some (float_of_int i)
  | Json.Float f -> Some f
  | _ -> None

let member_float path j = Option.bind (Json.find path j) to_float

let member_int path j =
  match Json.find path j with Some (Json.Int i) -> i | _ -> 0

(* Every metric travels as {"value": v, "unit": u}. *)
let metric_json (name, value, unit) =
  (name, Json.Obj [ ("value", num value); ("unit", Json.String unit) ])
