let ( let* ) = Result.bind

(* [parse path], or the refusal that names [path].  A parser's error
   already carries its position; [Sys_error] carries the path only
   when opening fails. *)
let read parse path =
  match parse path with
  | v -> Ok v
  | exception Sys_error msg ->
      let prefix = path ^ ": " in
      Error (if String.starts_with ~prefix msg then msg else prefix ^ msg)
  | exception Ddl.Parser.Error (msg, line, col) ->
      Error (Printf.sprintf "%s:%d:%d: %s" path line col msg)
  | exception (Integrate.Script.Parse_error _ as e) ->
      Error (Integrate.Script.parse_error_to_string e)
  | exception (Instance.Loader.Error _ as e) ->
      Error (Instance.Loader.error_to_string e)
  | exception Dictionary.Error msg -> Error (path ^ ": " ^ msg)

(* A DDL file's schemas, validated: its first invalid schema is refused
   with all of its errors. *)
let ddl file =
  let* schemas = read Ddl.Parser.schemas_of_file file in
  let invalid s =
    match Ecr.Schema.validate s with [] -> None | errors -> Some errors
  in
  match List.find_map invalid schemas with
  | None -> Ok schemas
  | Some errors ->
      let line e = file ^ ": " ^ Ecr.Schema.error_to_string e in
      Error (String.concat "\n" (List.map line errors))

let schemas = function
  | [] -> Error "no DDL files given (pass at least one schema file)"
  | files ->
      List.fold_left
        (fun acc file ->
          let* acc = acc in
          let* schemas = ddl file in
          Ok (acc @ schemas))
        (Ok []) files

let script = read Integrate.Script.parse_file
let data ~schemas = read (Instance.Loader.load_file ~schemas)
let dictionary = read Dictionary.load

let directory dir =
  match Unix.mkdir dir 0o755 with
  | () -> Ok ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _)
    when Sys.file_exists dir && Sys.is_directory dir ->
      Ok ()
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot create journal directory %s: %s" dir
           (Unix.error_message e))
