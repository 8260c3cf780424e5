open Ecr

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let marker = "%session"

(* ------------------------------------------------------------------ *)
(* Serialisation.                                                      *)

let to_string ws =
  String.concat ""
    ("-- sit data dictionary\n"
    :: Ddl.Printer.schemas_to_string (Integrate.Workspace.schemas ws)
    :: "\n" :: marker :: "\n"
    :: List.concat_map
         (fun op -> [ Integrate.Op.to_string op; "\n" ])
         (Integrate.Op.of_workspace ws))

(* ------------------------------------------------------------------ *)
(* Parsing.                                                            *)

(* One [%session] line: a conflict is refused and an assertion naming
   a structure no schema defines is dropped (see the .mli). *)
let apply_line ws line text =
  match Integrate.Script.parse_line ~file:"" ~line text with
  | None -> ws
  | Some op -> (
      match Integrate.Op.try_apply op ws with
      | Ok ws -> ws
      | Error (Integrate.Op.Unknown_object _ | Unknown_relationship _) -> ws
      | Error e -> error "line %d: %s" line (Integrate.Op.error_to_string e))
  | exception Integrate.Script.Parse_error { message; _ } ->
      error "line %d: %s" line message

let of_string text =
  let lines = String.split_on_char '\n' text in
  let rec split before = function
    | [] -> (List.rev before, [])
    | l :: rest when String.trim l = marker -> (List.rev before, rest)
    | l :: rest -> split (l :: before) rest
  in
  let schema_lines, session_lines = split [] lines in
  let schemas =
    try Ddl.Parser.schemas_of_string (String.concat "\n" schema_lines)
    with Ddl.Parser.Error (msg, line, col) ->
      error "schema section %d:%d: %s" line col msg
  in
  List.iter
    (fun s ->
      match Schema.validate s with
      | [] -> ()
      | e :: _ ->
          error "schema %s: %s"
            (Name.to_string (Schema.name s))
            (Schema.error_to_string e))
    schemas;
  let ws = Integrate.Workspace.add_schemas schemas Integrate.Workspace.empty in
  let offset = List.length schema_lines + 1 in
  (* the session section ends at the next %-marker (an %integrated or
     %mappings section appended by [result_to_string]) *)
  let rec until_marker acc = function
    | [] -> List.rev acc
    | l :: _ when String.length (String.trim l) > 0 && (String.trim l).[0] = '%'
      ->
        List.rev acc
    | l :: rest -> until_marker (l :: acc) rest
  in
  List.fold_left
    (fun (ws, lineno) line -> (apply_line ws lineno line, lineno + 1))
    (ws, offset + 1)
    (until_marker [] session_lines)
  |> fst

(* Temp file + atomic rename: a crash mid-write leaves the previous
   file whole.  A non-regular target (/dev/null, a fifo) is written in
   place, since renaming over it would replace the special file.  The
   channel is closed before the rename, so a failed flush raises and
   the previous file stays. *)
let write_file path text =
  let regular =
    match (Unix.lstat path).Unix.st_kind with
    | Unix.S_REG -> true
    | _ -> false
    | exception Unix.Unix_error _ -> true
  in
  let target = if regular then path ^ ".tmp" else path in
  let oc = open_out target in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc text;
      close_out oc);
  if target <> path then Sys.rename target path

let save path ws = write_file path (to_string ws)

let load path = of_string (In_channel.with_open_bin path In_channel.input_all)

let merge base extra =
  List.fold_left
    (fun ws op -> Integrate.Op.apply op ws)
    (Integrate.Workspace.add_schemas (Integrate.Workspace.schemas extra) base)
    (Integrate.Op.of_workspace extra)

(* ------------------------------------------------------------------ *)
(* Mappings.                                                           *)

let integrated_marker = "%integrated"
let mappings_marker = "%mappings"

let mapping_lines (result : Integrate.Result.t) =
  let buf = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let entry kind akind (e : Integrate.Mapping.entry) =
    out "%s %s -> %s\n" kind
      (Qname.to_string e.Integrate.Mapping.source)
      (Name.to_string e.Integrate.Mapping.target);
    Name.Map.iter
      (fun attr t ->
        out "%s %s.%s -> %s.%s\n" akind
          (Qname.to_string e.Integrate.Mapping.source)
          (Name.to_string attr)
          (Name.to_string t.Integrate.Mapping.in_class)
          (Name.to_string t.Integrate.Mapping.as_attr))
      e.Integrate.Mapping.attrs
  in
  List.iter (entry "object" "attr")
    (Integrate.Mapping.object_entries result.Integrate.Result.mapping);
  List.iter (entry "rel" "rattr")
    (Integrate.Mapping.relationship_entries result.Integrate.Result.mapping);
  Buffer.contents buf

let result_to_string ws (result : Integrate.Result.t) =
  to_string ws ^ "\n" ^ integrated_marker ^ "\n"
  ^ Ddl.Printer.to_string result.Integrate.Result.schema
  ^ "\n\n" ^ mappings_marker ^ "\n" ^ mapping_lines result

let save_result path ws result = write_file path (result_to_string ws result)

let mappings_of_string text =
  let module M = Integrate.Mapping in
  let lines = String.split_on_char '\n' text in
  let rec skip = function
    | [] -> []
    | l :: rest when String.trim l = mappings_marker -> rest
    | _ :: rest -> skip rest
  in
  let section = skip lines in
  let parse_target lineno s =
    match String.split_on_char '.' s with
    | [ c; a ] -> (
        try { M.in_class = Name.v c; as_attr = Name.v a }
        with Name.Invalid _ -> error "line %d: bad target %s" lineno s)
    | _ -> error "line %d: expected class.attr, got %s" lineno s
  in
  let parse_src lineno s target =
    match String.split_on_char '.' s with
    | [ sch; obj ] -> (
        try (Qname.v sch obj, Name.v target)
        with Name.Invalid _ -> error "line %d: bad names" lineno)
    | _ -> error "line %d: bad source %s" lineno s
  in
  let parse_src_attr lineno s =
    match String.split_on_char '.' s with
    | [ sch; obj; attr ] -> (
        try (Qname.v sch obj, Name.v attr)
        with Name.Invalid _ -> error "line %d: bad source %s" lineno s)
    | _ -> error "line %d: expected schema.object.attr, got %s" lineno s
  in
  (* [f] applied to [src]'s entry, or to a fresh one *)
  let update is_rel src f mapping =
    let find, add =
      if is_rel then (M.relationship_entry, M.add_relationship)
      else (M.object_entry, M.add_object)
    in
    let entry =
      match find src mapping with
      | Some e -> e
      | None ->
          { M.source = src; target = src.Qname.obj; attrs = Name.Map.empty }
    in
    add (f entry) mapping
  in
  List.fold_left
    (fun (mapping, lineno) line ->
      let mapping =
        match
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun s -> s <> "")
        with
        | [] -> mapping
        | [ ("object" | "rel") as kind; src; "->"; target ] ->
            let src, target = parse_src lineno src target in
            update (kind = "rel") src (fun e -> { e with M.target }) mapping
        | [ ("attr" | "rattr") as kind; src; "->"; target ] ->
            let src, attr = parse_src_attr lineno src in
            let target = parse_target lineno target in
            update (kind = "rattr") src
              (fun e -> { e with M.attrs = Name.Map.add attr target e.M.attrs })
              mapping
        | _ -> error "line %d: unparseable mapping line: %s" lineno line
      in
      (mapping, lineno + 1))
    (M.empty, 1) section
  |> fst
