open Ecr

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let marker = "%session"

(* ------------------------------------------------------------------ *)
(* Serialisation.                                                      *)

let directive_lines ws =
  let buf = Buffer.create 512 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun cls ->
      match cls with
      | first :: rest ->
          List.iter
            (fun other ->
              out "equiv %s %s\n"
                (Qname.Attr.to_string first)
                (Qname.Attr.to_string other))
            rest
      | [] -> ())
    (Integrate.Equivalence.nontrivial_classes
       (Integrate.Workspace.equivalence ws));
  List.iter
    (fun (l, assertion, r) ->
      out "object %s %d %s\n" (Qname.to_string l)
        (Integrate.Assertion.code assertion)
        (Qname.to_string r))
    (Integrate.Workspace.object_facts ws);
  List.iter
    (fun (l, assertion, r) ->
      out "rel %s %d %s\n" (Qname.to_string l)
        (Integrate.Assertion.code assertion)
        (Qname.to_string r))
    (Integrate.Workspace.relationship_facts ws);
  List.iter
    (fun (a, b, forced) ->
      out "name %s %s %s\n" (Qname.to_string a) (Qname.to_string b)
        (Name.to_string forced))
    (Integrate.Naming.overrides (Integrate.Workspace.naming ws));
  Buffer.contents buf

let to_string ws =
  "-- sit data dictionary\n"
  ^ Ddl.Printer.schemas_to_string (Integrate.Workspace.schemas ws)
  ^ "\n" ^ marker ^ "\n" ^ directive_lines ws

(* ------------------------------------------------------------------ *)
(* Parsing.                                                            *)

let parse_qattr lineno s =
  match String.split_on_char '.' s with
  | [ a; b; c ] -> (
      try Qname.Attr.v a b c
      with Name.Invalid _ -> error "line %d: bad attribute %s" lineno s)
  | _ -> error "line %d: expected schema.object.attr, got %s" lineno s

let parse_qname lineno s =
  match String.split_on_char '.' s with
  | [ a; b ] -> (
      try Qname.v a b
      with Name.Invalid _ -> error "line %d: bad name %s" lineno s)
  | _ -> error "line %d: expected schema.object, got %s" lineno s

let parse_name lineno s =
  if Name.is_valid s then s else error "line %d: bad name %s" lineno s

let parse_code lineno s =
  match Option.bind (int_of_string_opt s) Integrate.Assertion.of_code with
  | Some a -> a
  | None -> error "line %d: unknown assertion code %s" lineno s

let apply_directive ws lineno line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  match
    String.split_on_char ' ' (String.trim line) |> List.filter (fun s -> s <> "")
  with
  | [] -> ws
  | [ "equiv"; a; b ] ->
      Integrate.Workspace.declare_equivalent (parse_qattr lineno a)
        (parse_qattr lineno b) ws
  | [ "object"; a; code; b ] -> (
      match
        Integrate.Workspace.assert_object (parse_qname lineno a)
          (parse_code lineno code) (parse_qname lineno b) ws
      with
      | Ok ws -> ws
      | Error c ->
          error "line %d: assertion conflicts with earlier ones (%s vs %s)"
            lineno
            (Qname.to_string c.Integrate.Assertions.left)
            (Qname.to_string c.Integrate.Assertions.right)
      | exception Integrate.Assertions.Unknown_class _ -> ws)
  | [ "rel"; a; code; b ] -> (
      match
        Integrate.Workspace.assert_relationship (parse_qname lineno a)
          (parse_code lineno code) (parse_qname lineno b) ws
      with
      | Ok ws -> ws
      | Error _ -> error "line %d: relationship assertion conflicts" lineno
      | exception Integrate.Assertions.Unknown_class _ -> ws)
  | [ "name"; a; b; forced ] ->
      Integrate.Workspace.set_naming
        (Integrate.Naming.with_override (parse_qname lineno a)
           (parse_qname lineno b) (parse_name lineno forced)
           (Integrate.Workspace.naming ws))
        ws
  | _ -> error "line %d: unparseable directive: %s" lineno line

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
    (fun (ws, lineno) line -> (apply_directive ws lineno line, lineno + 1))
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
  let ws =
    Integrate.Workspace.add_schemas (Integrate.Workspace.schemas extra) base
  in
  let ws =
    List.fold_left
      (fun ws cls ->
        match cls with
        | first :: rest ->
            List.fold_left
              (fun ws other ->
                Integrate.Workspace.declare_equivalent first other ws)
              ws rest
        | [] -> ws)
      ws
      (Integrate.Equivalence.nontrivial_classes
         (Integrate.Workspace.equivalence extra))
  in
  let ws =
    List.fold_left
      (fun ws (l, a, r) ->
        match Integrate.Workspace.assert_object l a r ws with
        | Ok ws -> ws
        | Error _ -> ws)
      ws
      (Integrate.Workspace.object_facts extra)
  in
  let ws =
    List.fold_left
      (fun ws (l, a, r) ->
        match Integrate.Workspace.assert_relationship l a r ws with
        | Ok ws -> ws
        | Error _ -> ws)
      ws
      (Integrate.Workspace.relationship_facts extra)
  in
  List.fold_left
    (fun ws (a, b, forced) ->
      Integrate.Workspace.set_naming
        (Integrate.Naming.with_override a b (Name.to_string forced)
           (Integrate.Workspace.naming ws))
        ws)
    ws
    (Integrate.Naming.overrides (Integrate.Workspace.naming extra))

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
        try { Integrate.Mapping.in_class = Name.v c; as_attr = Name.v a }
        with Name.Invalid _ -> error "line %d: bad target %s" lineno s)
    | _ -> error "line %d: expected class.attr, got %s" lineno s
  in
  let parse_src_attr lineno s =
    match String.split_on_char '.' s with
    | [ sch; obj; attr ] -> (
        try (Qname.v sch obj, Name.v attr)
        with Name.Invalid _ -> error "line %d: bad source %s" lineno s)
    | _ -> error "line %d: expected schema.object.attr, got %s" lineno s
  in
  let add_attr is_rel src attr target mapping =
    let entry =
      match
        if is_rel then Integrate.Mapping.relationship_entry src mapping
        else Integrate.Mapping.object_entry src mapping
      with
      | Some e -> e
      | None ->
          { Integrate.Mapping.source = src; target = src.Qname.obj;
            attrs = Name.Map.empty }
    in
    let entry =
      { entry with
        Integrate.Mapping.attrs = Name.Map.add attr target entry.Integrate.Mapping.attrs
      }
    in
    if is_rel then Integrate.Mapping.add_relationship entry mapping
    else Integrate.Mapping.add_object entry mapping
  in
  List.fold_left
    (fun (mapping, lineno) line ->
      let mapping =
        match
          String.split_on_char ' ' (String.trim line)
          |> List.filter (fun s -> s <> "")
        with
        | [] -> mapping
        | [ "object"; src; "->"; target ] -> (
            try
              Integrate.Mapping.add_object
                { Integrate.Mapping.source =
                    (match String.split_on_char '.' src with
                    | [ a; b ] -> Qname.v a b
                    | _ -> error "line %d: bad source %s" lineno src);
                  target = Name.v target;
                  attrs =
                    (match
                       Integrate.Mapping.object_entry
                         (match String.split_on_char '.' src with
                         | [ a; b ] -> Qname.v a b
                         | _ -> assert false)
                         mapping
                     with
                    | Some e -> e.Integrate.Mapping.attrs
                    | None -> Name.Map.empty);
                }
                mapping
            with Name.Invalid _ -> error "line %d: bad names" lineno)
        | [ "rel"; src; "->"; target ] -> (
            try
              Integrate.Mapping.add_relationship
                { Integrate.Mapping.source =
                    (match String.split_on_char '.' src with
                    | [ a; b ] -> Qname.v a b
                    | _ -> error "line %d: bad source %s" lineno src);
                  target = Name.v target;
                  attrs =
                    (match
                       Integrate.Mapping.relationship_entry
                         (match String.split_on_char '.' src with
                         | [ a; b ] -> Qname.v a b
                         | _ -> assert false)
                         mapping
                     with
                    | Some e -> e.Integrate.Mapping.attrs
                    | None -> Name.Map.empty);
                }
                mapping
            with Name.Invalid _ -> error "line %d: bad names" lineno)
        | [ "attr"; src; "->"; target ] ->
            let q, attr = parse_src_attr lineno src in
            add_attr false q attr (parse_target lineno target) mapping
        | [ "rattr"; src; "->"; target ] ->
            let q, attr = parse_src_attr lineno src in
            add_attr true q attr (parse_target lineno target) mapping
        | _ -> error "line %d: unparseable mapping line: %s" lineno line
      in
      (mapping, lineno + 1))
    (Integrate.Mapping.empty, 1)
    section
  |> fst
