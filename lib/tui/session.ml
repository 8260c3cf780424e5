open Ecr

type io = { input : unit -> string option; output : string -> unit }

let stdio =
  {
    input =
      (fun () ->
        try Some (input_line Stdlib.stdin) with End_of_file -> None);
    output = (fun s -> print_string s; flush Stdlib.stdout);
  }

let scripted lines =
  let remaining = ref lines in
  let buf = Buffer.create 4096 in
  let io =
    {
      input =
        (fun () ->
          match !remaining with
          | [] -> None
          | l :: rest ->
              remaining := rest;
              Some l);
      output = Buffer.add_string buf;
    }
  in
  (io, buf)

(* ------------------------------------------------------------------ *)

let show io canvas = io.output (Canvas.to_string canvas)

let prompt io label =
  io.output (label ^ " ");
  match io.input () with
  | None -> ""
  | Some line ->
      io.output (line ^ "\n");
      String.trim line

let prompt_nonempty io label =
  match prompt io label with "" -> None | s -> Some s

let is_exit s =
  match String.lowercase_ascii s with
  | "" | "e" | "x" | "q" | "exit" | "quit" -> true
  | _ -> false

let split_commas s =
  String.split_on_char ',' s |> List.map String.trim
  |> List.filter (fun x -> x <> "")

let message io fmt = Printf.ksprintf (fun s -> io.output (s ^ "\n")) fmt

(* ------------------------------------------------------------------ *)
(* Task 1: schema collection.                                          *)

let parse_attribute line =
  (* "Name : char key" or "Name char key" *)
  let parts =
    String.split_on_char ':' line |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  let name, rest =
    match parts with
    | [ n; r ] -> (n, r)
    | [ single ] -> (
        match String.index_opt single ' ' with
        | Some i ->
            ( String.sub single 0 i,
              String.trim (String.sub single (i + 1) (String.length single - i - 1)) )
        | None -> (single, "char"))
    | _ -> (line, "char")
  in
  let words = String.split_on_char ' ' rest |> List.filter (fun s -> s <> "") in
  let key = List.exists (fun w -> String.lowercase_ascii w = "key") words in
  let domain =
    match List.filter (fun w -> String.lowercase_ascii w <> "key") words with
    | d :: _ -> d
    | [] -> "char"
  in
  try Some (Attribute.v ~key name domain) with Name.Invalid _ -> None

let collect_attributes io structure_name =
  let rec loop schema =
    show io (Screens.attribute_information schema structure_name);
    match prompt io "Choose: (A)dd (D)elete (E)xit =>" with
    | s when is_exit s -> schema
    | choice -> (
        let update f =
          match Schema.find_structure structure_name schema with
          | Some (Schema.Obj oc) ->
              Schema.replace_object
                { oc with Object_class.attributes = f oc.Object_class.attributes }
                schema
          | Some (Schema.Rel r) ->
              Schema.replace_relationship
                { r with Relationship.attributes = f r.Relationship.attributes }
                schema
          | None -> schema
        in
        match String.lowercase_ascii choice with
        | "a" -> (
            match prompt_nonempty io "Attribute (name : domain [key]):" with
            | Some line -> (
                match parse_attribute line with
                | Some a -> loop (update (fun attrs -> attrs @ [ a ]))
                | None ->
                    message io "Malformed attribute.";
                    loop schema)
            | None -> loop schema)
        | "d" -> (
            match prompt_nonempty io "Attribute name to delete:" with
            | Some n ->
                loop
                  (update
                     (List.filter (fun a ->
                          not (String.equal (Name.to_string a.Attribute.name) n))))
            | None -> loop schema)
        | _ -> loop schema)
  in
  loop

let parse_participant word =
  (* "Student(1,1)" or "Student (1,1)" or "role:Student(0,N)" *)
  match String.index_opt word '(' with
  | None -> (
      try Some (Relationship.participant (Name.v (String.trim word)) Cardinality.any)
      with Name.Invalid _ -> None)
  | Some i -> (
      let head = String.trim (String.sub word 0 i) in
      let card = String.sub word i (String.length word - i) in
      try
        let card = Cardinality.of_string card in
        match String.split_on_char ':' head with
        | [ role; obj ] ->
            Some
              (Relationship.participant
                 ~role:(Name.v (String.trim role))
                 (Name.v (String.trim obj))
                 card)
        | _ -> Some (Relationship.participant (Name.v head) card)
      with Name.Invalid _ | Cardinality.Invalid _ -> None)

let collect_structures io schema =
  let page = 12 in
  let rec loop ?(offset = 0) schema =
    let loop ?(offset = offset) schema = loop ~offset schema in
    show io (Screens.structure_information ~offset schema);
    match prompt io "Choose: (S)croll (A)dd (D)elete attributes-(O)f (E)xit =>" with
    | s when is_exit s -> schema
    | choice -> (
        match String.lowercase_ascii choice with
        | "s" ->
            let total = Schema.size schema in
            let offset = if offset + page >= total then 0 else offset + page in
            loop ~offset schema
        | "a" -> (
            match prompt_nonempty io "Structure name:" with
            | None -> loop schema
            | Some raw_name -> (
                match Name.of_string_opt raw_name with
                | None ->
                    message io "Invalid name.";
                    loop schema
                | Some name -> (
                    match
                      String.lowercase_ascii (prompt io "Type (e/c/r):")
                    with
                    | "e" ->
                        let schema = Schema.add_object (Object_class.entity name) schema in
                        loop (collect_attributes io name schema)
                    | "c" -> (
                        let parents_line =
                          prompt io "Parent object classes (comma-separated):"
                        in
                        match
                          List.filter_map Name.of_string_opt (split_commas parents_line)
                        with
                        | [] ->
                            message io "A category needs at least one parent.";
                            loop schema
                        | parents ->
                            let schema =
                              Schema.add_object
                                (Object_class.category ~parents name)
                                schema
                            in
                            show io (Screens.category_information schema name);
                            loop (collect_attributes io name schema))
                    | "r" -> (
                        let line =
                          prompt io
                            "Participants, e.g. Student(1,1), Department(0,N):"
                        in
                        match List.filter_map parse_participant (split_commas line) with
                        | [] | [ _ ] ->
                            message io "A relationship needs two participants.";
                            loop schema
                        | participants ->
                            let schema =
                              Schema.add_relationship
                                (Relationship.make name participants)
                                schema
                            in
                            show io (Screens.relationship_information schema name);
                            loop (collect_attributes io name schema))
                    | _ ->
                        message io "Unknown structure type.";
                        loop schema)))
        | "d" -> (
            match prompt_nonempty io "Structure name to delete:" with
            | Some n -> (
                match Name.of_string_opt n with
                | Some name -> loop (Schema.remove_structure name schema)
                | None -> loop schema)
            | None -> loop schema)
        | "o" -> (
            match prompt_nonempty io "Structure name:" with
            | Some n -> (
                match Name.of_string_opt n with
                | Some name when Schema.mem name schema ->
                    loop (collect_attributes io name schema)
                | _ ->
                    message io "No such structure.";
                    loop schema)
            | None -> loop schema)
        | _ -> loop schema)
  in
  loop schema

let schema_collection ~record io ws =
  let rec loop ws =
    let names =
      List.map (fun s -> Name.to_string (Schema.name s)) (Integrate.Workspace.schemas ws)
    in
    show io (Screens.schema_name_collection ~names);
    match prompt io "Choose: (A)dd (D)elete (U)pdate (E)xit =>" with
    | s when is_exit s -> ws
    | choice -> (
        match String.lowercase_ascii choice with
        | "a" | "u" -> (
            match prompt_nonempty io "Schema name:" with
            | None -> loop ws
            | Some raw -> (
                match Name.of_string_opt raw with
                | None ->
                    message io "Invalid name.";
                    loop ws
                | Some name ->
                    let base =
                      match Integrate.Workspace.find_schema name ws with
                      | Some s -> s
                      | None -> Schema.empty name
                    in
                    let edited = collect_structures io base in
                    match Schema.validate edited with
                    | [] ->
                        let ws = Integrate.Workspace.add_schema edited ws in
                        record (Integrate.Op.Add_schema edited) ws;
                        loop ws
                    | errors ->
                        (* an invalid schema could not be saved and
                           loaded back, so the edit is refused whole *)
                        List.iter
                          (fun e -> message io "error: %s" (Schema.error_to_string e))
                          errors;
                        message io "Schema %s not changed." raw;
                        loop ws))
        | "d" -> (
            match prompt_nonempty io "Schema name to delete:" with
            | Some raw -> (
                match Name.of_string_opt raw with
                | Some name ->
                    let ws = Integrate.Workspace.remove_schema name ws in
                    record (Integrate.Op.Remove_schema name) ws;
                    loop ws
                | None -> loop ws)
            | None -> loop ws)
        | _ -> loop ws)
  in
  loop ws

(* ------------------------------------------------------------------ *)
(* Tasks 2 and 4: equivalence specification.                           *)

let pick_two_schemas io ws =
  let names =
    List.map (fun s -> Name.to_string (Schema.name s)) (Integrate.Workspace.schemas ws)
  in
  message io "Schemas: %s" (String.concat ", " names);
  match
    ( prompt_nonempty io "First schema:",
      prompt_nonempty io "Second schema:" )
  with
  | Some a, Some b -> (
      match (Name.of_string_opt a, Name.of_string_opt b) with
      | Some na, Some nb -> (
          match
            ( Integrate.Workspace.find_schema na ws,
              Integrate.Workspace.find_schema nb ws )
          with
          | Some s1, Some s2 -> Some (s1, s2)
          | _ ->
              message io "Unknown schema.";
              None)
      | _ -> None)
  | _ -> None

let parse_qattr line =
  match String.split_on_char '.' (String.trim line) with
  | [ s; o; a ] -> ( try Some (Qname.Attr.v s o a) with Name.Invalid _ -> None)
  | _ -> None

let equivalence_task ~record io ws ~relationships =
  match pick_two_schemas io ws with
  | None -> ws
  | Some (s1, s2) ->
      if not relationships then show io (Screens.object_selection s1 s2);
      let pick_structure schema label =
        Option.bind (prompt_nonempty io label) Name.of_string_opt
        |> Fun.flip Option.bind (fun n ->
               if Schema.mem n schema then Some n else None)
      in
      let rec edit ws o1 o2 =
        show io
          (Screens.equivalence_classes
             (Integrate.Workspace.equivalence ws)
             (s1, o1) (s2, o2));
        match
          prompt io "(A)dd pair (D)elete member (E)xit =>"
        with
        | s when is_exit s -> ws
        | choice -> (
            match String.lowercase_ascii choice with
            | "a" -> (
                let q1 =
                  Printf.sprintf "%s.%s." (Name.to_string (Schema.name s1))
                    (Name.to_string o1)
                in
                let q2 =
                  Printf.sprintf "%s.%s." (Name.to_string (Schema.name s2))
                    (Name.to_string o2)
                in
                match
                  ( prompt_nonempty io ("Attribute of " ^ q1),
                    prompt_nonempty io ("Attribute of " ^ q2) )
                with
                | Some a1, Some a2 -> (
                    match
                      ( parse_qattr (q1 ^ a1),
                        parse_qattr (q2 ^ a2) )
                    with
                    | Some qa1, Some qa2 ->
                        let ws = Integrate.Workspace.declare_equivalent qa1 qa2 ws in
                        record (Integrate.Op.Declare_equivalent (qa1, qa2)) ws;
                        edit ws o1 o2
                    | _ ->
                        message io "Malformed attribute name.";
                        edit ws o1 o2)
                | _ -> edit ws o1 o2)
            | "d" -> (
                match
                  Option.bind
                    (prompt_nonempty io "Full attribute (schema.object.attr):")
                    parse_qattr
                with
                | Some qa ->
                    let ws = Integrate.Workspace.separate_attribute qa ws in
                    record (Integrate.Op.Separate_attribute qa) ws;
                    edit ws o1 o2
                | None -> edit ws o1 o2)
            | _ -> edit ws o1 o2)
      in
      let rec pick_pair ws =
        match
          ( pick_structure s1 "Object of first schema:",
            pick_structure s2 "Object of second schema:" )
        with
        | Some o1, Some o2 ->
            let ws = edit ws o1 o2 in
            if String.lowercase_ascii (prompt io "Another pair? (y/n)") = "y"
            then pick_pair ws
            else ws
        | _ -> ws
      in
      pick_pair ws

(* ------------------------------------------------------------------ *)
(* Tasks 3 and 5: assertion specification.                             *)

let assertion_task ~record io ws ~relationships =
  match pick_two_schemas io ws with
  | None -> ws
  | Some (s1, s2) ->
      let n1 = Schema.name s1 and n2 = Schema.name s2 in
      let ranked ws =
        if relationships then
          Integrate.Workspace.ranked_relationship_pairs n1 n2 ws
        else Integrate.Workspace.ranked_pairs n1 n2 ws
      in
      let answered ws =
        (if relationships then Integrate.Workspace.relationship_facts ws
         else Integrate.Workspace.object_facts ws)
        |> List.map (fun (l, a, r) -> (l, r, a))
      in
      let assert_in ws l a r =
        if relationships then Integrate.Workspace.assert_relationship l a r ws
        else Integrate.Workspace.assert_object l a r ws
      in
      let page = 7 in
      let rec loop ?(offset = 0) ws =
        let loop ?(offset = offset) ws = loop ~offset ws in
        let pairs = ranked ws in
        show io
          (Screens.assertion_collection ~offset ~answered:(answered ws) pairs);
        match
          prompt io
            "Enter: <pair#> <code>, (S)croll, (R)etract <pair#>, or (E)xit =>"
        with
        | s when is_exit s -> ws
        | "s" | "S" ->
            let total = List.length pairs in
            let offset = if offset + page >= total then 0 else offset + page in
            loop ~offset ws
        | line -> (
            match
              String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
            with
            | [ ("r" | "R"); idx ] -> (
                (* "review and modify any assertion": retract the pair so
                   a different assertion can be entered *)
                match int_of_string_opt idx with
                | Some i when i >= 1 && i <= List.length pairs ->
                    let rk = List.nth pairs (i - 1) in
                    let l = rk.Integrate.Similarity.left
                    and r = rk.Integrate.Similarity.right in
                    let ws =
                      if relationships then
                        Integrate.Workspace.retract_relationship l r ws
                      else Integrate.Workspace.retract_object l r ws
                    in
                    record
                      (if relationships then
                         Integrate.Op.Retract_relationship (l, r)
                       else Integrate.Op.Retract_object (l, r))
                      ws;
                    loop ws
                | _ ->
                    message io "Bad pair number.";
                    loop ws)
            | [ idx; code ] -> (
                match
                  ( int_of_string_opt idx,
                    Option.bind (int_of_string_opt code) Integrate.Assertion.of_code )
                with
                | Some i, Some assertion when i >= 1 && i <= List.length pairs
                  -> (
                    let rk = List.nth pairs (i - 1) in
                    match
                      assert_in ws rk.Integrate.Similarity.left assertion
                        rk.Integrate.Similarity.right
                    with
                    | Ok ws ->
                        record
                          (if relationships then
                             Integrate.Op.Assert_relationship
                               ( rk.Integrate.Similarity.left,
                                 assertion,
                                 rk.Integrate.Similarity.right )
                           else
                             Integrate.Op.Assert_object
                               ( rk.Integrate.Similarity.left,
                                 assertion,
                                 rk.Integrate.Similarity.right ))
                          ws;
                        loop ws
                    | Error conflict ->
                        show io (Screens.conflict_resolution conflict);
                        let _ =
                          prompt io "Press return to continue (assertion withdrawn) =>"
                        in
                        loop ws)
                | _ ->
                    message io "Bad pair number or assertion code.";
                    loop ws)
            | _ ->
                message io "Expected: <pair#> <code>.";
                loop ws)
      in
      loop ws

(* ------------------------------------------------------------------ *)
(* Task 6: result viewing, following the Figure 6 flow.                *)

let view_result io ~schemas result =
  let rec at screen ctx =
    match screen with
    | Flow.Object_class -> (
        show io (Screens.object_class_screen result);
        match prompt io "Choice (A/C/E/R <name>, or x) =>" with
        | s when is_exit s -> ()
        | line -> (
            match
              String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
            with
            | [ choice; raw ] -> (
                match (String.uppercase_ascii choice, Name.of_string_opt raw) with
                | "A", Some n -> at Flow.Attribute (`Cls n)
                | "C", Some n -> at Flow.Category (`Cls n)
                | "E", Some n -> at Flow.Entity (`Cls n)
                | "R", Some n -> at Flow.Relationship (`Cls n)
                | _ ->
                    message io "Unknown choice.";
                    at Flow.Object_class ctx)
            | _ ->
                message io "Enter a letter and a structure name.";
                at Flow.Object_class ctx))
    | Flow.Entity -> (
        let (`Cls n | `Attr (n, _)) = ctx in
        show io (Screens.entity_screen result n);
        match String.lowercase_ascii (prompt io "(e/q) =>") with
        | "e" -> at Flow.Equivalent (`Cls n)
        | _ -> at Flow.Object_class (`Cls n))
    | Flow.Category -> (
        let (`Cls n | `Attr (n, _)) = ctx in
        show io (Screens.category_screen result n);
        match String.lowercase_ascii (prompt io "(e/q) =>") with
        | "e" -> at Flow.Equivalent (`Cls n)
        | _ -> at Flow.Object_class (`Cls n))
    | Flow.Relationship -> (
        let (`Cls n | `Attr (n, _)) = ctx in
        show io (Screens.relationship_screen result n);
        match String.lowercase_ascii (prompt io "(e/p/q) =>") with
        | "e" -> at Flow.Equivalent (`Cls n)
        | "p" -> at Flow.Participating (`Cls n)
        | _ -> at Flow.Object_class (`Cls n))
    | Flow.Attribute -> (
        let (`Cls n | `Attr (n, _)) = ctx in
        show io (Screens.attribute_screen result n);
        match prompt io "Attribute name for components, or q =>" with
        | s when is_exit s -> at Flow.Object_class (`Cls n)
        | raw -> (
            match Name.of_string_opt raw with
            | Some attr -> at Flow.Component_attribute (`Attr (n, attr))
            | None ->
                message io "Invalid attribute name.";
                at Flow.Attribute (`Cls n)))
    | Flow.Component_attribute -> (
        match ctx with
        | `Attr (n, attr) ->
            let comps =
              let own = Integrate.Result.components_of_attribute result n attr in
              if own <> [] then own
              else
                List.fold_left
                  (fun acc anc ->
                    if acc <> [] then acc
                    else Integrate.Result.components_of_attribute result anc attr)
                  []
                  (Schema.ancestors result.Integrate.Result.schema n)
            in
            let rec pages i =
              if i >= List.length comps then ()
              else begin
                show io
                  (Screens.component_attribute_screen ~schemas result n attr
                     ~index:i);
                match prompt io "Press return for next component, q to stop =>" with
                | "q" -> ()
                | _ -> pages (i + 1)
              end
            in
            if comps = [] then message io "No components recorded.";
            pages 0;
            at Flow.Attribute (`Cls n)
        | `Cls n -> at Flow.Attribute (`Cls n))
    | Flow.Equivalent ->
        let (`Cls n | `Attr (n, _)) = ctx in
        show io (Screens.equivalent_screen result n);
        let _ = prompt io "(q) =>" in
        at Flow.Object_class (`Cls n)
    | Flow.Participating ->
        let (`Cls n | `Attr (n, _)) = ctx in
        show io (Screens.participating_objects_screen result n);
        let _ = prompt io "(q) =>" in
        at Flow.Relationship (`Cls n)
  in
  at Flow.Object_class (`Cls (Name.v "none"))

(* ------------------------------------------------------------------ *)

let run ?(workspace = Integrate.Workspace.empty) ?(record = fun _ _ -> ()) io =
  let rec loop ws =
    show io (Screens.main_menu ());
    match prompt io "Choose a task, or (E)xit =>" with
    | s when is_exit s -> ws
    | "1" -> loop (schema_collection ~record io ws)
    | "2" -> loop (equivalence_task ~record io ws ~relationships:false)
    | "3" -> loop (assertion_task ~record io ws ~relationships:false)
    | "4" -> loop (equivalence_task ~record io ws ~relationships:true)
    | "5" -> loop (assertion_task ~record io ws ~relationships:true)
    | "6" ->
        let schemas = Integrate.Workspace.schemas ws in
        if List.length schemas < 2 then begin
          message io "Define at least two schemas first.";
          loop ws
        end
        else begin
          (* the paper integrates two schemas at a time; integrating the
             result with further schemas is the n-ary composition *)
          let result =
            if List.length schemas = 2 then Some (Integrate.Workspace.integrate ws)
            else
              match
                String.lowercase_ascii
                  (prompt io "Integrate (A)ll schemas or a (P)air? =>")
              with
              | "p" -> (
                  match pick_two_schemas io ws with
                  | Some (s1, s2) ->
                      Some
                        (Integrate.Workspace.integrate_pair
                           (Ecr.Schema.name s1) (Ecr.Schema.name s2) ws)
                  | None -> None)
              | _ -> Some (Integrate.Workspace.integrate ws)
          in
          match result with
          | None -> loop ws
          | Some result ->
              List.iter (fun w -> message io "warning: %s" w)
                result.Integrate.Result.warnings;
              view_result io ~schemas result;
              loop ws
        end
    | "a" | "A" ->
        (* extension: the Phase 2 incompatibility report *)
        let issues = Integrate.Analysis.analyse ws in
        if issues = [] then message io "No schema-analysis issues."
        else
          List.iter
            (fun issue -> message io "analysis: %s" (Integrate.Analysis.to_string issue))
            issues;
        loop ws
    | _ ->
        message io "Unknown choice.";
        loop ws
  in
  loop workspace
