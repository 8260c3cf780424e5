(* Integrate.Script: session-script parsing (positioned errors, no
   channel leaks) and directive replay. *)

open Integrate

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let write_script lines =
  let path = Filename.temp_file "sit_script" ".sit" in
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc;
  path

let with_script lines f =
  let path = write_script lines in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let open_fd_count () = Array.length (Sys.readdir "/proc/self/fd")

let parse_tests =
  [
    tc "parses directives in order, skipping comments and blanks" (fun () ->
        with_script
          [
            "# header comment";
            "";
            "equiv sc1.Student.Name sc2.Grad_student.Name";
            "object sc1.Department 1 sc2.Department  # trailing comment";
            "rel sc1.Majors 5 sc2.Major_in";
            "name sc1.Student sc2.Faculty Person";
          ]
        @@ fun path ->
        match Script.parse_file path with
        | [ Op.Declare_equivalent _; Assert_object (_, a, _); Assert_relationship (_, m, _);
            Rename (_, _, forced) ] ->
            check Alcotest.bool "code 1" true (a = Assertion.Equal);
            check Alcotest.bool "code 5" true (m = Assertion.May_be);
            check Alcotest.string "forced name" "Person" forced
        | ds -> Alcotest.failf "unexpected parse: %d directives" (List.length ds));
    tc "parse error reports file and line" (fun () ->
        with_script [ "# one"; ""; "equiv a.b.c d.e.f"; "object only two" ]
        @@ fun path ->
        match Script.parse_file path with
        | _ -> Alcotest.fail "expected Parse_error"
        | exception (Script.Parse_error { file; line; message } as e) ->
            check Alcotest.string "file" path file;
            check Alcotest.int "line counts comments and blanks" 4 line;
            check Alcotest.bool "message names the directive" true
              (String.length message > 0);
            let rendered = Script.parse_error_to_string e in
            check Alcotest.string "file:line prefix"
              (Printf.sprintf "%s:4: " path)
              (String.sub rendered 0 (String.length path + 4)));
    tc "malformed qualified names are positioned too" (fun () ->
        with_script [ "equiv notqualified alsonot" ] @@ fun path ->
        (match Script.parse_file path with
        | _ -> Alcotest.fail "expected Parse_error"
        | exception Script.Parse_error { line; _ } ->
            check Alcotest.int "line 1" 1 line);
        with_script [ "object sc1.A 9 sc2.B" ] @@ fun path ->
        match Script.parse_file path with
        | _ -> Alcotest.fail "expected Parse_error"
        | exception Script.Parse_error { message; _ } ->
            check Alcotest.string "bad code" "unknown assertion code: 9" message);
    tc "a malformed identifier is a positioned parse error" (fun () ->
        List.iter
          (fun (line, message) ->
            with_script [ "# one"; line ] @@ fun path ->
            match Script.parse_file path with
            | _ -> Alcotest.failf "accepted %S" line
            | exception Script.Parse_error p ->
                check Alcotest.int "line" 2 p.line;
                check Alcotest.string "message" message p.message)
          [
            ( "equiv sc1.Stu-dent.Name sc2.Student.Name",
              "malformed qualified attribute: sc1.Stu-dent.Name" );
            ( "object sc1.Department 1 sc2.9Dept",
              "malformed qualified name: sc2.9Dept" );
            ( "name sc1.Majors sc2.Major_in Bad-Name",
              "malformed name: Bad-Name" );
          ]);
    tc "failed parses do not leak channels" (fun () ->
        (* warm up any lazily allocated descriptors, then the count must
           be stable across many mid-file failures *)
        with_script [ "equiv a.b.c d.e.f"; "broken" ] @@ fun path ->
        (try ignore (Script.parse_file path) with Script.Parse_error _ -> ());
        let before = open_fd_count () in
        for _ = 1 to 50 do
          try ignore (Script.parse_file path)
          with Script.Parse_error _ -> ()
        done;
        check Alcotest.int "fd count stable" before (open_fd_count ()));
    tc "missing file raises Sys_error, not Parse_error" (fun () ->
        match Script.parse_file "/nonexistent/script.sit" with
        | _ -> Alcotest.fail "expected Sys_error"
        | exception Sys_error _ -> ());
  ]

let apply_tests =
  [
    tc "apply replays onto a workspace" (fun () ->
        let ws =
          List.fold_left
            (fun ws s -> Workspace.add_schema s ws)
            Workspace.empty
            [ Workload.Paper.sc1; Workload.Paper.sc2 ]
        in
        let directives =
          [
            Op.Declare_equivalent
              ( Ecr.Qname.Attr.v "sc1" "Department" "Name",
                Ecr.Qname.Attr.v "sc2" "Department" "Name" );
            Op.Assert_object
              ( Ecr.Qname.v "sc1" "Department",
                Assertion.Equal,
                Ecr.Qname.v "sc2" "Department" );
          ]
        in
        match Script.apply directives ws with
        | Ok ws ->
            check Alcotest.int "one object fact" 1
              (List.length (Workspace.object_facts ws))
        | Error e -> Alcotest.fail (Script.apply_error_to_string e));
    tc "apply stops at the first rejected assertion" (fun () ->
        let ws =
          List.fold_left
            (fun ws s -> Workspace.add_schema s ws)
            Workspace.empty
            [ Workload.Paper.sc1; Workload.Paper.sc2 ]
        in
        let dept1 = Ecr.Qname.v "sc1" "Department"
        and dept2 = Ecr.Qname.v "sc2" "Department" in
        let directives =
          [
            Op.Assert_object (dept1, Assertion.Equal, dept2);
            Op.Assert_object
              (dept1, Assertion.Disjoint_nonintegrable, dept2);
          ]
        in
        match Script.apply directives ws with
        | Ok _ -> Alcotest.fail "expected a conflict"
        | Error (Op.Object_conflict (a, b, _) as e) ->
            check Alcotest.bool "pair reported" true
              (Ecr.Qname.equal a dept1 && Ecr.Qname.equal b dept2);
            check Alcotest.bool "message mentions the pair" true
              (String.length (Script.apply_error_to_string e) > 0)
        | Error _ -> Alcotest.fail "wrong conflict kind");
    tc "an assertion about a misspelt class is refused by name" (fun () ->
        let ws =
          List.fold_left
            (fun ws s -> Workspace.add_schema s ws)
            Workspace.empty
            [ Workload.Paper.sc1; Workload.Paper.sc2 ]
        in
        let studnet = Ecr.Qname.v "sc1" "Studnet"
        and grad = Ecr.Qname.v "sc2" "Grad_student" in
        let directives =
          List.map
            (fun (a, c, b) -> Op.Assert_object (a, c, b))
            Workload.Paper.object_assertions
          @ [ Op.Assert_object (studnet, Assertion.Contains, grad) ]
        in
        (match Script.apply directives ws with
        | Error (Op.Unknown_object q as e) ->
            check Alcotest.string "names the class" "sc1.Studnet"
              (Ecr.Qname.to_string q);
            check Alcotest.string "message"
              "assertion names an unknown object class sc1.Studnet"
              (Script.apply_error_to_string e)
        | Ok _ -> Alcotest.fail "expected a refusal"
        | Error e -> Alcotest.fail (Script.apply_error_to_string e));
        (* the other side, and relationship sets *)
        (match
           Op.try_apply
             (Op.Assert_object (grad, Assertion.Equal, studnet))
             ws
         with
        | Error (Op.Unknown_object q) ->
            check Alcotest.string "right side" "sc1.Studnet"
              (Ecr.Qname.to_string q)
        | _ -> Alcotest.fail "expected a refusal");
        let majors = Ecr.Qname.v "sc1" "Majors"
        and minors = Ecr.Qname.v "sc2" "Minor_in" in
        match
          Op.try_apply
            (Op.Assert_relationship (majors, Assertion.Equal, minors))
            ws
        with
        | Error (Op.Unknown_relationship q as e) ->
            check Alcotest.string "relationship set" "sc2.Minor_in"
              (Ecr.Qname.to_string q);
            check Alcotest.string "relationship message"
              "relationship assertion names an unknown relationship set \
               sc2.Minor_in"
              (Script.apply_error_to_string e)
        | _ -> Alcotest.fail "expected a refusal");
    tc "sit_batch refuses the misspelt class with a message" (fun () ->
        let script = Filename.temp_file "studnet" ".sit" in
        let out = Filename.temp_file "studnet" ".out" in
        Fun.protect
          ~finally:(fun () -> List.iter Sys.remove [ script; out ])
          (fun () ->
            (* the binary is a sibling of the test executable, the data
               files are in the source tree three levels up *)
            let here = Filename.dirname Sys.executable_name in
            let data f =
              Filename.concat here (Filename.concat "../../../examples/data" f)
            in
            let ic = open_in_bin (data "paper_session.sit") in
            let text = really_input_string ic (in_channel_length ic) in
            close_in ic;
            let oc = open_out_bin script in
            output_string oc (text ^ "object sc1.Studnet 3 sc2.Grad_student\n");
            close_out oc;
            let code =
              Sys.command
                (Printf.sprintf "%s %s %s -s %s > %s 2>&1"
                   (Filename.concat here "../bin/sit_batch.exe")
                   (data "sc1.ecr") (data "sc2.ecr") (Filename.quote script)
                   (Filename.quote out))
            in
            let ic = open_in_bin out in
            let msg = really_input_string ic (in_channel_length ic) in
            close_in ic;
            check Alcotest.int "exit status" 2 code;
            check Alcotest.string "stderr"
              "assertion names an unknown object class sc1.Studnet\n" msg));
    tc "an invalid schema is refused by name" (fun () ->
        (* Majors still names the deleted Student *)
        let invalid =
          Ecr.Schema.remove_structure (Ecr.Name.v "Student") Workload.Paper.sc1
        in
        match Op.try_apply (Op.Add_schema invalid) Workspace.empty with
        | Error (Op.Invalid_schema (n, _ :: _) as e) ->
            check Alcotest.string "schema" "sc1" (Ecr.Name.to_string n);
            check Alcotest.bool "message names it" true
              (String.starts_with ~prefix:"invalid schema sc1: "
                 (Op.error_to_string e));
            check Alcotest.int "apply drops it" 0
              (List.length
                 (Workspace.schemas
                    (Op.apply (Op.Add_schema invalid) Workspace.empty)))
        | _ -> Alcotest.fail "expected Invalid_schema");
  ]

let () =
  Alcotest.run "script" [ ("parse", parse_tests); ("apply", apply_tests) ]
