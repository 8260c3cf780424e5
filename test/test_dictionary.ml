(* Tests for the data dictionary (workspace persistence). *)

open Ecr
open Integrate

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let paper_workspace () =
  let ws =
    Workspace.(add_schema Workload.Paper.sc2 (add_schema Workload.Paper.sc1 empty))
  in
  let ws =
    List.fold_left
      (fun ws (a, b) -> Workspace.declare_equivalent a b ws)
      ws Workload.Paper.equivalences
  in
  let ws =
    List.fold_left
      (fun ws (l, a, r) ->
        match Workspace.assert_object l a r ws with
        | Ok ws -> ws
        | Error _ -> Alcotest.fail "paper session conflicts")
      ws Workload.Paper.object_assertions
  in
  let ws =
    List.fold_left
      (fun ws (l, a, r) ->
        match Workspace.assert_relationship l a r ws with
        | Ok ws -> ws
        | Error _ -> Alcotest.fail "paper session conflicts")
      ws Workload.Paper.relationship_assertions
  in
  Workspace.set_naming Workload.Paper.naming ws

let tests =
  [
    tc "round-trip preserves the whole session" (fun () ->
        let ws = paper_workspace () in
        let ws' = Dictionary.of_string (Dictionary.to_string ws) in
        check Alcotest.int "schemas" 2 (List.length (Workspace.schemas ws'));
        check Alcotest.int "object facts" 3
          (List.length (Workspace.object_facts ws'));
        check Alcotest.int "relationship facts" 1
          (List.length (Workspace.relationship_facts ws'));
        check Alcotest.int "equivalence classes" 4
          (List.length
             (Equivalence.nontrivial_classes (Workspace.equivalence ws'))));
    tc "round-trip reproduces the integration result" (fun () ->
        let ws = paper_workspace () in
        let ws' = Dictionary.of_string (Dictionary.to_string ws) in
        let r = Workspace.integrate ws and r' = Workspace.integrate ws' in
        check Alcotest.bool "same integrated schema" true
          (Schema.equal r.Result.schema r'.Result.schema));
    tc "naming overrides survive" (fun () ->
        let ws = paper_workspace () in
        let ws' = Dictionary.of_string (Dictionary.to_string ws) in
        let r' = Workspace.integrate ws' in
        check Alcotest.bool "E_Stud_Majo pinned" true
          (Schema.mem (Name.v "E_Stud_Majo") r'.Result.schema));
    tc "file round-trip" (fun () ->
        let path = Filename.temp_file "sit" ".sitd" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Dictionary.save path (paper_workspace ());
            let ws = Dictionary.load path in
            check Alcotest.int "schemas" 2 (List.length (Workspace.schemas ws))));
    tc "comments and blank lines tolerated" (fun () ->
        let text =
          "schema a { entity X; }\n%session\n\n# a comment\n"
        in
        let ws = Dictionary.of_string text in
        check Alcotest.int "one schema" 1 (List.length (Workspace.schemas ws)));
    tc "missing session marker means schemas only" (fun () ->
        let ws = Dictionary.of_string "schema a { entity X; }\n" in
        check Alcotest.int "one schema" 1 (List.length (Workspace.schemas ws));
        check Alcotest.int "no facts" 0 (List.length (Workspace.object_facts ws)));
    tc "inconsistent dictionaries are rejected" (fun () ->
        let text =
          "schema a { entity X; }\nschema b { entity Y; }\nschema c { entity \
           Z; }\n%session\nobject a.X 1 b.Y\nobject b.Y 1 c.Z\nobject a.X 0 \
           c.Z\n"
        in
        match Dictionary.of_string text with
        | exception Dictionary.Error msg ->
            check Alcotest.bool "mentions conflict" true
              (Util.contains ~needle:"conflict" msg)
        | _ -> Alcotest.fail "expected rejection");
    tc "syntax errors carry the line" (fun () ->
        match Dictionary.of_string "schema a { entity X; }\n%session\nbogus\n" with
        | exception Dictionary.Error msg ->
            check Alcotest.bool "mentions line" true
              (Util.contains ~needle:"line" msg)
        | _ -> Alcotest.fail "expected rejection");
    tc "a malformed name is an Error with its line" (fun () ->
        List.iter
          (fun (directive, message) ->
            match
              Dictionary.of_string
                ("schema a { entity X; }\nschema b { entity Y; }\n%session\n"
               ^ directive ^ "\n")
            with
            | exception Dictionary.Error msg ->
                check Alcotest.string directive message msg
            | _ -> Alcotest.failf "accepted %S" directive)
          [
            ("name a.X b.Y Bad-Name", "line 4: bad name Bad-Name");
            ("equiv a.X.Na-me b.Y.Name", "line 4: bad attribute a.X.Na-me");
            ("object a.X 1 b.9Y", "line 4: bad name b.9Y");
          ]);
    tc "saving over a dictionary replaces it through a temp file" (fun () ->
        let path = Filename.temp_file "sit" ".sitd" in
        Fun.protect
          ~finally:(fun () -> Sys.remove path)
          (fun () ->
            Dictionary.save path (paper_workspace ());
            let before = (Unix.stat path).Unix.st_ino in
            Dictionary.save path (paper_workspace ());
            check Alcotest.bool "a new inode" true
              ((Unix.stat path).Unix.st_ino <> before);
            check Alcotest.bool "no temp file left" false
              (Sys.file_exists (path ^ ".tmp"));
            check Alcotest.int "still loads" 2
              (List.length (Workspace.schemas (Dictionary.load path))));
        Dictionary.save "/dev/null" (paper_workspace ());
        check Alcotest.bool "/dev/null is still a character device" true
          ((Unix.stat "/dev/null").Unix.st_kind = Unix.S_CHR));
    tc "merge combines two dictionaries" (fun () ->
        let ws1 = Dictionary.of_string "schema a { entity X; }\n" in
        let ws2 =
          Dictionary.of_string "schema b { entity Y; }\n%session\n"
        in
        let merged = Dictionary.merge ws1 ws2 in
        check Alcotest.int "two schemas" 2
          (List.length (Workspace.schemas merged)));
    tc "merge drops conflicting assertions silently" (fun () ->
        let base =
          Dictionary.of_string
            "schema a { entity X; }\nschema b { entity Y; }\n%session\nobject \
             a.X 1 b.Y\n"
        in
        let extra =
          Dictionary.of_string
            "schema a { entity X; }\nschema b { entity Y; }\n%session\nobject \
             a.X 0 b.Y\n"
        in
        let merged = Dictionary.merge base extra in
        check Alcotest.int "one fact kept" 1
          (List.length (Workspace.object_facts merged)));
    tc "a schema edit that strands or contradicts a fact still round-trips"
      (fun () ->
        let sc2 = Workload.Paper.sc2 in
        let edits =
          [
            ( "Faculty deleted",
              Schema.remove_structure (Name.v "Faculty")
                (Schema.remove_structure (Name.v "Works") sc2),
              2,
              1 );
            (* Faculty <= Grad_student <= sc1.Student contradicts the
               asserted "Student may be Faculty" *)
            ( "Faculty made a category of Grad_student",
              Schema.replace_object
                (Object_class.category
                   ~attrs:[ Attribute.v "Rank" "char" ]
                   ~parents:[ Name.v "Grad_student" ] (Name.v "Faculty"))
                sc2,
              2,
              1 );
            ( "Major_in deleted",
              Schema.remove_structure (Name.v "Major_in") sc2,
              3,
              0 );
          ]
        in
        List.iter
          (fun (what, edited, n_objects, n_relationships) ->
            let ws = Workspace.add_schema edited (paper_workspace ()) in
            check Alcotest.int (what ^ ": object facts kept") n_objects
              (List.length (Workspace.object_facts ws));
            check Alcotest.int (what ^ ": relationship facts kept")
              n_relationships
              (List.length (Workspace.relationship_facts ws));
            let text = Dictionary.to_string ws in
            check Alcotest.string (what ^ ": reloads unchanged") text
              (Dictionary.to_string (Dictionary.of_string text)))
          edits);
    tc "an assertion naming a structure no schema defines is dropped on load"
      (fun () ->
        let ws =
          Dictionary.of_string
            "schema a { entity X; }\nschema b { entity Y; }\n%session\nobject \
             a.X 1 b.Y\nobject a.Gone 1 b.Y\nrel a.R 1 b.S\n"
        in
        check Alcotest.int "object facts" 1
          (List.length (Workspace.object_facts ws));
        check Alcotest.int "relationship facts" 0
          (List.length (Workspace.relationship_facts ws)));
  ]

let mapping_tests =
  [
    tc "mappings persist and reconstruct" (fun () ->
        let ws = paper_workspace () in
        let result = Workspace.integrate ws in
        let text = Dictionary.result_to_string ws result in
        check Alcotest.bool "has integrated section" true
          (Util.contains ~needle:"%integrated" text);
        check Alcotest.bool "has mappings section" true
          (Util.contains ~needle:"%mappings" text);
        let mapping = Dictionary.mappings_of_string text in
        (* the reconstructed mapping translates queries identically *)
        let q =
          Query.Parser.query_of_string
            "select Name, GPA from Student where GPA >= 3.0"
        in
        let q1, _ =
          Query.Rewrite.to_integrated result.Result.mapping
            ~view:Workload.Paper.sc1 q
        in
        let q2, _ =
          Query.Rewrite.to_integrated mapping ~view:Workload.Paper.sc1 q
        in
        check Alcotest.string "same translation" (Query.Ast.to_string q1)
          (Query.Ast.to_string q2));
    tc "dictionary with mapping sections still loads as a workspace" (fun () ->
        let ws = paper_workspace () in
        let result = Workspace.integrate ws in
        let text = Dictionary.result_to_string ws result in
        let ws' = Dictionary.of_string text in
        check Alcotest.int "schemas" 2 (List.length (Workspace.schemas ws'));
        check Alcotest.int "facts" 3 (List.length (Workspace.object_facts ws')));
    tc "mappings_of_string is empty without the section" (fun () ->
        let mapping = Dictionary.mappings_of_string "schema a { entity X; }" in
        check Alcotest.int "no entries" 0
          (List.length (Integrate.Mapping.object_entries mapping)));
    tc "relationship mappings reconstruct too" (fun () ->
        let ws = paper_workspace () in
        let result = Workspace.integrate ws in
        let mapping =
          Dictionary.mappings_of_string (Dictionary.result_to_string ws result)
        in
        check Alcotest.bool "majors mapped" true
          (Integrate.Mapping.relationship_entry (Qname.v "sc1" "Majors") mapping
          |> Option.map (fun (e : Integrate.Mapping.entry) ->
                 Name.to_string e.Integrate.Mapping.target)
          = Some "E_Stud_Majo"));
  ]

let () =
  Alcotest.run "dictionary"
    [ ("dictionary", tests); ("mappings", mapping_tests) ]
