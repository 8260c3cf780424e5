(* Tests for the screen framework: canvas primitives, the twelve screen
   renderers (pinned against the paper's content) and the Figure 6
   screen-flow graph.  A full scripted session exercises the driver. *)

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check
let has needle s = Util.contains ~needle s

let canvas_tests =
  [
    tc "create and dimensions" (fun () ->
        let c = Tui.Canvas.create 10 3 in
        check Alcotest.int "w" 10 (Tui.Canvas.width c);
        check Alcotest.int "h" 3 (Tui.Canvas.height c));
    tc "text and clipping" (fun () ->
        let c = Tui.Canvas.create 5 1 in
        Tui.Canvas.text c 2 0 "abcdef";
        check Alcotest.string "clipped" "  abc\n" (Tui.Canvas.to_string c));
    tc "out-of-bounds put is a no-op" (fun () ->
        let c = Tui.Canvas.create 3 1 in
        Tui.Canvas.put c (-1) 0 'x';
        Tui.Canvas.put c 0 5 'x';
        check Alcotest.string "blank" "\n" (Tui.Canvas.to_string c));
    tc "center and right alignment" (fun () ->
        let c = Tui.Canvas.create 11 2 in
        Tui.Canvas.text_center c 0 "abc";
        Tui.Canvas.text_right c 11 1 "xy";
        check (Alcotest.list Alcotest.string) "rows" [ "    abc"; "         xy" ]
          (Tui.Canvas.to_lines c));
    tc "frame draws the border" (fun () ->
        let c = Tui.Canvas.create 4 3 in
        Tui.Canvas.frame c;
        check (Alcotest.list Alcotest.string) "box" [ "+--+"; "|  |"; "+--+" ]
          (Tui.Canvas.to_lines c));
    tc "rows are trimmed for golden stability" (fun () ->
        let c = Tui.Canvas.create 10 1 in
        Tui.Canvas.text c 0 0 "a";
        check Alcotest.string "no trailing blanks" "a\n" (Tui.Canvas.to_string c));
  ]

let result = lazy (Workload.Paper.integrate_sc1_sc2 ())

let render f = Tui.Canvas.to_string (f ())

let screen_tests =
  [
    tc "Screen 1: main menu lists the six tasks" (fun () ->
        let s = render Tui.Screens.main_menu in
        check Alcotest.bool "title" true (has "SCHEMA INTEGRATION TOOL" s);
        List.iter
          (fun n -> check Alcotest.bool (string_of_int n) true (has (Printf.sprintf "%d - " n) s))
          [ 1; 2; 3; 4; 5; 6 ]);
    tc "Screen 2: schema names" (fun () ->
        let s =
          Tui.Canvas.to_string
            (Tui.Screens.schema_name_collection ~names:[ "sc1"; "sc2" ])
        in
        check Alcotest.bool "1> sc1" true (has "1> sc1" s);
        check Alcotest.bool "2> sc2" true (has "2> sc2" s));
    tc "Screen 3: structure rows match the paper" (fun () ->
        let s =
          Tui.Canvas.to_string (Tui.Screens.structure_information Workload.Paper.sc1)
        in
        check Alcotest.bool "header" true (has "Type(E/C/R)" s);
        check Alcotest.bool "student" true (has "1> Student" s);
        check Alcotest.bool "department" true (has "2> Department" s);
        check Alcotest.bool "majors" true (has "3> Majors" s));
    tc "Screen 4: relationship participants" (fun () ->
        let s =
          Tui.Canvas.to_string
            (Tui.Screens.relationship_information Workload.Paper.sc1
               (Ecr.Name.v "Majors"))
        in
        check Alcotest.bool "student" true (has "Student" s);
        check Alcotest.bool "card" true (has "(1,1)" s));
    tc "Screen 5: attribute rows match the paper" (fun () ->
        let s =
          Tui.Canvas.to_string
            (Tui.Screens.attribute_information Workload.Paper.sc1
               (Ecr.Name.v "Student"))
        in
        check Alcotest.bool "header" true
          (has "SCHEMA NAME: sc1   OBJECT NAME: Student   TYPE: e" s);
        check Alcotest.bool "name row" true (has "1> Name" s);
        check Alcotest.bool "gpa row" true (has "2> GPA" s));
    tc "Screen 6: object selection shows both columns" (fun () ->
        let s =
          Tui.Canvas.to_string
            (Tui.Screens.object_selection Workload.Paper.sc1 Workload.Paper.sc2)
        in
        check Alcotest.bool "sc1" true (has "SCHEMA: sc1" s);
        check Alcotest.bool "sc2" true (has "SCHEMA: sc2" s);
        check Alcotest.bool "faculty" true (has "Faculty" s));
    tc "Screen 7: equivalence class numbers" (fun () ->
        let eq =
          List.fold_left
            (fun acc (x, y) -> Integrate.Equivalence.declare x y acc)
            (Integrate.Equivalence.register_schema Workload.Paper.sc2
               (Integrate.Equivalence.register_schema Workload.Paper.sc1
                  Integrate.Equivalence.empty))
            Workload.Paper.equivalences
        in
        let s =
          Tui.Canvas.to_string
            (Tui.Screens.equivalence_classes eq
               (Workload.Paper.sc1, Ecr.Name.v "Student")
               (Workload.Paper.sc2, Ecr.Name.v "Grad_student"))
        in
        check Alcotest.bool "header" true (has "Eq_class #" s);
        check Alcotest.bool "both objects" true
          (has "(sc1.Student)" s && has "(sc2.Grad_student)" s));
    tc "Screen 8: ratios printed with four decimals" (fun () ->
        let eq =
          List.fold_left
            (fun acc (x, y) -> Integrate.Equivalence.declare x y acc)
            (Integrate.Equivalence.register_schema Workload.Paper.sc2
               (Integrate.Equivalence.register_schema Workload.Paper.sc1
                  Integrate.Equivalence.empty))
            Workload.Paper.equivalences
        in
        let ranked =
          Integrate.Similarity.ranked_object_pairs Workload.Paper.sc1
            Workload.Paper.sc2 eq
        in
        let s =
          Tui.Canvas.to_string (Tui.Screens.assertion_collection ~answered:[] ranked)
        in
        check Alcotest.bool "0.5000" true (has "0.5000" s);
        check Alcotest.bool "0.3333" true (has "0.3333" s);
        check Alcotest.bool "menu" true (has "1 - OB_CL_name_1 'equals' OB_CL_name_2" s);
        check Alcotest.bool "code 0 listed" true
          (has "0 - OB_CL_name_1 and OB_CL_name_2 are disjoint & non-integratable" s));
    tc "Screen 9: conflict shows derivation basis" (fun () ->
        let q = Ecr.Qname.v in
        let m =
          Integrate.Assertions.create [ Workload.Paper.sc3; Workload.Paper.sc4 ]
        in
        let m =
          match
            Integrate.Assertions.add (q "sc3" "Instructor")
              Integrate.Assertion.Contained_in (q "sc4" "Grad_student") m
          with
          | Ok m -> m
          | Error _ -> Alcotest.fail "fixture conflict"
        in
        match
          Integrate.Assertions.add (q "sc3" "Instructor")
            Integrate.Assertion.Disjoint_nonintegrable (q "sc4" "Student") m
        with
        | Ok _ -> Alcotest.fail "expected conflict"
        | Error c ->
            let s = Tui.Canvas.to_string (Tui.Screens.conflict_resolution c) in
            check Alcotest.bool "derived marker" true (has "<derived>(CONFLICT)" s);
            check Alcotest.bool "new marker" true (has "<new>(CONFLICT)" s);
            check Alcotest.bool "basis row" true (has "sc4.Grad_student" s));
    tc "Screen 10: object class screen counts" (fun () ->
        let s = Tui.Canvas.to_string (Tui.Screens.object_class_screen (Lazy.force result)) in
        check Alcotest.bool "entities(2)" true (has "Entities(2)" s);
        check Alcotest.bool "categories(3)" true (has "Categories(3)" s);
        check Alcotest.bool "relationships(2)" true (has "Relationships(2)" s);
        check Alcotest.bool "E_Department" true (has "E_Department" s);
        check Alcotest.bool "E_Stud_Majo" true (has "E_Stud_Majo" s));
    tc "Screen 11: category screen for Student" (fun () ->
        let s =
          Tui.Canvas.to_string
            (Tui.Screens.category_screen (Lazy.force result) (Ecr.Name.v "Student"))
        in
        check Alcotest.bool "parent count" true (has "Parent Object(1)" s);
        check Alcotest.bool "parent" true (has "D_Stud_Facu (e)" s);
        check Alcotest.bool "child" true (has "Grad_student (c)" s));
    tc "Screen 12: component attribute screens" (fun () ->
        let r = Lazy.force result in
        let schemas = [ Workload.Paper.sc1; Workload.Paper.sc2 ] in
        let s0 =
          Tui.Canvas.to_string
            (Tui.Screens.component_attribute_screen ~schemas r
               (Ecr.Name.v "Student") (Ecr.Name.v "D_GPA") ~index:0)
        in
        check Alcotest.bool "first component" true
          (has "original Schema Name" s0 && has ": sc1" s0 && has ": Student" s0);
        let s1 =
          Tui.Canvas.to_string
            (Tui.Screens.component_attribute_screen ~schemas r
               (Ecr.Name.v "Student") (Ecr.Name.v "D_GPA") ~index:1)
        in
        check Alcotest.bool "second component" true
          (has ": sc2" s1 && has ": Grad_student" s1));
    tc "Equivalent screen lists merged components" (fun () ->
        let s =
          Tui.Canvas.to_string
            (Tui.Screens.equivalent_screen (Lazy.force result)
               (Ecr.Name.v "E_Department"))
        in
        check Alcotest.bool "both" true (has "sc1.Department" s && has "sc2.Department" s));
    tc "Participating objects screen" (fun () ->
        let s =
          Tui.Canvas.to_string
            (Tui.Screens.participating_objects_screen (Lazy.force result)
               (Ecr.Name.v "E_Stud_Majo"))
        in
        check Alcotest.bool "student" true (has "Student" s);
        check Alcotest.bool "department" true (has "E_Department" s));
    tc "every screen fits 80x24" (fun () ->
        let r = Lazy.force result in
        let canvases =
          [
            Tui.Screens.main_menu ();
            Tui.Screens.structure_information Workload.Paper.sc1;
            Tui.Screens.object_class_screen r;
            Tui.Screens.category_screen r (Ecr.Name.v "Student");
          ]
        in
        List.iter
          (fun c ->
            check Alcotest.int "80 wide" 80 (Tui.Canvas.width c);
            check Alcotest.int "24 tall" 24 (Tui.Canvas.height c);
            List.iter
              (fun line -> check Alcotest.bool "fits" true (String.length line <= 80))
              (Tui.Canvas.to_lines c))
          canvases);
  ]

let flow_tests =
  [
    tc "Figure 6: all screens reachable from Object Class" (fun () ->
        check Alcotest.int "eight screens" 8
          (List.length (Tui.Flow.reachable_from Tui.Flow.Object_class)));
    tc "arcs are deterministic per choice" (fun () ->
        List.iter
          (fun screen ->
            let labels = List.map fst (Tui.Flow.successors screen) in
            check Alcotest.bool "no duplicate labels" true
              (List.length labels = List.length (List.sort_uniq compare labels)))
          Tui.Flow.all_screens);
    tc "the paper's arcs" (fun () ->
        check Alcotest.bool "OC --C--> Category" true
          (Tui.Flow.next Tui.Flow.Object_class "C" = Some Tui.Flow.Category);
        check Alcotest.bool "Rel --p--> Participating" true
          (Tui.Flow.next Tui.Flow.Relationship "p" = Some Tui.Flow.Participating);
        check Alcotest.bool "bad choice" true
          (Tui.Flow.next Tui.Flow.Entity "z" = None));
    tc "every non-root screen can return" (fun () ->
        List.iter
          (fun screen ->
            if screen <> Tui.Flow.Object_class then
              check Alcotest.bool "has q" true
                (Tui.Flow.next screen "q" <> None))
          Tui.Flow.all_screens);
    tc "to_dot emits every arc" (fun () ->
        let dot = Tui.Flow.to_dot () in
        check Alcotest.bool "label e" true (has "label=\"e\"" dot);
        check Alcotest.bool "category node" true (has "Category Screen" dot));
  ]

let session_tests =
  [
    tc "scripted schema collection builds a schema" (fun () ->
        let script =
          [
            "1"; "a"; "demo"; "a"; "Person"; "e"; "a"; "Ssn : char key"; "e";
            "e"; "e"; "e";
          ]
        in
        let io, _ = Tui.Session.scripted script in
        let ws = Tui.Session.run io in
        match Integrate.Workspace.find_schema (Ecr.Name.v "demo") ws with
        | Some s ->
            check Alcotest.int "one structure" 1 (Ecr.Schema.size s);
            check Alcotest.bool "person exists" true
              (Ecr.Schema.mem (Ecr.Name.v "Person") s)
        | None -> Alcotest.fail "schema not collected");
    tc "running out of script exits cleanly" (fun () ->
        let io, _ = Tui.Session.scripted [ "1"; "a"; "demo" ] in
        let ws = Tui.Session.run io in
        check Alcotest.bool "workspace returned" true
          (Integrate.Workspace.schemas ws <> []));
    tc "view_result navigates the flow" (fun () ->
        let io, buf =
          Tui.Session.scripted [ "C Student"; "q"; "E E_Department"; "e"; "x" ]
        in
        Tui.Session.view_result io
          ~schemas:[ Workload.Paper.sc1; Workload.Paper.sc2 ]
          (Lazy.force result);
        let out = Buffer.contents buf in
        check Alcotest.bool "category screen shown" true (has "Category Screen" out);
        check Alcotest.bool "equivalent screen shown" true (has "Equivalent Screen" out));
    tc "invalid inputs do not crash the driver" (fun () ->
        let io, _ =
          Tui.Session.scripted [ "zz"; "1"; "a"; "9bad"; "e"; "6"; "e" ]
        in
        let ws = Tui.Session.run io in
        check Alcotest.bool "survived" true (Integrate.Workspace.schemas ws = []));
    tc "analysis command reports issues" (fun () ->
        let ws =
          Integrate.Workspace.(
            add_schema Workload.Paper.sc2 (add_schema Workload.Paper.sc1 empty))
        in
        let io, buf = Tui.Session.scripted [ "a"; "e" ] in
        let _ = Tui.Session.run ~workspace:ws io in
        check Alcotest.bool "homonyms shown" true
          (has "homonym" (Buffer.contents buf)));
    tc "task 6 can integrate a pair out of three schemas" (fun () ->
        let ws =
          Integrate.Workspace.(
            add_schema Workload.Paper.sc3
              (add_schema Workload.Paper.sc2 (add_schema Workload.Paper.sc1 empty)))
        in
        let io, buf =
          Tui.Session.scripted [ "6"; "p"; "sc1"; "sc2"; "x"; "e" ]
        in
        let _ = Tui.Session.run ~workspace:ws io in
        let out = Buffer.contents buf in
        check Alcotest.bool "object class screen shown" true
          (has "Object Class Screen" out);
        (* sc3's Instructor is not part of the pair integration *)
        check Alcotest.bool "instructor absent" false (has "Instructor" out));
    tc "Screen 8 ranks the equivalence Screen 7 left behind" (fun () ->
        let ws =
          Integrate.Workspace.(
            add_schema Workload.Paper.sc2 (add_schema Workload.Paper.sc1 empty))
        in
        (* task 2: declare Name and GPA on Student/Grad_student, delete
           sc1.Student.GPA again, declare Name on the Departments; then
           task 3 over the same pair of schemas *)
        let io, buf =
          Tui.Session.scripted
            [
              "2"; "sc1"; "sc2"; "Student"; "Grad_student";
              "a"; "Name"; "Name"; "a"; "GPA"; "GPA";
              "d"; "sc1.Student.GPA"; "e"; "y";
              "Department"; "Department"; "a"; "Name"; "Name"; "e"; "n";
              "3"; "sc1"; "sc2"; "e"; "e";
            ]
        in
        let ws' = Tui.Session.run ~workspace:ws io in
        let eq = Integrate.Workspace.equivalence ws' in
        check Alcotest.bool "the GPA pair was deleted" false
          (Integrate.Equivalence.equivalent
             (Ecr.Qname.Attr.v "sc1" "Student" "GPA")
             (Ecr.Qname.Attr.v "sc2" "Grad_student" "GPA")
             eq);
        let screen =
          Tui.Canvas.to_string
            (Tui.Screens.assertion_collection ~answered:[]
               (Integrate.Similarity.ranked_object_pairs Workload.Paper.sc1
                  Workload.Paper.sc2 eq))
        in
        check Alcotest.bool "Student-Grad_student at 1/3" true (has "0.3333" screen);
        check Alcotest.bool "task 3 printed that ranking" true
          (has screen (Buffer.contents buf)));
    tc "an invalid schema edit is refused and not recorded" (fun () ->
        let ws =
          Integrate.Workspace.(
            add_schema Workload.Paper.sc2 (add_schema Workload.Paper.sc1 empty))
        in
        (* delete Faculty while the relationship Works still names it *)
        let io, buf =
          Tui.Session.scripted
            [ "1"; "u"; "sc2"; "d"; "Faculty"; "e"; "e"; "e" ]
        in
        let recorded = ref 0 in
        let ws' =
          Tui.Session.run ~workspace:ws ~record:(fun _ _ -> incr recorded) io
        in
        check Alcotest.int "nothing recorded" 0 !recorded;
        check Alcotest.string "workspace unchanged" (Dictionary.to_string ws)
          (Dictionary.to_string ws');
        check Alcotest.bool "the error is shown" true
          (has "unknown class Faculty" (Buffer.contents buf)));
  ]

let () =
  Alcotest.run "tui"
    [
      ("canvas", canvas_tests);
      ("screens", screen_tests);
      ("flow", flow_tests);
      ("session", session_tests);
    ]
