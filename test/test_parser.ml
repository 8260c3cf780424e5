(* Tests for the textual query/update syntax. *)

open Ecr
module V = Instance.Value

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let roundtrip_query src =
  (* parse, print, re-parse: ASTs must agree *)
  let q = Query.Parser.query_of_string src in
  let q' = Query.Parser.query_of_string (Query.Ast.to_string q) in
  check Alcotest.bool ("roundtrip: " ^ src) true (q = q')

let query_tests =
  [
    tc "select star" (fun () ->
        let q = Query.Parser.query_of_string "select * from Student" in
        check Alcotest.string "class" "Student" (Name.to_string q.Query.Ast.from_class);
        check Alcotest.int "no projection" 0 (List.length q.Query.Ast.select));
    tc "select attrs with where" (fun () ->
        let q =
          Query.Parser.query_of_string
            "select Name, GPA from Student where GPA >= 3.5"
        in
        check (Alcotest.list Alcotest.string) "attrs" [ "Name"; "GPA" ]
          (List.map Name.to_string q.Query.Ast.select);
        match q.Query.Ast.where with
        | Some (Query.Ast.Atom (a, Query.Ast.Ge, v)) ->
            check Alcotest.string "attr" "GPA" (Name.to_string a);
            check Alcotest.bool "value" true (V.equal v (V.real 3.5))
        | _ -> Alcotest.fail "expected a Ge atom");
    tc "boolean precedence: or binds looser than and" (fun () ->
        let q =
          Query.Parser.query_of_string
            "select * from S where a = 1 and b = 2 or c = 3"
        in
        match q.Query.Ast.where with
        | Some (Query.Ast.Or (Query.Ast.And _, Query.Ast.Atom _)) -> ()
        | _ -> Alcotest.fail "wrong precedence");
    tc "parentheses override precedence" (fun () ->
        let q =
          Query.Parser.query_of_string
            "select * from S where a = 1 and (b = 2 or c = 3)"
        in
        match q.Query.Ast.where with
        | Some (Query.Ast.And (Query.Ast.Atom _, Query.Ast.Or _)) -> ()
        | _ -> Alcotest.fail "wrong grouping");
    tc "not and <> operators" (fun () ->
        let q =
          Query.Parser.query_of_string "select * from S where not a <> 'x'"
        in
        match q.Query.Ast.where with
        | Some (Query.Ast.Not (Query.Ast.Atom (_, Query.Ast.Ne, _))) -> ()
        | _ -> Alcotest.fail "expected not/ne");
    tc "join projects relationship attributes via 'with'" (fun () ->
        let q =
          Query.Parser.query_of_string
            "select Name from Student via Majors with Since to Department"
        in
        match q.Query.Ast.via with
        | Some j ->
            check (Alcotest.list Alcotest.string) "rel attrs" [ "Since" ]
              (List.map Name.to_string j.Query.Ast.rel_select)
        | None -> Alcotest.fail "missing join");
    tc "join clause with target where" (fun () ->
        let q =
          Query.Parser.query_of_string
            "select Name from Student via Majors to Department select Name \
             target where Name = \"CS\" where GPA > 3"
        in
        match q.Query.Ast.via with
        | Some j ->
            check Alcotest.string "rel" "Majors" (Name.to_string j.Query.Ast.rel);
            check Alcotest.string "target" "Department"
              (Name.to_string j.Query.Ast.target);
            check Alcotest.bool "target where" true (j.Query.Ast.target_where <> None);
            check Alcotest.bool "outer where kept" true (q.Query.Ast.where <> None)
        | None -> Alcotest.fail "missing join");
    tc "value literals" (fun () ->
        check Alcotest.bool "int" true
          (V.equal (Query.Parser.value_of_string "42") (V.int 42));
        check Alcotest.bool "negative real" true
          (V.equal (Query.Parser.value_of_string "-2.5") (V.real (-2.5)));
        check Alcotest.bool "string" true
          (V.equal (Query.Parser.value_of_string "'hi'") (V.str "hi"));
        check Alcotest.bool "bool" true
          (V.equal (Query.Parser.value_of_string "true") (V.bool true));
        check Alcotest.bool "null" true
          (V.equal (Query.Parser.value_of_string "null") V.Null);
        check Alcotest.bool "date" true
          (V.equal (Query.Parser.value_of_string "'2020-09-01'") (V.date 2020 9 1)));
    tc "syntax errors raise" (fun () ->
        List.iter
          (fun src ->
            match Query.Parser.query_of_string src with
            | exception Query.Parser.Error _ -> ()
            | _ -> Alcotest.failf "accepted %S" src)
          [
            "";
            "select";
            "select * from";
            "select * from S where";
            "select * from S extra";
            "select * from S where a ==";
            (* a literal past the largest double is refused, not read as inf *)
            "select * from S where a = 1" ^ String.make 400 '0' ^ ".0";
          ]);
    tc "parsed queries run" (fun () ->
        let st = Instance.Store.create Workload.Paper.sc1 in
        let st, _ =
          Instance.Store.insert (Name.v "Student")
            (Instance.Store.tuple [ ("Name", V.str "Ann"); ("GPA", V.real 3.9) ])
            st
        in
        let rows =
          Query.Eval.run
            (Query.Parser.query_of_string
               "select Name from Student where GPA >= 3.5")
            st
        in
        check Alcotest.int "one row" 1 (List.length rows));
    tc "print/parse round trips" (fun () ->
        List.iter roundtrip_query
          [
            "select * from Student";
            "select Name, GPA from Student where GPA >= 3.5";
            "select Name from Student via Majors to Department select Name";
            "select Name from Student via Majors with Since to Department";
            "select * from S where not (a = 1 or b = 2) and c <> 'x'";
            "select D_Name from Student via E_Stud_Majo to E_Department select \
             D_Name target where D_Name = 'CS'";
          ]);
  ]

let update_tests =
  [
    tc "insert" (fun () ->
        match
          Query.Parser.update_of_string
            "insert into Student { Name = 'Ann', GPA = 3.9 }"
        with
        | Query.Update.Insert (cls, tuple) ->
            check Alcotest.string "class" "Student" (Name.to_string cls);
            check Alcotest.int "two values" 2 (Name.Map.cardinal tuple)
        | _ -> Alcotest.fail "expected insert");
    tc "delete with and without where" (fun () ->
        (match Query.Parser.update_of_string "delete from Student" with
        | Query.Update.Delete (_, None) -> ()
        | _ -> Alcotest.fail "expected bare delete");
        match
          Query.Parser.update_of_string "delete from Student where Name = 'Ann'"
        with
        | Query.Update.Delete (_, Some _) -> ()
        | _ -> Alcotest.fail "expected filtered delete");
    tc "update" (fun () ->
        match
          Query.Parser.update_of_string
            "update Student set GPA = 4.0, Name = 'A+' where GPA > 3.9"
        with
        | Query.Update.Modify (cls, Some _, assigns) ->
            check Alcotest.string "class" "Student" (Name.to_string cls);
            check Alcotest.int "two assignments" 2 (List.length assigns)
        | _ -> Alcotest.fail "expected modify");
    tc "parsed updates apply" (fun () ->
        let st = Instance.Store.create Workload.Paper.sc1 in
        let st, n =
          Query.Update.apply
            (Query.Parser.update_of_string
               "insert into Student { Name = 'Zoe', GPA = 3.0 }")
            st
        in
        check Alcotest.int "inserted" 1 n;
        let st, n =
          Query.Update.apply
            (Query.Parser.update_of_string
               "update Student set GPA = 3.5 where Name = 'Zoe'")
            st
        in
        check Alcotest.int "updated" 1 n;
        let _, n =
          Query.Update.apply
            (Query.Parser.update_of_string "delete from Student where GPA = 3.5")
            st
        in
        check Alcotest.int "deleted" 1 n);
    tc "update syntax errors raise" (fun () ->
        List.iter
          (fun src ->
            match Query.Parser.update_of_string src with
            | exception Query.Parser.Error _ -> ()
            | _ -> Alcotest.failf "accepted %S" src)
          [
            "drop table x";
            "insert into X";
            "update X set";
            "insert into X { a = -1" ^ String.make 400 '0' ^ ".0 }";
          ]);
  ]

let cluster_tests =
  [
    tc "clusters partition the related classes" (fun () ->
        let q = Qname.v in
        let m =
          Integrate.Assertions.create [ Workload.Paper.sc1; Workload.Paper.sc2 ]
        in
        let m =
          List.fold_left
            (fun m (l, a, r) ->
              match Integrate.Assertions.add l a r m with
              | Ok m -> m
              | Error _ -> Alcotest.fail "fixture")
            m Workload.Paper.object_assertions
        in
        let clusters = Integrate.Cluster.of_assertions m in
        (* two clusters: the departments, and the student/faculty group *)
        check Alcotest.int "two clusters" 2 (List.length clusters);
        (match Integrate.Cluster.find (q "sc1" "Department") clusters with
        | Some members -> check Alcotest.int "departments" 2 (List.length members)
        | None -> Alcotest.fail "department cluster missing");
        match Integrate.Cluster.find (q "sc1" "Student") clusters with
        | Some members ->
            check Alcotest.int "students/faculty" 3 (List.length members)
        | None -> Alcotest.fail "student cluster missing");
    tc "nonintegrable pairs split clusters" (fun () ->
        let mk n cls =
          Schema.make (Name.v n)
            ~objects:[ Object_class.entity (Name.v cls) ]
            ~relationships:[]
        in
        let m = Integrate.Assertions.create [ mk "a" "X"; mk "b" "Y" ] in
        let m =
          match
            Integrate.Assertions.add (Qname.v "a" "X")
              Integrate.Assertion.Disjoint_nonintegrable (Qname.v "b" "Y") m
          with
          | Ok m -> m
          | Error _ -> Alcotest.fail "fixture"
        in
        check Alcotest.int "no clusters" 0
          (List.length (Integrate.Cluster.of_assertions m)));
    tc "of_edges ignores singletons" (fun () ->
        let q = Qname.v in
        let clusters =
          Integrate.Cluster.of_edges
            [ q "a" "X"; q "b" "Y"; q "c" "Z" ]
            [ (q "a" "X", q "b" "Y") ]
        in
        check Alcotest.int "one cluster" 1 (List.length clusters);
        check Alcotest.int "of two" 2 (List.length (List.hd clusters)));
  ]

let () =
  Alcotest.run "parser"
    [
      ("query-syntax", query_tests);
      ("update-syntax", update_tests);
      ("clusters", cluster_tests);
    ]
