(* Tests for the query language: evaluation, rewriting in both
   directions, and instance migration. *)

open Ecr
module S = Instance.Store
module V = Instance.Value

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* ---- a populated instance of paper schema sc1 --------------------- *)

let sc1_store () =
  let st = S.create Workload.Paper.sc1 in
  let student name gpa = S.tuple [ ("Name", V.str name); ("GPA", V.real gpa) ] in
  let st, ann = S.insert (Name.v "Student") (student "Ann" 3.9) st in
  let st, ben = S.insert (Name.v "Student") (student "Ben" 2.5) st in
  let st, cyd = S.insert (Name.v "Student") (student "Cyd" 3.2) st in
  let st, cs = S.insert (Name.v "Department") (S.tuple [ ("Name", V.str "CS") ]) st in
  let st, ee = S.insert (Name.v "Department") (S.tuple [ ("Name", V.str "EE") ]) st in
  let since y = S.tuple [ ("Since", V.date y 9 1) ] in
  let st = S.relate (Name.v "Majors") [ ann; cs ] (since 2020) st in
  let st = S.relate (Name.v "Majors") [ ben; ee ] (since 2021) st in
  let st = S.relate (Name.v "Majors") [ cyd; cs ] (since 2022) st in
  st

let eval_tests =
  [
    tc "select all" (fun () ->
        let rows = Query.Eval.run (Query.Ast.query "Student") (sc1_store ()) in
        check Alcotest.int "three students" 3 (List.length rows));
    tc "where filters" (fun () ->
        let rows =
          Query.Eval.run
            Query.Ast.(query "Student" ~where:(atom "GPA" Ge (V.real 3.0)))
            (sc1_store ())
        in
        check Alcotest.int "two" 2 (List.length rows));
    tc "projection keeps only selected columns" (fun () ->
        let rows =
          Query.Eval.run Query.Ast.(query "Student" ~select:[ "Name" ]) (sc1_store ())
        in
        List.iter
          (fun r -> check Alcotest.int "one column" 1 (Name.Map.cardinal r))
          rows);
    tc "boolean connectives" (fun () ->
        let rows =
          Query.Eval.run
            Query.Ast.(
              query "Student"
                ~where:
                  (atom "GPA" Ge (V.real 3.0) &&& not_ (atom "Name" Eq (V.str "Ann"))))
            (sc1_store ())
        in
        check Alcotest.int "only Cyd" 1 (List.length rows));
    tc "join via relationship" (fun () ->
        let rows =
          Query.Eval.run
            Query.Ast.(
              query "Student" ~select:[ "Name" ]
                ~via:
                  (join "Majors" "Department" ~target_select:[ "Name" ]
                     ~where:(atom "Name" Eq (V.str "CS"))))
            (sc1_store ())
        in
        check Alcotest.int "two in CS" 2 (List.length rows);
        List.iter
          (fun r ->
            check Alcotest.bool "has prefixed column" true
              (Name.Map.mem (Name.v "Department_Name") r))
          rows);
    tc "join projects relationship attributes" (fun () ->
        let rows =
          Query.Eval.run
            Query.Ast.(
              query "Student" ~select:[ "Name" ]
                ~via:
                  (join "Majors" "Department" ~rel_select:[ "Since" ]
                     ~target_select:[ "Name" ]))
            (sc1_store ())
        in
        check Alcotest.int "three" 3 (List.length rows);
        List.iter
          (fun r ->
            check Alcotest.bool "Majors_Since column" true
              (match Name.Map.find_opt (Name.v "Majors_Since") r with
              | Some (V.Date _) -> true
              | _ -> false))
          rows);
    tc "unknown relationship attribute raises" (fun () ->
        match
          Query.Eval.run
            Query.Ast.(
              query "Student"
                ~via:(join "Majors" "Department" ~rel_select:[ "Ghost" ]))
            (sc1_store ())
        with
        | exception Query.Eval.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    tc "null comparisons are false" (fun () ->
        let st = S.create Workload.Paper.sc1 in
        let st, _ = S.insert (Name.v "Student") Name.Map.empty st in
        let rows =
          Query.Eval.run
            Query.Ast.(query "Student" ~where:(atom "GPA" Le (V.real 9.9)))
            st
        in
        check Alcotest.int "null fails every cmp" 0 (List.length rows);
        let rows =
          Query.Eval.run
            Query.Ast.(query "Student" ~where:(not_ (atom "GPA" Le (V.real 9.9))))
            st
        in
        check Alcotest.int "negation sees it" 1 (List.length rows));
    tc "unknown class and attribute raise" (fun () ->
        (match Query.Eval.run (Query.Ast.query "Ghost") (sc1_store ()) with
        | exception Query.Eval.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
        match
          Query.Eval.run Query.Ast.(query "Student" ~select:[ "Ghost" ]) (sc1_store ())
        with
        | exception Query.Eval.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
    tc "same_answers is order-insensitive but multiset-sensitive" (fun () ->
        let r1 = Query.Eval.row [ ("a", V.int 1) ]
        and r2 = Query.Eval.row [ ("a", V.int 2) ] in
        check Alcotest.bool "perm" true (Query.Eval.same_answers [ r1; r2 ] [ r2; r1 ]);
        check Alcotest.bool "dup" false (Query.Eval.same_answers [ r1; r1 ] [ r1 ]));
    tc "category extent evaluates members of children" (fun () ->
        let st = S.create Workload.Paper.sc4 in
        let st, _ =
          S.insert (Name.v "Grad_student")
            (S.tuple [ ("Name", V.str "Zoe"); ("GPA", V.real 3.5) ])
            st
        in
        let rows = Query.Eval.run (Query.Ast.query "Student") st in
        check Alcotest.int "grad visible as student" 1 (List.length rows));
  ]

(* ---- rewriting ----------------------------------------------------- *)

let paper = lazy (Workload.Paper.integrate_sc1_sc2 ())

let migrated () =
  let r = Lazy.force paper in
  let st1 = sc1_store () in
  let st2 = S.create Workload.Paper.sc2 in
  let st2, alice =
    S.insert (Name.v "Grad_student")
      (S.tuple [ ("Name", V.str "Ann"); ("GPA", V.real 3.9); ("Support_type", V.str "RA") ])
      st2
  in
  let st2, cs2 = S.insert (Name.v "Department") (S.tuple [ ("Name", V.str "CS") ]) st2 in
  let st2, prof =
    S.insert (Name.v "Faculty")
      (S.tuple [ ("Name", V.str "Dr_X"); ("Rank", V.str "Assoc") ])
      st2
  in
  let st2 = S.relate (Name.v "Major_in") [ alice; cs2 ] (S.tuple [ ("Since", V.date 2020 9 1) ]) st2 in
  let st2 = S.relate (Name.v "Works") [ prof; cs2 ] Name.Map.empty st2 in
  let merged, report =
    Query.Migrate.run r.Integrate.Result.mapping
      ~integrated:r.Integrate.Result.schema
      [ (Workload.Paper.sc1, st1); (Workload.Paper.sc2, st2) ]
  in
  (r, st1, st2, merged, report)

let rewrite_tests =
  [
    tc "view query answers survive rewriting" (fun () ->
        let r, st1, _, merged, _ = migrated () in
        let view_q =
          Query.Ast.(
            query "Student" ~select:[ "Name" ] ~where:(atom "GPA" Ge (V.real 3.0)))
        in
        let q', back =
          Query.Rewrite.to_integrated r.Integrate.Result.mapping
            ~view:Workload.Paper.sc1 view_q
        in
        check Alcotest.bool "same" true
          (Query.Eval.same_answers (Query.Eval.run view_q st1)
             (back (Query.Eval.run q' merged))));
    tc "joined view query survives rewriting" (fun () ->
        let r, st1, _, merged, _ = migrated () in
        let view_q =
          Query.Ast.(
            query "Student" ~select:[ "Name" ]
              ~via:
                (join "Majors" "Department" ~rel_select:[ "Since" ]
                   ~target_select:[ "Name" ]))
        in
        let q', back =
          Query.Rewrite.to_integrated r.Integrate.Result.mapping
            ~view:Workload.Paper.sc1 view_q
        in
        check Alcotest.bool "same" true
          (Query.Eval.same_answers (Query.Eval.run view_q st1)
             (back (Query.Eval.run q' merged))));
    tc "rewriting renames classes and attributes" (fun () ->
        let r = Lazy.force paper in
        let q', _ =
          Query.Rewrite.to_integrated r.Integrate.Result.mapping
            ~view:Workload.Paper.sc1
            Query.Ast.(query "Department" ~select:[ "Name" ])
        in
        check Alcotest.string "class" "E_Department" (Name.to_string q'.Query.Ast.from_class);
        check (Alcotest.list Alcotest.string) "attr" [ "D_Name" ]
          (List.map Name.to_string q'.Query.Ast.select));
    tc "unmapped view class raises" (fun () ->
        let r = Lazy.force paper in
        match
          Query.Rewrite.to_integrated r.Integrate.Result.mapping
            ~view:Workload.Paper.sc3
            (Query.Ast.query "Instructor")
        with
        | exception Query.Rewrite.Unmapped _ -> ()
        | _ -> Alcotest.fail "expected Unmapped");
    tc "global query unfolds to every contributing component" (fun () ->
        let r = Lazy.force paper in
        let parts =
          Query.Rewrite.to_components r.Integrate.Result.mapping
            ~integrated:r.Integrate.Result.schema
            Query.Ast.(query "D_Stud_Facu" ~select:[ "D_Name" ])
        in
        check
          (Alcotest.slist Alcotest.string String.compare)
          "components"
          [ "sc1"; "sc2"; "sc2" ]
          (List.map (fun p -> Name.to_string p.Query.Rewrite.component) parts));
    tc "global answers match the migrated instance" (fun () ->
        let r, st1, st2, merged, _ = migrated () in
        let gq = Query.Ast.(query "D_Stud_Facu" ~select:[ "D_Name" ]) in
        let direct = Query.Eval.run gq merged in
        let union =
          Query.Rewrite.run_global r.Integrate.Result.mapping
            ~integrated:r.Integrate.Result.schema
            ~stores:[ (Name.v "sc1", st1); (Name.v "sc2", st2) ]
            gq
        in
        check Alcotest.bool "covers" true
          (Query.Rewrite.covers direct union && Query.Rewrite.covers union direct));
    tc "predicates on unmapped attributes become Const false" (fun () ->
        let r = Lazy.force paper in
        let parts =
          Query.Rewrite.to_components r.Integrate.Result.mapping
            ~integrated:r.Integrate.Result.schema
            Query.Ast.(
              query "Student" ~select:[ "D_Name" ]
                ~where:(atom "Support_type" Eq (V.str "RA")))
        in
        let sc1_part =
          List.find
            (fun p -> Name.to_string p.Query.Rewrite.component = "sc1")
            parts
        in
        check Alcotest.bool "const false" true
          (match sc1_part.Query.Rewrite.query.Query.Ast.where with
          | Some (Query.Ast.Const false) -> true
          | _ -> false));
    tc "unfolding skips subclass entries already covered" (fun () ->
        (* personnel models Manager under Employee; when both map into
           the queried class's subtree, Manager's extent is already in
           Employee's answers and must not be read twice *)
        let session = Workload.Domains.company in
        let r = Workload.Domains.integrate ~name:"corp" session in
        let personnel = List.hd session.Workload.Domains.schemas in
        let st = S.create personnel in
        let st, boss =
          S.insert (Name.v "Manager")
            (S.tuple [ ("Emp_no", V.str "E1"); ("Name", V.str "Cyd") ])
            st
        in
        ignore boss;
        let merged_class =
          Option.get
            (Integrate.Mapping.object_target
               (Qname.v "personnel" "Employee")
               r.Integrate.Result.mapping)
        in
        let gq =
          Query.Ast.query (Name.to_string merged_class) ~select:[ "D_Name" ]
        in
        let rows =
          Query.Rewrite.run_global r.Integrate.Result.mapping
            ~integrated:r.Integrate.Result.schema
            ~stores:[ (Name.v "personnel", st) ]
            gq
        in
        check Alcotest.int "one row, not two" 1 (List.length rows);
        match rows with
        | [ row ] ->
            check Alcotest.int "only the requested column" 1
              (Name.Map.cardinal row)
        | _ -> Alcotest.fail "unexpected shape");
    tc "covers tolerates nulls" (fun () ->
        let a = Query.Eval.row [ ("x", V.int 1); ("y", V.Null) ] in
        let b = Query.Eval.row [ ("x", V.int 1); ("y", V.int 2) ] in
        check Alcotest.bool "null sub" true (Query.Rewrite.covers [ b ] [ a ]);
        check Alcotest.bool "mismatch" false
          (Query.Rewrite.covers [ b ] [ Query.Eval.row [ ("x", V.int 9) ] ]));
  ]

(* DDL, a session script and instance data, integrated and migrated
   as [sit_batch -s SCRIPT --data DATA] does. *)
let migrate_texts ~ddl ~script ~data =
  let schemas = Ddl.Parser.schemas_of_string ddl in
  let directives =
    List.filter_map Fun.id
      (List.mapi
         (fun i l -> Integrate.Script.parse_line ~file:"session" ~line:(i + 1) l)
         (String.split_on_char '\n' script))
  in
  let ws = Integrate.Workspace.add_schemas schemas Integrate.Workspace.empty in
  match Integrate.Script.apply directives ws with
  | Error e -> Alcotest.fail (Integrate.Script.apply_error_to_string e)
  | Ok ws ->
      let r = Integrate.Workspace.integrate ws in
      Query.Migrate.run r.Integrate.Result.mapping
        ~integrated:r.Integrate.Result.schema
        (Instance.Loader.load_string ~schemas data)

(* Two copies of one schema, [sa] and [sb], merged by equals. *)
let twin schema = "schema sa {" ^ schema ^ "} schema sb {" ^ schema ^ "}"

(* The values of a merged store held under a name that no class of
   their entity (or, for a link, its relationship set) declares, as
   ["#oid.Attr"] or ["Rel.Attr"]: no query, update or view reads them. *)
let undeclared integrated merged =
  let declares names a = List.exists (Name.equal a) names in
  let entities =
    List.concat_map
      (fun oid ->
        let names =
          List.concat_map
            (fun c -> Attribute.names (Schema.all_attributes integrated c))
            (S.classes_of oid merged)
        in
        Name.Map.fold
          (fun a _ acc ->
            if declares names a then acc
            else
              Printf.sprintf "#%d.%s" (S.Oid.to_int oid) (Name.to_string a) :: acc)
          (S.tuple_of oid merged) [])
      (S.entities merged)
  in
  let links =
    List.concat_map
      (fun r ->
        let rel = r.Relationship.name in
        let names = Attribute.names r.Relationship.attributes in
        List.concat_map
          (fun { S.values; _ } ->
            Name.Map.fold
              (fun a _ acc ->
                if declares names a then acc
                else (Name.to_string rel ^ "." ^ Name.to_string a) :: acc)
              values [])
          (S.links rel merged))
      (Schema.relationships integrated)
  in
  entities @ links

let example f =
  Filename.concat (Filename.dirname Sys.executable_name)
    ("../../../examples/data/" ^ f)

let migrate_tests =
  [
    tc "real keys fuse only when their values are equal" (fun () ->
        let merged, report =
          migrate_texts
            ~ddl:(twin "entity Part { Code : real key; Label : char; }")
            ~script:
              "equiv sa.Part.Code sb.Part.Code\n\
               equiv sa.Part.Label sb.Part.Label\n\
               object sa.Part 1 sb.Part"
            ~data:
              "instance sa { Part { Code = 1.0000001, Label = \"a\" } }\n\
               instance sb { Part { Code = 1.0000002, Label = \"b\" } \
               Part { Code = 3, Label = \"c\" } }"
        in
        check Alcotest.int "entities in" 3 report.Query.Migrate.entities_in;
        check Alcotest.int "entities out" 3 report.Query.Migrate.entities_out;
        check Alcotest.int "fused" 0 report.Query.Migrate.fused;
        check Alcotest.int "no duplicate key" 0 (List.length (S.check merged)));
    tc "an integer key fuses with the equal real" (fun () ->
        let _, report =
          migrate_texts
            ~ddl:(twin "entity Part { Code : real key; }")
            ~script:"equiv sa.Part.Code sb.Part.Code\nobject sa.Part 1 sb.Part"
            ~data:
              "instance sa { Part { Code = 3 } }\n\
               instance sb { Part { Code = 3.0 } }"
        in
        check Alcotest.int "entities out" 1 report.Query.Migrate.entities_out;
        check Alcotest.int "fused" 1 report.Query.Migrate.fused);
    tc "links whose values differ in the 7th digit stay apart" (fun () ->
        let merged, report =
          migrate_texts
            ~ddl:
              (twin
                 "entity P { K : char key; } entity Q { K : char key; } \
                  relationship R (P (0,N), Q (0,N)) { W : real; }")
            ~script:
              "equiv sa.P.K sb.P.K\nequiv sa.Q.K sb.Q.K\nequiv sa.R.W sb.R.W\n\
               object sa.P 1 sb.P\nobject sa.Q 1 sb.Q\nrel sa.R 1 sb.R"
            ~data:
              "instance sa { P { K = \"p\" } as p Q { K = \"q\" } as q \
               R (p, q) { W = 1.0000001 } }\n\
               instance sb { P { K = \"p\" } as p Q { K = \"q\" } as q \
               R (p, q) { W = 1.0000002 } R (p, q) { W = 1.0000001 } }"
        in
        check Alcotest.int "fused participants" 2 report.Query.Migrate.entities_out;
        check Alcotest.int "links in" 3 report.Query.Migrate.links_in;
        check Alcotest.int "links out" 2 report.Query.Migrate.links_out;
        check Alcotest.int "stored" 2
          (List.length
             (List.concat_map
                (fun r -> S.links r.Relationship.name merged)
                (Schema.relationships (S.schema merged)))));
    tc "every merged value sits under an attribute its classes declare"
      (fun () ->
        let check_none what (integrated, merged) =
          check Alcotest.(list string) what [] (undeclared integrated merged)
        in
        let migrate (result : Integrate.Result.t) stores =
          ( result.Integrate.Result.schema,
            fst
              (Query.Migrate.run result.Integrate.Result.mapping
                 ~integrated:result.Integrate.Result.schema stores) )
        in
        let paper = Workload.Paper.integrate_sc1_sc2 () in
        check_none "paper session"
          (migrate paper
             (Instance.Loader.load_file
                ~schemas:[ Workload.Paper.sc1; Workload.Paper.sc2 ]
                (example "paper_instances.ecd")));
        let company = Ddl.Parser.schemas_of_file (example "company.ecr") in
        (match
           Integrate.Script.apply
             (Integrate.Script.parse_file (example "company_session.sit"))
             (Integrate.Workspace.add_schemas company Integrate.Workspace.empty)
         with
        | Error e -> Alcotest.fail (Integrate.Script.apply_error_to_string e)
        | Ok ws ->
            check_none "company example"
              (migrate
                 (Integrate.Workspace.integrate ws)
                 (Instance.Loader.load_file ~schemas:company
                    (example "company_instances.ecd"))));
        List.iter
          (fun seed ->
            let scn =
              Workload.Scenario.generate
                { Workload.Scenario.default_params with seed }
            in
            check_none
              (Printf.sprintf "scenario seed %d" seed)
              (migrate scn.Workload.Scenario.result scn.Workload.Scenario.stores))
          [ 7; 11; 23; 42 ]);
    tc "migration fuses equal entities on keys" (fun () ->
        let _, _, _, merged, report = migrated () in
        check Alcotest.int "fused" 2 report.Query.Migrate.fused;
        check Alcotest.int "violations" 0 (List.length (S.check merged)));
    tc "fused entity carries values from both views" (fun () ->
        let _, _, _, merged, _ = migrated () in
        let anns =
          Query.Eval.run
            Query.Ast.(
              query "Grad_student"
                ~where:(atom "D_Name" Eq (V.str "Ann"))
                ~select:[ "D_Name"; "Support_type"; "D_GPA" ])
            merged
        in
        match anns with
        | [ row ] ->
            check Alcotest.bool "support from sc2" true
              (V.equal (V.str "RA") (Name.Map.find (Name.v "Support_type") row));
            check Alcotest.bool "gpa agreed" true
              (V.equal (V.real 3.9) (Name.Map.find (Name.v "D_GPA") row))
        | rows -> Alcotest.failf "expected exactly one Ann, got %d" (List.length rows));
    tc "category memberships preserved" (fun () ->
        let _, _, _, merged, _ = migrated () in
        check Alcotest.int "grads" 1 (S.cardinality_of (Name.v "Grad_student") merged);
        check Alcotest.int "students" 3 (S.cardinality_of (Name.v "Student") merged);
        check Alcotest.int "faculty" 1 (S.cardinality_of (Name.v "Faculty") merged);
        check Alcotest.int "d node" 4 (S.cardinality_of (Name.v "D_Stud_Facu") merged));
    tc "merged relationships deduplicate shared links" (fun () ->
        let _, _, _, merged, report = migrated () in
        check Alcotest.int "links out" 4 report.Query.Migrate.links_out;
        check Alcotest.int "E_Stud_Majo" 3
          (List.length (S.links (Name.v "E_Stud_Majo") merged));
        check Alcotest.int "works" 1 (List.length (S.links (Name.v "Works") merged)));
    tc "migration report is consistent" (fun () ->
        let _, _, _, _, report = migrated () in
        check Alcotest.int "entities in" 8 report.Query.Migrate.entities_in;
        check Alcotest.int "entities out" 6 report.Query.Migrate.entities_out);
  ]

(* ---- instance-level differential over random workloads ------------- *)

(* The paper-example tests above pin rewriting on one hand-built
   instance; these properties check the same contract — a view query
   answered directly against the view's store equals the query rewritten
   to the integrated schema and answered against the migrated instance —
   over randomly generated universes, populations and naming noise. *)

let qtest ?(count = 10) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let wl_params_gen ~flat =
  QCheck.Gen.(
    let* seed = int_range 0 10_000 in
    let* schemas = int_range 2 3 in
    let* concepts = int_range 5 9 in
    let* noise = float_range 0.0 0.4 in
    return
      {
        Workload.Generator.default_params with
        seed;
        schemas;
        concepts;
        naming_noise = noise;
        population = 60;
        subset_fraction =
          (if flat then 0.0
           else Workload.Generator.default_params.subset_fraction);
        overlap_fraction =
          (if flat then 0.0
           else Workload.Generator.default_params.overlap_fraction);
      })

let wl_params ~flat =
  QCheck.make
    ~print:(fun p ->
      Printf.sprintf "seed=%d schemas=%d concepts=%d noise=%f"
        p.Workload.Generator.seed p.Workload.Generator.schemas
        p.Workload.Generator.concepts p.Workload.Generator.naming_noise)
    (wl_params_gen ~flat)

let integrate_and_migrate p =
  let w = Workload.Generator.generate p in
  (* exhaustive Phase 2: fusion-by-key needs every true attribute
     equivalence declared, and the heuristic pre-filter legitimately
     misses noisy synonym pairs the ground-truth oracle would confirm *)
  let options =
    { Integrate.Protocol.defaults with exhaustive_attribute_pairs = true }
  in
  let r, _stats =
    Integrate.Protocol.run ~options w.Workload.Generator.schemas
      w.Workload.Generator.oracle
  in
  let stores = Workload.Generator.populate w in
  let merged, report =
    Query.Migrate.run r.Integrate.Result.mapping
      ~integrated:r.Integrate.Result.schema stores
  in
  (r, stores, merged, report)

let class_queries view oc =
  let class_name = Name.to_string oc.Object_class.name in
  let attrs =
    List.map (fun a -> Name.to_string a.Attribute.name) oc.Object_class.attributes
  in
  let scan = Query.Ast.query class_name ~select:attrs in
  ignore view;
  match List.find_opt (fun a -> a.Attribute.key) oc.Object_class.attributes with
  | None -> [ scan ]
  | Some key ->
      (* a selective filter exercises predicate rewriting too *)
      [
        scan;
        Query.Ast.(
          query class_name ~select:attrs
            ~where:
              (not_
                 (atom (Name.to_string key.Attribute.name) Eq (V.str "e0"))));
      ]

(* Every view query, answered both ways, for one generated workload:
   directly against the view's own store, and rewritten onto the
   integrated schema against the migrated instance. *)
let check_views ~relate p =
  let r, stores, merged, _ = integrate_and_migrate p in
  List.for_all
    (fun (view, st) ->
      List.for_all
        (fun oc ->
          List.for_all
            (fun q ->
              let q', back =
                Query.Rewrite.to_integrated r.Integrate.Result.mapping ~view q
              in
              let direct = Query.Eval.run q st in
              let via = back (Query.Eval.run q' merged) in
              relate ~direct ~via
              || QCheck.Test.fail_reportf
                   "answers diverge for [%s] %s: %d direct vs %d via \
                    integrated"
                   (Name.to_string (Schema.name view))
                   (Query.Ast.to_string q) (List.length direct)
                   (List.length via))
            (class_queries view oc))
        (Schema.objects view))
    stores

let query_differential_tests =
  [
    qtest "view answers are preserved exactly on partitioned universes"
      (wl_params ~flat:true)
      (* disjoint concepts: cross-view classes of one concept share all
         attribute ids, so exhaustive Phase 2 aligns their keys and
         migration fuses every pair — the global answer must equal the
         view answer, as a multiset *)
      (check_views ~relate:(fun ~direct ~via ->
           Query.Eval.same_answers direct via));
    qtest "view answers are covered on general universes"
      (wl_params ~flat:false)
      (* subset/overlap concepts have their own attributes, so their
         keys never correspond and migration rightly cannot fuse them:
         the integrated class may hold more entities than the view saw.
         The sound guarantee is containment — no view answer is lost *)
      (check_views ~relate:(fun ~direct ~via ->
           Query.Rewrite.covers via direct));
    qtest "migration preserves integrity and entity counts"
      (wl_params ~flat:true) (fun p ->
        let _, stores, merged, report = integrate_and_migrate p in
        let entities_in =
          List.fold_left
            (fun n (s, st) ->
              n
              + List.fold_left
                  (fun n oc ->
                    if oc.Object_class.kind = Object_class.Entity_set then
                      n + S.cardinality_of oc.Object_class.name st
                    else n)
                  0 (Schema.objects s))
            0 stores
        in
        (List.length (S.check merged) = 0
        || QCheck.Test.fail_report "integrity violations in migrated store")
        && (report.Query.Migrate.entities_in = entities_in
           || QCheck.Test.fail_reportf "report counts %d entities in, stores hold %d"
                report.Query.Migrate.entities_in entities_in)
        && report.Query.Migrate.entities_out
           = report.Query.Migrate.entities_in - report.Query.Migrate.fused);
  ]

(* ---- column plans against the map pipeline ------------------------ *)

(* Rows printed exactly: a real by its bits, so rows that [%g] would
   print alike still differ. *)
let exact_row r =
  Name.Map.bindings r
  |> List.map (fun (k, v) ->
         Name.to_string k ^ "="
         ^ match v with V.Real f -> Printf.sprintf "%h" f | v -> V.to_string v)
  |> String.concat ", "

(* A global query answered through the column plans and through the map
   pipeline of test/rewrite_oracle.ml: the component queries and the
   rows, or the evaluation error. *)
let global_outcomes mapping integrated stores q =
  let outcome queries run =
    match run () with
    | rows -> Ok (queries, List.map exact_row rows)
    | exception Query.Eval.Error msg -> Error msg
  in
  let text component q = Name.to_string component ^ ": " ^ Query.Ast.to_string q in
  let parts = Query.Rewrite.to_components mapping ~integrated q in
  let oracle = Rewrite_oracle.to_components mapping ~integrated q in
  ( outcome
      (List.map (fun p -> text p.Query.Rewrite.component p.Query.Rewrite.query) parts)
      (fun () -> Query.Rewrite.run_components parts ~stores),
    outcome
      (List.map (fun p -> text p.Rewrite_oracle.component p.Rewrite_oracle.query) oracle)
      (fun () -> Rewrite_oracle.run_components oracle ~stores) )

(* Random global queries over an integrated schema: any class, a random
   part of the attributes its answer can read, predicates over values
   that occur in the stores, and joins over relationship sets the class
   takes part in. *)
let random_global_query st integrated values =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let some l = List.filter (fun _ -> Random.State.int st 3 = 0) l in
  let class_attrs cls =
    List.sort_uniq Name.compare
      (List.concat_map
         (fun c -> Attribute.names (Schema.all_attributes integrated c))
         (cls :: Schema.descendants integrated cls))
  in
  let rec pred attrs depth =
    match Random.State.int st (if depth = 0 then 1 else 6) with
    | 0 | 1 | 2 when attrs <> [] ->
        Query.Ast.Atom
          ( pick attrs,
            pick Query.Ast.[ Eq; Ne; Lt; Le; Gt; Ge ],
            pick values )
    | 3 -> Query.Ast.And (pred attrs (depth - 1), pred attrs (depth - 1))
    | 4 -> Query.Ast.Or (pred attrs (depth - 1), pred attrs (depth - 1))
    | 5 -> Query.Ast.Not (pred attrs (depth - 1))
    | _ -> Query.Ast.Const (Random.State.bool st)
  in
  let where attrs = if Random.State.bool st then Some (pred attrs 2) else None in
  let cls = (pick (Schema.objects integrated)).Object_class.name in
  let attrs = class_attrs cls in
  let via =
    match
      List.filter
        (fun r ->
          List.exists (fun p -> Name.equal p.Relationship.obj cls) r.Relationship.participants)
        (Schema.relationships integrated)
    with
    | [] -> None
    | rels when Random.State.int st 3 > 0 ->
        let r = pick rels in
        let others =
          List.filter
            (fun p -> not (Name.equal p.Relationship.obj cls))
            r.Relationship.participants
        in
        let target =
          match others with [] -> cls | others -> (pick others).Relationship.obj
        in
        let tattrs = class_attrs target in
        Some
          {
            Query.Ast.rel = r.Relationship.name;
            rel_select = some (Attribute.names r.Relationship.attributes);
            target;
            target_where = where tattrs;
            target_select = some tattrs;
          }
    | _ -> None
  in
  { Query.Ast.from_class = cls; where = where attrs; select = some attrs; via }

let store_values stores =
  V.Null
  :: List.concat_map
       (fun (_, st) ->
         List.concat_map
           (fun oid -> List.map snd (Name.Map.bindings (S.tuple_of oid st)))
           (S.entities st))
       stores
  |> List.sort_uniq compare

(* Every query answered alike both ways, or a report of the first that
   is not. *)
let plans_agree ~what mapping integrated stores queries =
  let stores = List.map (fun (s, st) -> (Schema.name s, st)) stores in
  List.for_all
    (fun q ->
      let plans, oracle = global_outcomes mapping integrated stores q in
      plans = oracle
      || QCheck.Test.fail_reportf "%s: %s answers differently through its plan" what
           (Query.Ast.to_string q))
    queries

(* Up to 24 values drawn from the stores. *)
let random_values st stores =
  let values = Array.of_list (store_values stores) in
  List.init (min 24 (Array.length values)) (fun _ ->
      values.(Random.State.int st (Array.length values)))

let random_queries ~seed ~n integrated stores =
  let st = Random.State.make [| seed |] in
  let values = random_values st stores in
  List.init n (fun _ -> random_global_query st integrated values)

(* A scenario federation as sit_scenario renders it by default: the
   integrated session and the global frames of its read deck. *)
let scenario_federation seed =
  let scn, session = Util.scenario_session (Util.default_scenario seed) in
  let globals =
    List.filter_map
      (fun line ->
        match Server.Wire.request_of_line line with
        | Ok { Server.Wire.op = "query"; view = None; text = Some q; _ } ->
            Some (Query.Parser.query_of_string q)
        | _ -> None)
      (Workload.Scenario.read_frames scn)
  in
  (session, globals)

(* The paper's instances (examples/data/paper_instances.ecd): Ann and
   Ben in sc1, Ann again in sc2, with Ann's GPA given per component. *)
let close_gpas sc1_gpa sc2_gpa =
  let student name gpa = S.tuple [ ("Name", V.str name); ("GPA", gpa) ] in
  let st1 = S.create Workload.Paper.sc1 in
  let st1, _ = S.insert (Name.v "Student") (student "Ann" sc1_gpa) st1 in
  let st1, _ = S.insert (Name.v "Student") (student "Ben" (V.real 2.5)) st1 in
  let st2 = S.create Workload.Paper.sc2 in
  let st2, _ =
    S.insert (Name.v "Grad_student")
      (S.tuple [ ("Name", V.str "Ann"); ("GPA", sc2_gpa); ("Support_type", V.str "RA") ])
      st2
  in
  [ (Name.v "sc1", st1); (Name.v "sc2", st2) ]

let global_rows stores text =
  let r = Lazy.force paper in
  Query.Rewrite.run_global r.Integrate.Result.mapping
    ~integrated:r.Integrate.Result.schema ~stores
    (Query.Parser.query_of_string text)

let unmapped_message text =
  let r = Lazy.force paper in
  match
    Query.Rewrite.to_components r.Integrate.Result.mapping
      ~integrated:r.Integrate.Result.schema
      (Query.Parser.query_of_string text)
  with
  | exception Query.Rewrite.Unmapped msg -> msg
  | _ -> Alcotest.failf "%s: expected Unmapped" text

let plan_tests =
  [
    qtest ~count:30 "column plans answer as the map pipeline on random sessions"
      (wl_params ~flat:false) (fun p ->
        let r, stores, _, _ = integrate_and_migrate p in
        plans_agree ~what:"random session" r.Integrate.Result.mapping
          r.Integrate.Result.schema stores
          (random_queries ~seed:p.Workload.Generator.seed ~n:12
             r.Integrate.Result.schema stores));
    tc "column plans answer as the map pipeline on the scenario federations"
      (fun () ->
        List.iter
          (fun seed ->
            let session, globals = scenario_federation seed in
            let integrated = session.Server.result.Integrate.Result.schema in
            let stores = session.Server.component_stores in
            check Alcotest.bool
              (Printf.sprintf "seed %d: the deck has global frames" seed)
              true (globals <> []);
            check Alcotest.bool (Printf.sprintf "seed %d" seed) true
              (plans_agree ~what:(Printf.sprintf "seed %d" seed)
                 session.Server.result.Integrate.Result.mapping integrated stores
                 (globals @ random_queries ~seed ~n:40 integrated stores)))
          [ 7; 11; 23; 42 ]);
    tc "the outer union keeps rows whose reals agree to six digits" (fun () ->
        let rows =
          global_rows (close_gpas (V.real 3.1234561) (V.real 3.1234569))
            "select * from Student"
        in
        let student name gpa =
          exact_row (Query.Eval.row [ ("D_GPA", V.real gpa); ("D_Name", V.str name) ])
        in
        check (Alcotest.list Alcotest.string) "three distinct rows"
          [ student "Ann" 3.1234561; student "Ben" 2.5; student "Ann" 3.1234569 ]
          (List.map exact_row rows));
    tc "the outer union keeps one of rows whose values are equal" (fun () ->
        (* an Int and an equal Real are one value, as Value.equal says *)
        let rows =
          global_rows (close_gpas (V.int 3) (V.real 3.)) "select * from Student"
        in
        check (Alcotest.list Alcotest.string) "sc1's Ann and Ben; sc2's Ann dropped"
          [ "D_GPA=3, D_Name=\"Ann\""; "D_GPA=0x1.4p+1, D_Name=\"Ben\"" ]
          (List.map exact_row rows));
    tc "a global query naming an attribute its class lacks is unmapped"
      (fun () ->
        List.iter
          (fun (text, expected) ->
            check Alcotest.string text expected (unmapped_message text))
          [
            ( "select Name from Student",
              "attribute Name is not in the integrated object class Student" );
            ( "select * from Student where GPA > 1",
              "attribute GPA is not in the integrated object class Student" );
            ( "select D_Name from Student via E_Stud_Majo to E_Department select Name",
              "attribute Name is not in the integrated object class E_Department" );
            ( "select D_Name from Student via E_Stud_Majo to E_Department select \
               D_Name target where Name = 'CS'",
              "attribute Name is not in the integrated object class E_Department" );
            ( "select D_Name from Student via E_Stud_Majo with Since to E_Department",
              "attribute Since is not in the integrated relationship set E_Stud_Majo" );
          ];
        (* a descendant's attribute is in its ancestor's answer *)
        let r = Lazy.force paper in
        check Alcotest.int "Support_type on Student unfolds" 2
          (List.length
             (Query.Rewrite.to_components r.Integrate.Result.mapping
                ~integrated:r.Integrate.Result.schema
                (Query.Parser.query_of_string
                   "select Support_type from Student where Support_type = 'RA'"))));
  ]

(* A global [where] keeps the evaluator's semantics through unfolding:
   [select S from C where p] answers exactly the rows of
   [select S from C] that satisfy [p] under [Eval.matches], for [p]
   over the attributes of [S] comparing with stored values and null,
   also where a component lacks an attribute of [S]. *)
let filtered_sessions =
  lazy
    (let r = Lazy.force paper in
     let paper_stores =
       Instance.Loader.load_file
         ~schemas:[ Workload.Paper.sc1; Workload.Paper.sc2 ]
         (example "paper_instances.ecd")
     in
     ("paper", r, paper_stores)
     :: List.map
          (fun seed ->
            let session, _ = scenario_federation seed in
            ( Printf.sprintf "seed %d" seed,
              session.Server.result,
              session.Server.component_stores ))
          [ 7; 42 ])

let random_filter st integrated values =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let cls = (pick (Schema.objects integrated)).Object_class.name in
  let attrs =
    List.sort_uniq Name.compare
      (List.concat_map
         (fun c -> Attribute.names (Schema.all_attributes integrated c))
         (cls :: Schema.descendants integrated cls))
  in
  let select = List.filter (fun _ -> Random.State.int st 3 > 0) attrs in
  let select = if select = [] then [ pick attrs ] else select in
  let rec pred depth =
    match Random.State.int st (if depth = 0 then 1 else 5) with
    | 0 | 1 ->
        Query.Ast.Atom
          (pick select, pick Query.Ast.[ Eq; Ne; Lt; Le; Gt; Ge ], pick values)
    | 2 -> Query.Ast.And (pred (depth - 1), pred (depth - 1))
    | 3 -> Query.Ast.Or (pred (depth - 1), pred (depth - 1))
    | _ -> Query.Ast.Not (pred (depth - 1))
  in
  ({ Query.Ast.from_class = cls; where = None; select; via = None }, pred 2)

let filter_tests =
  [
    qtest ~count:20 "a global where answers the rows of the unfiltered answer it selects"
      QCheck.small_nat (fun seed ->
        List.for_all
          (fun (what, r, stores) ->
            let integrated = r.Integrate.Result.schema in
            let run q =
              Query.Rewrite.run_global r.Integrate.Result.mapping ~integrated
                ~stores:(List.map (fun (s, st) -> (Schema.name s, st)) stores)
                q
            in
            let st = Random.State.make [| seed |] in
            let values = V.Null :: random_values st stores in
            List.for_all
              (fun (q, p) ->
                let selected = run { q with Query.Ast.where = Some p } in
                let expected =
                  List.filter
                    (fun row -> Query.Eval.matches (fun a -> Name.Map.find a row) p)
                    (run q)
                in
                List.map exact_row selected = List.map exact_row expected
                || QCheck.Test.fail_reportf "%s: %s answers %d rows, %d expected" what
                     (Query.Ast.to_string { q with Query.Ast.where = Some p })
                     (List.length selected) (List.length expected))
              (List.init 25 (fun _ -> random_filter st integrated values)))
          (Lazy.force filtered_sessions));
  ]

let () =
  Alcotest.run "query"
    [
      ("eval", eval_tests);
      ("rewrite", rewrite_tests);
      ("migrate", migrate_tests);
      ("differential", query_differential_tests);
      ("plans", plan_tests);
      ("filters", filter_tests);
    ]
