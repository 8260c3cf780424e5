(* Tests for update (transaction) operations and their translation. *)

open Ecr
module S = Instance.Store
module V = Instance.Value

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let store () =
  let st = S.create Workload.Paper.sc1 in
  let student name gpa = S.tuple [ ("Name", V.str name); ("GPA", V.real gpa) ] in
  let st, ann = S.insert (Name.v "Student") (student "Ann" 3.9) st in
  let st, _ = S.insert (Name.v "Student") (student "Ben" 2.5) st in
  let st, cs = S.insert (Name.v "Department") (S.tuple [ ("Name", V.str "CS") ]) st in
  let st = S.relate (Name.v "Majors") [ ann; cs ] Name.Map.empty st in
  st

let direct_tests =
  [
    tc "insert adds to the extent" (fun () ->
        let st, n =
          Query.Update.apply
            (Query.Update.insert "Student"
               [ ("Name", V.str "Cyd"); ("GPA", V.real 3.0) ])
            (store ())
        in
        check Alcotest.int "one row" 1 n;
        check Alcotest.int "three students" 3 (S.cardinality_of (Name.v "Student") st));
    tc "delete removes matching entities and their links" (fun () ->
        let st, n =
          Query.Update.apply
            (Query.Update.delete "Student"
               ~where:Query.Ast.(atom "Name" Eq (V.str "Ann")))
            (store ())
        in
        check Alcotest.int "one deleted" 1 n;
        check Alcotest.int "one student left" 1 (S.cardinality_of (Name.v "Student") st);
        check Alcotest.int "her majors link is gone" 0
          (List.length (S.links (Name.v "Majors") st)));
    tc "delete without a predicate clears the class" (fun () ->
        let st, n = Query.Update.apply (Query.Update.delete "Student") (store ()) in
        check Alcotest.int "both deleted" 2 n;
        check Alcotest.int "empty" 0 (S.cardinality_of (Name.v "Student") st));
    tc "modify updates matching entities only" (fun () ->
        let st, n =
          Query.Update.apply
            (Query.Update.modify "Student"
               ~where:Query.Ast.(atom "GPA" Lt (V.real 3.0))
               [ ("GPA", V.real 3.0) ])
            (store ())
        in
        check Alcotest.int "one updated" 1 n;
        let rows =
          Query.Eval.run
            Query.Ast.(query "Student" ~where:(atom "GPA" Ge (V.real 3.0)))
            st
        in
        check Alcotest.int "both qualify now" 2 (List.length rows));
    tc "unknown class or attribute raise" (fun () ->
        (match Query.Update.apply (Query.Update.delete "Ghost") (store ()) with
        | exception Query.Update.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
        match
          Query.Update.apply
            (Query.Update.insert "Student" [ ("Ghost", V.int 1) ])
            (store ())
        with
        | exception Query.Update.Error _ -> ()
        | _ -> Alcotest.fail "expected error");
  ]

let translation_tests =
  [
    tc "insert through a view lands in the integrated class" (fun () ->
        let r = Workload.Paper.integrate_sc1_sc2 () in
        let integrated = S.create r.Integrate.Result.schema in
        let op =
          Query.Update.insert "Grad_student"
            [ ("Name", V.str "Zoe"); ("GPA", V.real 3.7); ("Support_type", V.str "TA") ]
        in
        let op' =
          Query.Update.to_integrated r.Integrate.Result.mapping
            ~view:Workload.Paper.sc2 op
        in
        check Alcotest.bool "renamed attrs" true
          (Util.contains ~needle:"D_Name" (Query.Update.to_string op'));
        let st, n = Query.Update.apply op' integrated in
        check Alcotest.int "inserted" 1 n;
        check Alcotest.int "visible as grad" 1
          (S.cardinality_of (Name.v "Grad_student") st);
        (* and through the category chain, as a student and in the D node *)
        check Alcotest.int "visible as student" 1
          (S.cardinality_of (Name.v "Student") st);
        check Alcotest.int "visible in D_Stud_Facu" 1
          (S.cardinality_of (Name.v "D_Stud_Facu") st));
    tc "view delete translates its predicate" (fun () ->
        let r = Workload.Paper.integrate_sc1_sc2 () in
        let op =
          Query.Update.delete "Student"
            ~where:Query.Ast.(atom "Name" Eq (V.str "Ann"))
        in
        let op' =
          Query.Update.to_integrated r.Integrate.Result.mapping
            ~view:Workload.Paper.sc1 op
        in
        check Alcotest.string "full translation"
          "delete from Student where D_Name = \"Ann\""
          (Query.Update.to_string op'));
    tc "view update round trip on migrated data" (fun () ->
        let r = Workload.Paper.integrate_sc1_sc2 () in
        let st1 = store () in
        let merged, _ =
          Query.Migrate.run r.Integrate.Result.mapping
            ~integrated:r.Integrate.Result.schema
            [ (Workload.Paper.sc1, st1) ]
        in
        (* raise every student's GPA through the view mapping *)
        let op =
          Query.Update.modify "Student" [ ("GPA", V.real 4.0) ]
        in
        let op' =
          Query.Update.to_integrated r.Integrate.Result.mapping
            ~view:Workload.Paper.sc1 op
        in
        let merged, n = Query.Update.apply op' merged in
        check Alcotest.int "both updated" 2 n;
        let q =
          Query.Ast.(query "Student" ~where:(atom "D_GPA" Eq (V.real 4.0)))
        in
        check Alcotest.int "all 4.0" 2 (List.length (Query.Eval.run q merged)));
    tc "unmapped view class raises" (fun () ->
        let r = Workload.Paper.integrate_sc1_sc2 () in
        match
          Query.Update.to_integrated r.Integrate.Result.mapping
            ~view:Workload.Paper.sc3
            (Query.Update.delete "Instructor")
        with
        | exception Query.Rewrite.Unmapped _ -> ()
        | _ -> Alcotest.fail "expected Unmapped");
    tc "view-update side effect is visible to other views" (fun () ->
        (* delete a department through sc1's view; sc2's view of the same
           merged department disappears too -- the classic view-update
           effect, here made explicit *)
        let r = Workload.Paper.integrate_sc1_sc2 () in
        let st1 = store () in
        let st2 = S.create Workload.Paper.sc2 in
        let st2, _ =
          S.insert (Name.v "Department") (S.tuple [ ("Name", V.str "CS") ]) st2
        in
        let merged, _ =
          Query.Migrate.run r.Integrate.Result.mapping
            ~integrated:r.Integrate.Result.schema
            [ (Workload.Paper.sc1, st1); (Workload.Paper.sc2, st2) ]
        in
        let op =
          Query.Update.delete "Department"
            ~where:Query.Ast.(atom "Name" Eq (V.str "CS"))
        in
        let op' =
          Query.Update.to_integrated r.Integrate.Result.mapping
            ~view:Workload.Paper.sc1 op
        in
        let merged, n = Query.Update.apply op' merged in
        check Alcotest.int "one merged department deleted" 1 n;
        check Alcotest.int "gone for everyone" 0
          (S.cardinality_of (Name.v "E_Department") merged));
  ]

(* ---- writes select the entities reads select --------------------- *)

let example f =
  Filename.concat (Filename.dirname Sys.executable_name) ("../../../examples/data/" ^ f)

(* The paper's instances, the store they migrate to, and a scenario
   federation's component stores. *)
let stores =
  let r = Workload.Paper.integrate_sc1_sc2 () in
  let paper =
    Instance.Loader.load_file
      ~schemas:[ Workload.Paper.sc1; Workload.Paper.sc2 ]
      (example "paper_instances.ecd")
  in
  let merged, _ =
    Query.Migrate.run r.Integrate.Result.mapping
      ~integrated:r.Integrate.Result.schema paper
  in
  let scenario =
    (Workload.Scenario.generate { Workload.Scenario.default_params with seed = 7 })
      .Workload.Scenario.stores
  in
  Array.of_list (List.map snd paper @ [ merged ] @ List.map snd scenario)

(* A store, one of its classes, a [where] over the class's attributes
   comparing with values the store holds and with null, and an
   assignment to make. *)
let write_case =
  let open QCheck.Gen in
  let* st = oneofa stores in
  let schema = S.schema st in
  let* cls = oneofl (List.map (fun oc -> oc.Object_class.name) (Schema.objects schema)) in
  let attrs = Attribute.names (Schema.all_attributes schema cls) in
  let values =
    V.Null :: V.int 3 :: V.str "Ann"
    :: List.concat_map
         (fun oid -> List.map (fun a -> S.value oid a st) attrs)
         (S.Oid.Set.elements (S.extent cls st))
  in
  let rec pred depth =
    let atom =
      map3 (fun a cmp v -> Query.Ast.Atom (a, cmp, v)) (oneofl attrs)
        (oneofl Query.Ast.[ Eq; Ne; Lt; Le; Gt; Ge ])
        (oneofl values)
    in
    let leaf = if attrs = [] then map (fun b -> Query.Ast.Const b) bool else atom in
    if depth = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          (1, map2 (fun p q -> Query.Ast.And (p, q)) (pred (depth - 1)) (pred (depth - 1)));
          (1, map2 (fun p q -> Query.Ast.Or (p, q)) (pred (depth - 1)) (pred (depth - 1)));
          (1, map (fun p -> Query.Ast.Not p) (pred (depth - 1)));
        ]
  in
  let* p = pred 2 in
  let+ set = if attrs = [] then return None else map Option.some (pair (oneofl attrs) (oneofl values)) in
  (st, cls, p, set)

let print_case (st, cls, p, _) =
  Format.asprintf "%s: %s where %a"
    (Name.to_string (Schema.name (S.schema st)))
    (Name.to_string cls) Query.Ast.pp_pred p

let rows st cls where =
  Query.Eval.run { Query.Ast.from_class = cls; where; select = []; via = None } st

let semantics_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500
         ~name:"delete and modify affect exactly the entities a read selects"
         (QCheck.make ~print:print_case write_case)
         (fun ((st, cls, p, set) as case) ->
           let chosen = rows st cls (Some p)
           and rest = rows st cls (Some (Query.Ast.Not p)) in
           let after_delete, deleted =
             Query.Update.apply (Query.Update.Delete (cls, Some p)) st
           in
           let modified_ok =
             match set with
             | None -> true
             | Some (a, v) ->
                 let after, modified =
                   Query.Update.apply (Query.Update.Modify (cls, Some p, [ (a, v) ])) st
                 in
                 modified = List.length chosen
                 && Query.Eval.same_answers (rows after cls None)
                      (rest @ List.map (Name.Map.add a v) chosen)
           in
           (deleted = List.length chosen
           && Query.Eval.same_answers (rows after_delete cls None) rest
           && modified_ok)
           || QCheck.Test.fail_reportf "%s: %d read, %d deleted" (print_case case)
                (List.length chosen) deleted));
  ]

let () =
  Alcotest.run "update"
    [
      ("direct", direct_tests);
      ("translation", translation_tests);
      ("semantics", semantics_tests);
    ]
