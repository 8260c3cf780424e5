(* Cross-cutting regression tests that do not fit one module suite. *)

open Ecr
module S = Instance.Store
module V = Instance.Value

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

let cardinality_tests =
  [
    tc "pass-through minima relax when the node gains foreign extents" (fun () ->
        (* sc2's Works demands (1,N) of its departments; after merging
           departments with sc1's, the integrated class also carries
           sc1 departments that sc2 never governed, so the minimum
           relaxes to 0 while the maximum stays *)
        let r = Workload.Paper.integrate_sc1_sc2 () in
        match Schema.find_relationship (Name.v "Works") r.Integrate.Result.schema with
        | Some rel ->
            check (Alcotest.list Alcotest.string) "cards" [ "(1,N)"; "(0,N)" ]
              (List.map
                 (fun p -> Cardinality.to_string p.Relationship.card)
                 rel.Relationship.participants)
        | None -> Alcotest.fail "Works missing");
    tc "single-schema relationships keep their minima" (fun () ->
        (* no merging at all: nothing relaxes *)
        let r =
          match
            Integrate.Pipeline.quick Workload.Paper.sc1 Workload.Paper.sc3
              ~equivalences:[] ~object_assertions:[] ()
          with
          | Ok r -> r
          | Error _ -> Alcotest.fail "no conflict expected"
        in
        match Schema.find_relationship (Name.v "Majors") r.Integrate.Result.schema with
        | Some rel ->
            check Alcotest.string "(1,1) kept" "(1,1)"
              (Cardinality.to_string
                 (List.hd rel.Relationship.participants).Relationship.card)
        | None -> Alcotest.fail "Majors missing");
  ]

let workspace_tests =
  [
    tc "integrate_pair ignores the third schema" (fun () ->
        let ws =
          Integrate.Workspace.(
            add_schema Workload.Paper.sc3
              (add_schema Workload.Paper.sc2 (add_schema Workload.Paper.sc1 empty)))
        in
        let r =
          Integrate.Workspace.integrate_pair ~name:"pairwise" (Name.v "sc1")
            (Name.v "sc2") ws
        in
        check Alcotest.bool "no Instructor" false
          (Schema.mem (Name.v "Instructor") r.Integrate.Result.schema));
    tc "integrate_pair unknown schema raises" (fun () ->
        Alcotest.check_raises "not found" Not_found (fun () ->
            ignore
              (Integrate.Workspace.integrate_pair (Name.v "nope") (Name.v "sc1")
                 Integrate.Workspace.empty)));
    tc "integrate_pair works on every pair of a scenario federation"
      (fun () ->
        (* the 8-schema federation the benchmark serves: its script
           holds facts between every two schemas, which a pairwise
           integration must leave out rather than trip over *)
        let scn =
          Workload.Scenario.generate
            {
              Workload.Scenario.default_params with
              seed = 42;
              schemas = 8;
              concepts = 16;
              population = 200;
              views = 6;
            }
        in
        let ws =
          match
            Integrate.Script.apply scn.Workload.Scenario.directives
              (List.fold_left
                 (fun ws s -> Integrate.Workspace.add_schema s ws)
                 Integrate.Workspace.empty scn.Workload.Scenario.schemas)
          with
          | Ok ws -> ws
          | Error e -> Alcotest.fail (Integrate.Script.apply_error_to_string e)
        in
        let names = List.map Schema.name scn.Workload.Scenario.schemas in
        let pairs =
          List.concat_map
            (fun n1 ->
              List.filter_map
                (fun n2 -> if Name.compare n1 n2 < 0 then Some (n1, n2) else None)
                names)
            names
        in
        check Alcotest.int "28 pairs" 28 (List.length pairs);
        List.iter
          (fun (n1, n2) ->
            let label =
              Printf.sprintf "%s+%s" (Name.to_string n1) (Name.to_string n2)
            in
            let r =
              try Integrate.Workspace.integrate_pair n1 n2 ws
              with e -> Alcotest.failf "%s: %s" label (Printexc.to_string e)
            in
            let from_pair q =
              Name.equal q.Qname.schema n1 || Name.equal q.Qname.schema n2
            in
            let origin_ok = function
              | Integrate.Result.Original q -> from_pair q
              | Integrate.Result.Equivalent qs -> List.for_all from_pair qs
              | Integrate.Result.Derived _ -> true
            in
            check Alcotest.bool (label ^ " draws on the pair only") true
              (Name.Map.for_all
                 (fun _ o -> origin_ok o)
                 r.Integrate.Result.object_origin
              && Name.Map.for_all
                   (fun _ o -> origin_ok o)
                   r.Integrate.Result.relationship_origin))
          pairs);
  ]

let dot_tests =
  [
    tc "integrated schemas export to dot" (fun () ->
        let r = Workload.Paper.integrate_sc1_sc2 () in
        let dot = Dot.to_dot r.Integrate.Result.schema in
        check Alcotest.bool "digraph" true (Util.contains ~needle:"digraph" dot);
        check Alcotest.bool "isa edges" true (Util.contains ~needle:"isa" dot);
        check Alcotest.bool "diamond relationships" true
          (Util.contains ~needle:"diamond" dot);
        check Alcotest.bool "derived node present" true
          (Util.contains ~needle:"D_Stud_Facu" dot));
  ]

let loader_tests =
  [
    tc "relationship arity mismatch is reported with a line" (fun () ->
        let text = "instance sc1 {\n  Student { } as s\n  Majors (s)\n}" in
        match
          Instance.Loader.load_string ~schemas:[ Workload.Paper.sc1 ] text
        with
        | exception (Instance.Loader.Error { line; _ } as e) ->
            check Alcotest.int "line 3" 3 line;
            check Alcotest.bool ":3:" true
              (Util.contains ~needle:":3:" (Instance.Loader.error_to_string e))
        | _ -> Alcotest.fail "expected error");
  ]

let session_tests =
  [
    tc "equivalence task records classes through the screens" (fun () ->
        let ws =
          Integrate.Workspace.(
            add_schema Workload.Paper.sc2 (add_schema Workload.Paper.sc1 empty))
        in
        let script =
          [
            "2" (* task: equivalence for object classes *);
            "sc1";
            "sc2";
            "Student" (* object of first schema *);
            "Grad_student" (* object of second *);
            "a" (* add a pair *);
            "Name";
            "Name";
            "e" (* leave the editor *);
            "n" (* no other pair *);
            "e" (* main menu: exit *);
          ]
        in
        let io, _ = Tui.Session.scripted script in
        let final = Tui.Session.run ~workspace:ws io in
        check Alcotest.bool "equivalence recorded" true
          (Integrate.Equivalence.equivalent
             (Qname.Attr.v "sc1" "Student" "Name")
             (Qname.Attr.v "sc2" "Grad_student" "Name")
             (Integrate.Workspace.equivalence final)));
    tc "assertion task records assertions through the screens" (fun () ->
        let ws =
          Integrate.Workspace.(
            add_schema Workload.Paper.sc2 (add_schema Workload.Paper.sc1 empty))
        in
        let script =
          [ "3"; "sc1"; "sc2"; "1 1" (* pair #1 := equals *); "e"; "e" ]
        in
        let io, _ = Tui.Session.scripted script in
        let final = Tui.Session.run ~workspace:ws io in
        check Alcotest.int "one fact" 1
          (List.length (Integrate.Workspace.object_facts final)));
    tc "retract-and-modify through the assertion screen" (fun () ->
        let ws =
          Integrate.Workspace.(
            add_schema Workload.Paper.sc2 (add_schema Workload.Paper.sc1 empty))
        in
        (* answer pair #1 as equals, then change it to disjoint *)
        let script = [ "3"; "sc1"; "sc2"; "1 1"; "r 1"; "1 0"; "e"; "e" ] in
        let io, _ = Tui.Session.scripted script in
        let final = Tui.Session.run ~workspace:ws io in
        (match Integrate.Workspace.object_facts final with
        | [ (_, a, _) ] ->
            check Alcotest.bool "now disjoint" true
              (a = Integrate.Assertion.Disjoint_nonintegrable)
        | facts -> Alcotest.failf "expected one fact, got %d" (List.length facts)));
    tc "scrolling the assertion screen does not lose answers" (fun () ->
        let ws =
          Integrate.Workspace.(
            add_schema Workload.Paper.sc2 (add_schema Workload.Paper.sc1 empty))
        in
        let script = [ "3"; "sc1"; "sc2"; "s"; "1 1"; "e"; "e" ] in
        let io, _ = Tui.Session.scripted script in
        let final = Tui.Session.run ~workspace:ws io in
        check Alcotest.int "one fact" 1
          (List.length (Integrate.Workspace.object_facts final)));
  ]

let strategy_tests =
  [
    tc "binary ladder over the company databases stays valid" (fun () ->
        let session = Workload.Domains.company in
        let outcome =
          Integrate.Strategy.binary_ladder session.Workload.Domains.schemas
            (Workload.Domains.dda session)
        in
        check Alcotest.int "two steps" 2 outcome.Integrate.Strategy.steps;
        check (Alcotest.list Alcotest.string) "valid" []
          (List.map Schema.error_to_string
             (Schema.validate outcome.Integrate.Strategy.result.Integrate.Result.schema)));
  ]

let update_store_tests =
  [
    tc "remove_links filters by predicate" (fun () ->
        let st = S.create Workload.Paper.sc1 in
        let st, ann = S.insert (Name.v "Student") (S.tuple [ ("Name", V.str "Ann") ]) st in
        let st, cs = S.insert (Name.v "Department") (S.tuple [ ("Name", V.str "CS") ]) st in
        let st = S.relate (Name.v "Majors") [ ann; cs ] (S.tuple [ ("Since", V.date 2020 1 1) ]) st in
        let st = S.relate (Name.v "Majors") [ ann; cs ] (S.tuple [ ("Since", V.date 2021 1 1) ]) st in
        let st =
          S.remove_links (Name.v "Majors")
            (fun l ->
              not
                (V.equal
                   (Option.value ~default:V.Null
                      (Name.Map.find_opt (Name.v "Since") l.S.values))
                   (V.date 2020 1 1)))
            st
        in
        check Alcotest.int "one left" 1 (List.length (S.links (Name.v "Majors") st)));
    tc "remove_entity cascades to links" (fun () ->
        let st = S.create Workload.Paper.sc1 in
        let st, ann = S.insert (Name.v "Student") Name.Map.empty st in
        let st, cs = S.insert (Name.v "Department") Name.Map.empty st in
        let st = S.relate (Name.v "Majors") [ ann; cs ] Name.Map.empty st in
        let st = S.remove_entity ann st in
        check Alcotest.int "entity gone" 0 (S.cardinality_of (Name.v "Student") st);
        check Alcotest.int "link gone" 0 (List.length (S.links (Name.v "Majors") st)));
  ]

let () =
  Alcotest.run "misc"
    [
      ("cardinality-relaxation", cardinality_tests);
      ("workspace", workspace_tests);
      ("dot", dot_tests);
      ("loader", loader_tests);
      ("session", session_tests);
      ("strategies", strategy_tests);
      ("store-removal", update_store_tests);
    ]
