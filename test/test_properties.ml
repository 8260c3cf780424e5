(* Property-based tests (QCheck, registered as alcotest cases).

   The heart of the suite: the assertion algebra is tested against its
   set-theoretic semantics on random finite extents, the matrix is shown
   never to reject truthful assertion sequences, integration invariants
   are checked on random generated workloads, and query rewriting is
   shown answer-preserving on random selections. *)

open Ecr
open Integrate

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Random finite extents over a small universe.                        *)

let extent_gen =
  (* non-empty subsets of 0..7, so relations of every kind occur often *)
  QCheck.Gen.(
    map
      (fun bits -> List.filter (fun i -> (bits lsr i) land 1 = 1) [ 0; 1; 2; 3; 4; 5; 6; 7 ])
      (int_range 1 255))

let extent = QCheck.make ~print:(fun l -> QCheck.Print.(list int) l) extent_gen

let rel_algebra_props =
  [
    qtest "composition table is sound for set semantics"
      QCheck.(triple extent extent extent)
      (fun (a, b, c) ->
        let r_ab = Rel.basic_of_extents Int.equal a b in
        let r_bc = Rel.basic_of_extents Int.equal b c in
        let r_ac = Rel.basic_of_extents Int.equal a c in
        Rel.mem r_ac (Rel.compose_basic r_ab r_bc));
    qtest "converse agrees with swapping the extents"
      QCheck.(pair extent extent)
      (fun (a, b) ->
        let r_ab = Rel.basic_of_extents Int.equal a b in
        let r_ba = Rel.basic_of_extents Int.equal b a in
        Rel.equal (Rel.of_basic r_ba) (Rel.converse (Rel.of_basic r_ab)));
    qtest "exactly one basic relation holds"
      QCheck.(pair extent extent)
      (fun (a, b) ->
        let r = Rel.basic_of_extents Int.equal a b in
        Rel.cardinal (Rel.of_basic r) = 1);
    qtest "intersection with the truth is never empty"
      QCheck.(triple extent extent extent)
      (fun (a, b, c) ->
        (* any chain of compositions keeps the true relation inside *)
        let r_ab = Rel.of_basic (Rel.basic_of_extents Int.equal a b) in
        let r_bc = Rel.of_basic (Rel.basic_of_extents Int.equal b c) in
        let truth = Rel.of_basic (Rel.basic_of_extents Int.equal a c) in
        not (Rel.is_empty (Rel.inter (Rel.compose r_ab r_bc) truth)));
  ]

(* ------------------------------------------------------------------ *)
(* Truthful assertion sequences are always accepted.                   *)

(* Generate k classes with random extents, declare a random subset of
   the true pairwise assertions in random order: the matrix must accept
   every one of them (they are simultaneously satisfiable by
   construction). *)
let truthful_session_gen =
  QCheck.Gen.(
    let* k = int_range 3 6 in
    let* extents = list_repeat k extent_gen in
    let* order = shuffle_l (List.init k Fun.id) in
    let* keep = list_repeat (k * k) bool in
    return (extents, order, keep))

let truthful_session =
  QCheck.make
    ~print:(fun (extents, _, _) -> QCheck.Print.(list (list int)) extents)
    truthful_session_gen

let assertion_of_extents a b =
  match Rel.basic_of_extents Int.equal a b with
  | Rel.Eq -> Assertion.Equal
  | Rel.Lt -> Assertion.Contained_in
  | Rel.Gt -> Assertion.Contains
  | Rel.Ov -> Assertion.May_be
  | Rel.Dj -> Assertion.Disjoint_integrable

let matrix_props =
  [
    qtest ~count:100 "truthful sessions never conflict" truthful_session
      (fun (extents, order, keep) ->
        let k = List.length extents in
        let schemas =
          List.init k (fun i ->
              Schema.make
                (Name.v (Printf.sprintf "s%d" i))
                ~objects:[ Object_class.entity (Name.v "C") ]
                ~relationships:[])
        in
        let cls i = Qname.v (Printf.sprintf "s%d" i) "C" in
        let ext i = List.nth extents i in
        let pairs =
          List.concat_map
            (fun i -> List.filter_map (fun j -> if i < j then Some (i, j) else None) order)
            order
        in
        let pairs =
          List.filteri (fun idx _ -> List.nth keep (idx mod List.length keep)) pairs
        in
        let rec apply m = function
          | [] -> true
          | (i, j) :: rest -> (
              match
                Assertions.add (cls i)
                  (assertion_of_extents (ext i) (ext j))
                  (cls j) m
              with
              | Ok m -> apply m rest
              | Error _ -> false)
        in
        apply (Assertions.create schemas) pairs);
    qtest ~count:100 "derived singletons are true" truthful_session
      (fun (extents, order, _) ->
        (* assert the full truth along a chain, then check that every
           derived singleton cell matches the extent relation *)
        ignore order;
        let k = List.length extents in
        let schemas =
          List.init k (fun i ->
              Schema.make
                (Name.v (Printf.sprintf "s%d" i))
                ~objects:[ Object_class.entity (Name.v "C") ]
                ~relationships:[])
        in
        let cls i = Qname.v (Printf.sprintf "s%d" i) "C" in
        let ext i = List.nth extents i in
        let m =
          List.fold_left
            (fun m i ->
              match
                Assertions.add (cls i)
                  (assertion_of_extents (ext i) (ext (i + 1)))
                  (cls (i + 1)) m
              with
              | Ok m -> m
              | Error _ -> m)
            (Assertions.create schemas)
            (List.init (k - 1) Fun.id)
        in
        List.for_all
          (fun (l, r, derived) ->
            let index q =
              let n = Name.to_string q.Qname.schema in
              int_of_string (String.sub n 1 (String.length n - 1))
            in
            let i = index l and j = index r in
            let truth = Rel.basic_of_extents Int.equal (ext i) (ext j) in
            Rel.mem truth (Rel.of_assertion derived))
          (Assertions.derived_assertions m));
  ]

(* ------------------------------------------------------------------ *)
(* Integration invariants on random workloads.                         *)

let params_gen =
  QCheck.Gen.(
    let* seed = int_range 0 10_000 in
    let* concepts = int_range 6 16 in
    let* coverage = float_range 0.5 1.0 in
    let* noise = float_range 0.0 0.5 in
    return
      {
        Workload.Generator.default_params with
        seed;
        concepts;
        coverage;
        naming_noise = noise;
        population = 120;
      })

let params =
  QCheck.make
    ~print:(fun p ->
      Printf.sprintf "seed=%d concepts=%d coverage=%f noise=%f"
        p.Workload.Generator.seed p.Workload.Generator.concepts
        p.Workload.Generator.coverage p.Workload.Generator.naming_noise)
    params_gen

let run_workload p =
  let w = Workload.Generator.generate p in
  let result, _ = Protocol.run w.Workload.Generator.schemas w.Workload.Generator.oracle in
  (w, result)

(* Workloads the property above once drew that integrated to an invalid
   schema: a derived D_ set relating a class to its own subclass widened
   both participants to the same ancestor, with no roles to tell them
   apart.  Pinned so the fix is exercised on every run, not one in 80. *)
let pinned_invalid_workloads =
  [
    (7719, 7, 0.890105, 0.488560);
    (9106, 7, 0.973234, 0.364101);
    (7782, 8, 0.826889, 0.248440);
    (4127, 8, 0.996591, 0.197784);
  ]

let integration_props =
  [
    Alcotest.test_case "pinned workloads integrate to valid schemas" `Quick
      (fun () ->
        List.iter
          (fun (seed, concepts, coverage, noise) ->
            let _, result =
              run_workload
                {
                  Workload.Generator.default_params with
                  seed;
                  concepts;
                  coverage;
                  naming_noise = noise;
                  population = 120;
                }
            in
            Alcotest.(check (list string))
              (Printf.sprintf "seed %d validates" seed)
              []
              (List.map Schema.error_to_string
                 (Schema.validate result.Result.schema)))
          pinned_invalid_workloads);
    qtest ~count:40 "integrated schemas always validate" params
      (fun p ->
        let _, result = run_workload p in
        Schema.validate result.Result.schema = []);
    qtest ~count:40 "every component class is mapped" params
      (fun p ->
        let w, result = run_workload p in
        List.for_all
          (fun s ->
            List.for_all
              (fun oc ->
                Mapping.object_entry (Schema.qname s oc.Object_class.name)
                  result.Result.mapping
                <> None)
              (Schema.objects s))
          w.Workload.Generator.schemas);
    qtest ~count:40 "every component attribute lands exactly once" params
      (fun p ->
        let w, result = run_workload p in
        List.for_all
          (fun s ->
            List.for_all
              (fun oc ->
                List.for_all
                  (fun (a : Attribute.t) ->
                    let qa =
                      Qname.Attr.make
                        (Schema.qname s oc.Object_class.name)
                        a.Attribute.name
                    in
                    let occurrences =
                      Name.Map.fold
                        (fun _ attrs acc ->
                          Name.Map.fold
                            (fun _ comps acc ->
                              acc
                              + List.length
                                  (List.filter (Qname.Attr.equal qa) comps))
                            attrs acc)
                        result.Result.attr_components 0
                    in
                    occurrences = 1)
                  oc.Object_class.attributes)
              (Schema.objects s))
          w.Workload.Generator.schemas);
    qtest ~count:40 "true equal pairs end up in the same integrated class"
      params
      (fun p ->
        let w, result = run_workload p in
        List.for_all
          (fun (a, b) ->
            Mapping.object_target a result.Result.mapping
            = Mapping.object_target b result.Result.mapping)
          w.Workload.Generator.true_pairs);
    qtest ~count:25 "migrated instances satisfy ECR integrity" params
      (fun p ->
        let w, result = run_workload p in
        let stores = Workload.Generator.populate w in
        let merged, _ =
          Query.Migrate.run result.Result.mapping
            ~integrated:result.Result.schema stores
        in
        Instance.Store.check merged = []);
    qtest ~count:25 "view selections survive rewriting onto the instance"
      params
      (fun p ->
        (* The translated query runs over the integrated extent, which
           may legitimately be broader than the view's (e.g. when the
           class was asserted to *contain* another view's class), so the
           property is multiset containment: every view answer appears
           at least as often among the integrated answers. *)
        let multiset_subset small big =
          let count rows r =
            List.length (List.filter (fun r' -> Name.Map.equal Instance.Value.equal r r') rows)
          in
          List.for_all (fun r -> count small r <= count big r) small
        in
        let w, result = run_workload p in
        let stores = Workload.Generator.populate w in
        let merged, _ =
          Query.Migrate.run result.Result.mapping
            ~integrated:result.Result.schema stores
        in
        List.for_all
          (fun (s, st) ->
            List.for_all
              (fun oc ->
                let view_q =
                  Query.Ast.query (Name.to_string oc.Object_class.name)
                in
                let q', back =
                  Query.Rewrite.to_integrated result.Result.mapping ~view:s
                    view_q
                in
                multiset_subset (Query.Eval.run view_q st)
                  (back (Query.Eval.run q' merged)))
              (Schema.objects s))
          stores);
  ]

(* ------------------------------------------------------------------ *)
(* Miscellaneous data-structure properties.                            *)

let ident_gen =
  QCheck.Gen.(
    map
      (fun (c, rest) ->
        String.make 1 c ^ String.concat "" (List.map (String.make 1) rest))
      (pair (char_range 'a' 'z') (small_list (char_range 'a' 'z'))))

let ident = QCheck.make ~print:Fun.id ident_gen

let misc_props =
  [
    qtest "levenshtein is symmetric" (QCheck.pair ident ident) (fun (a, b) ->
        Heuristics.Strings.levenshtein a b = Heuristics.Strings.levenshtein b a);
    qtest "levenshtein triangle inequality"
      (QCheck.triple ident ident ident)
      (fun (a, b, c) ->
        Heuristics.Strings.levenshtein a c
        <= Heuristics.Strings.levenshtein a b + Heuristics.Strings.levenshtein b c);
    qtest "similarity scores stay in the unit interval"
      (QCheck.pair ident ident)
      (fun (a, b) ->
        let checks =
          [
            Heuristics.Strings.levenshtein_similarity a b;
            Heuristics.Strings.dice_bigrams a b;
            Heuristics.Strings.jaro a b;
            Heuristics.Strings.jaro_winkler a b;
            Heuristics.Strings.token_overlap a b;
            Heuristics.Strings.name_similarity a b;
          ]
        in
        List.for_all (fun x -> x >= 0.0 && x <= 1.0 +. 1e-9) checks);
    qtest "cardinality union includes both operands"
      (QCheck.pair (QCheck.make QCheck.Gen.(pair (int_range 0 3) (int_range 1 5)))
         (QCheck.make QCheck.Gen.(pair (int_range 0 3) (int_range 1 5))))
      (fun ((a1, a2), (b1, b2)) ->
        QCheck.assume (a1 <= a2 && b1 <= b2);
        let ca = Cardinality.make a1 (Cardinality.Finite a2)
        and cb = Cardinality.make b1 (Cardinality.Finite b2) in
        let u = Cardinality.union ca cb in
        Cardinality.includes u ca && Cardinality.includes u cb);
    qtest ~count:60 "DDL round-trips on generated schemas" params (fun p ->
        let w = Workload.Generator.generate p in
        List.for_all
          (fun s ->
            Schema.equal s (Ddl.Parser.schema_of_string (Ddl.Printer.to_string s)))
          w.Workload.Generator.schemas);
    qtest "equivalence declare is idempotent and symmetric"
      (QCheck.pair ident ident)
      (fun (x, y) ->
        QCheck.assume (Name.is_valid x && Name.is_valid y);
        let qa = Qname.Attr.v "s" "A" x and qb = Qname.Attr.v "t" "B" y in
        let eq1 = Equivalence.declare qa qb Equivalence.empty in
        let eq2 = Equivalence.declare qb qa (Equivalence.declare qa qb Equivalence.empty) in
        Equivalence.equivalent qa qb eq1
        && Equivalence.equivalent qa qb eq2
        && Equivalence.class_of qa eq1 = Equivalence.class_of qa eq2);
  ]

(* ------------------------------------------------------------------ *)
(* Persistence round-trips on generated workloads.                     *)

(* Random DDA sessions over the paper's sc1 and sc2, as Op.t sequences:
   whole schemas, schema edits that delete up to two structures (a
   deleted class that a relationship or category still names makes the
   edit invalid), object and relationship facts between the two
   schemas (some naming a deleted structure), and schema removals. *)
let session_ops =
  let sc1, sc2 = (Workload.Paper.sc1, Workload.Paper.sc2) in
  let schemas = [ sc1; sc2 ] in
  let structure_name = function
    | Schema.Obj oc -> oc.Object_class.name
    | Schema.Rel r -> r.Relationship.name
  in
  let objects s =
    List.map (fun oc -> Schema.qname s oc.Object_class.name) (Schema.objects s)
  in
  let relationships s =
    List.map (fun r -> Schema.qname s r.Relationship.name) (Schema.relationships s)
  in
  let open QCheck.Gen in
  let assertion = map (fun c -> Option.get (Assertion.of_code c)) (int_bound 5) in
  let fact make pool1 pool2 =
    map3
      (fun (a, b) c swap -> if swap then make b c a else make a c b)
      (pair (oneofl pool1) (oneofl pool2))
      assertion bool
  in
  let edit =
    oneofl schemas >>= fun s ->
    list_size (int_bound 2) (oneofl (List.map structure_name (Schema.structures s)))
    >|= fun dropped ->
    Op.Add_schema (List.fold_left (fun s n -> Schema.remove_structure n s) s dropped)
  in
  let op =
    frequency
      [
        (2, map (fun s -> Op.Add_schema s) (oneofl schemas));
        (3, edit);
        (4, fact (fun a c b -> Op.Assert_object (a, c, b)) (objects sc1) (objects sc2));
        ( 2,
          fact
            (fun a c b -> Op.Assert_relationship (a, c, b))
            (relationships sc1) (relationships sc2) );
        (1, map (fun s -> Op.Remove_schema (Schema.name s)) (oneofl schemas));
      ]
  in
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map Op.describe ops))
    (list_size (int_range 1 12) op)

let persistence_props =
  [
    qtest ~count:30 "dictionary round-trips generated sessions" params
      (fun p ->
        let w = Workload.Generator.generate p in
        (* record a session through the workspace *)
        let ws =
          List.fold_left
            (fun ws s -> Workspace.add_schema s ws)
            Workspace.empty w.Workload.Generator.schemas
        in
        let ws =
          (* declare the true attribute equivalences for every same-concept
             class pair *)
          List.fold_left
            (fun ws (c1, c2) ->
              let attrs q =
                match
                  List.find_opt
                    (fun s -> Name.equal (Schema.name s) q.Qname.schema)
                    w.Workload.Generator.schemas
                with
                | Some s -> (
                    match Schema.find_object q.Qname.obj s with
                    | Some oc ->
                        List.map
                          (fun (at : Attribute.t) ->
                            Qname.Attr.make q at.Attribute.name)
                          oc.Object_class.attributes
                    | None -> [])
                | None -> []
              in
              List.fold_left
                (fun ws qa1 ->
                  List.fold_left
                    (fun ws qa2 ->
                      match
                        ( w.Workload.Generator.attr_id qa1,
                          w.Workload.Generator.attr_id qa2 )
                      with
                      | Some x, Some y when x = y ->
                          Workspace.declare_equivalent qa1 qa2 ws
                      | _ -> ws)
                    ws (attrs c2))
                ws (attrs c1))
            ws w.Workload.Generator.true_pairs
        in
        let ws =
          List.fold_left
            (fun ws (l, r, a) ->
              match Workspace.assert_object l a r ws with
              | Ok ws -> ws
              | Error _ -> ws)
            ws w.Workload.Generator.related_pairs
        in
        let ws' = Dictionary.of_string (Dictionary.to_string ws) in
        List.length (Workspace.schemas ws) = List.length (Workspace.schemas ws')
        && List.length (Workspace.object_facts ws)
           = List.length (Workspace.object_facts ws')
        && Schema.equal (Workspace.integrate ws).Result.schema
             (Workspace.integrate ws').Result.schema);
    qtest ~count:30 "instance text round-trips populated stores" params
      (fun p ->
        let w = Workload.Generator.generate p in
        List.for_all
          (fun (schema, st) ->
            let text = Instance.Loader.to_string schema st in
            match Instance.Loader.load_string ~schemas:[ schema ] text with
            | [ (_, st') ] ->
                List.for_all
                  (fun oc ->
                    let q = Query.Ast.query (Name.to_string oc.Object_class.name) in
                    Query.Eval.same_answers (Query.Eval.run q st)
                      (Query.Eval.run q st'))
                  (Schema.objects schema)
            | _ -> false)
          (Workload.Generator.populate w));
    qtest ~count:50 "matrix propagation is idempotent" truthful_session
      (fun (extents, _, _) ->
        let k = List.length extents in
        let schemas =
          List.init k (fun i ->
              Schema.make
                (Name.v (Printf.sprintf "s%d" i))
                ~objects:[ Object_class.entity (Name.v "C") ]
                ~relationships:[])
        in
        let cls i = Qname.v (Printf.sprintf "s%d" i) "C" in
        let ext i = List.nth extents i in
        let m =
          List.fold_left
            (fun m i ->
              match
                Assertions.add (cls i)
                  (assertion_of_extents (ext i) (ext (i + 1)))
                  (cls (i + 1)) m
              with
              | Ok m -> m
              | Error _ -> m)
            (Assertions.create schemas)
            (List.init (k - 1) Fun.id)
        in
        (* re-adding every determined cell's assertion changes nothing *)
        List.for_all
          (fun (l, r, a) ->
            match Assertions.add l a r m with
            | Ok m' ->
                Assertions.asserted_count m' = Assertions.asserted_count m
                && Assertions.derived_count m' = Assertions.derived_count m
            | Error _ -> false)
          (Assertions.derived_assertions m));
    qtest "every workspace Op.apply reaches round-trips through the dictionary"
      session_ops (fun ops ->
        let round_trips ws =
          let text = Dictionary.to_string ws in
          match Dictionary.of_string text with
          | ws' -> String.equal text (Dictionary.to_string ws')
          | exception Dictionary.Error msg -> QCheck.Test.fail_report msg
        in
        let _, ok =
          List.fold_left
            (fun (ws, ok) op ->
              let ws = Op.apply op ws in
              (ws, ok && round_trips ws))
            (Workspace.empty, true) ops
        in
        ok);
  ]

(* ------------------------------------------------------------------ *)
(* Update-translation properties on generated workloads.               *)

let update_props =
  [
    qtest ~count:20 "translated inserts become visible to the view's query"
      params
      (fun p ->
        let w, result = run_workload p in
        let stores = Workload.Generator.populate w in
        let merged, _ =
          Query.Migrate.run result.Result.mapping
            ~integrated:result.Result.schema stores
        in
        List.for_all
          (fun (s, _) ->
            List.for_all
              (fun oc ->
                (* insert a fresh entity through the view mapping using
                   its key attribute, then query it back *)
                match Attribute.keys oc.Object_class.attributes with
                | key :: _ ->
                    let marker =
                      Instance.Value.Str
                        ("fresh_"
                        ^ Name.to_string (Schema.name s)
                        ^ "_"
                        ^ Name.to_string oc.Object_class.name)
                    in
                    let op =
                      Query.Update.Insert
                        ( oc.Object_class.name,
                          Name.Map.singleton key.Attribute.name marker )
                    in
                    let op' =
                      Query.Update.to_integrated result.Result.mapping ~view:s op
                    in
                    let merged, n = Query.Update.apply op' merged in
                    let view_q =
                      {
                        Query.Ast.from_class = oc.Object_class.name;
                        where =
                          Some (Query.Ast.Atom (key.Attribute.name, Query.Ast.Eq, marker));
                        select = [ key.Attribute.name ];
                        via = None;
                      }
                    in
                    let q', back =
                      Query.Rewrite.to_integrated result.Result.mapping ~view:s
                        view_q
                    in
                    n = 1 && List.length (back (Query.Eval.run q' merged)) = 1
                | [] -> true)
              (Schema.objects s))
          stores);
    qtest ~count:20 "translated unfiltered deletes empty the view's extent"
      params
      (fun p ->
        let w, result = run_workload p in
        let stores = Workload.Generator.populate w in
        let merged, _ =
          Query.Migrate.run result.Result.mapping
            ~integrated:result.Result.schema stores
        in
        match stores with
        | (s, _) :: _ ->
            List.for_all
              (fun oc ->
                let op = Query.Update.Delete (oc.Object_class.name, None) in
                let op' =
                  Query.Update.to_integrated result.Result.mapping ~view:s op
                in
                let merged, _ = Query.Update.apply op' merged in
                let view_q = Query.Ast.query (Name.to_string oc.Object_class.name) in
                let q', back =
                  Query.Rewrite.to_integrated result.Result.mapping ~view:s view_q
                in
                back (Query.Eval.run q' merged) = [])
              (Schema.objects s)
        | [] -> true);
  ]

let () =
  Alcotest.run "properties"
    [
      ("rel-algebra", rel_algebra_props);
      ("matrix", matrix_props);
      ("integration", integration_props);
      ("misc", misc_props);
      ("persistence", persistence_props);
      ("updates", update_props);
    ]
