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

(* sc1 or sc2 with up to two structures deleted (a deleted class that
   a relationship or category still names makes the edit invalid). *)
let edited_paper_schema =
  let structure_name = function
    | Schema.Obj oc -> oc.Object_class.name
    | Schema.Rel r -> r.Relationship.name
  in
  QCheck.Gen.(
    oneofl [ Workload.Paper.sc1; Workload.Paper.sc2 ] >>= fun s ->
    list_size (int_bound 2) (oneofl (List.map structure_name (Schema.structures s)))
    >|= fun dropped ->
    List.fold_left (fun s n -> Schema.remove_structure n s) s dropped)

(* Random DDA sessions over the paper's sc1 and sc2, as Op.t sequences:
   whole schemas, schema edits, object and relationship facts between
   the two schemas (some naming a deleted structure), and schema
   removals. *)
let session_ops =
  let sc1, sc2 = (Workload.Paper.sc1, Workload.Paper.sc2) in
  let schemas = [ sc1; sc2 ] in
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
  let edit = map (fun s -> Op.Add_schema s) edited_paper_schema in
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
    ~print:(fun ops -> String.concat "; " (List.map Op.to_string ops))
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
(* Text formats read back what they print.                             *)

(* Names from the paper's schemas and a scenario federation's. *)
let text_schemas =
  lazy
    ([ Workload.Paper.sc1; Workload.Paper.sc2; Workload.Paper.sc3 ]
    @ (Workload.Scenario.generate Workload.Scenario.default_params)
        .Workload.Scenario.schemas)

let text_names =
  lazy
    (List.concat_map
       (fun s ->
         Schema.name s
         :: List.concat_map
              (function
                | Schema.Obj oc ->
                    oc.Object_class.name
                    :: List.map
                         (fun (a : Attribute.t) -> a.Attribute.name)
                         oc.Object_class.attributes
                | Schema.Rel r ->
                    r.Relationship.name
                    :: List.map
                         (fun (a : Attribute.t) -> a.Attribute.name)
                         r.Relationship.attributes)
              (Schema.structures s))
       (Lazy.force text_schemas)
    |> List.sort_uniq Name.compare)

(* One op of each of the nine kinds, over the names above and random
   identifiers, so malformed-looking but valid names are covered too. *)
let op_gen =
  let open QCheck.Gen in
  let name =
    oneof [ oneofl (Lazy.force text_names); map Name.v ident_gen ]
  in
  let qname = map2 Qname.make name name in
  let qattr = map2 Qname.Attr.make qname name in
  let assertion =
    map (fun c -> Option.get (Assertion.of_code c)) (int_bound 5)
  in
  oneof
    [
      map (fun s -> Op.Add_schema s)
        (oneof [ oneofl (Lazy.force text_schemas); edited_paper_schema ]);
      map (fun n -> Op.Remove_schema n) name;
      map2 (fun a b -> Op.Declare_equivalent (a, b)) qattr qattr;
      map (fun a -> Op.Separate_attribute a) qattr;
      map3 (fun a c b -> Op.Assert_object (a, c, b)) qname assertion qname;
      map3
        (fun a c b -> Op.Assert_relationship (a, c, b))
        qname assertion qname;
      map2 (fun a b -> Op.Retract_object (a, b)) qname qname;
      map2 (fun a b -> Op.Retract_relationship (a, b)) qname qname;
      map3 (fun a b n -> Op.Rename (a, b, Name.to_string n)) qname qname name;
    ]

let same_op a b =
  match (a, b) with
  | Op.Add_schema s, Op.Add_schema t -> Schema.equal s t
  | _ -> a = b

let value_gen =
  let open QCheck.Gen in
  let finite x = if Float.is_finite x then x else 0.5 in
  let real =
    oneof
      [
        oneofl
          [ -0.; 0.; 3.; -2.; 5e-324; 1e300; -1e300; 1e-5; 0.1 +. 0.2;
            3.1234567; 3.1234561; Float.max_float; Float.min_float ];
        float_range (-1e4) 1e4;
        map finite float;
      ]
  in
  (* no escapes: a string holds one kind of quote, and no '-', so it
     cannot look like a date *)
  let str =
    bool >>= fun double ->
    let quote = if double then '"' else '\'' in
    string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; ' '; ','; '.'; quote ]) (int_bound 8)
  in
  frequency
    [
      ( 2,
        map (fun n -> Instance.Value.Int n) (oneof [ small_signed_int; int ]) );
      (4, map (fun x -> Instance.Value.Real x) real);
      (2, map (fun s -> Instance.Value.Str s) str);
      ( 1,
        map3
          (fun y m d -> Instance.Value.Date (y, m, d))
          (int_bound 9999) (int_range 1 12) (int_range 1 31) );
      (1, map (fun b -> Instance.Value.Bool b) bool);
      (1, return Instance.Value.Null);
    ]

let query_gen =
  let open QCheck.Gen in
  let name = oneofl (Lazy.force text_names) in
  let names = list_size (int_bound 3) name in
  let cmp = oneofl Query.Ast.[ Eq; Ne; Lt; Le; Gt; Ge ] in
  let atom =
    frequency
      [
        (6, map3 (fun a c v -> Query.Ast.Atom (a, c, v)) name cmp value_gen);
        (1, map (fun b -> Query.Ast.Const b) bool);
      ]
  in
  let pred =
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           if n = 0 then atom
           else
             let half = self (n / 2) in
             frequency
               [
                 (2, atom);
                 (1, map2 (fun p q -> Query.Ast.And (p, q)) half half);
                 (1, map2 (fun p q -> Query.Ast.Or (p, q)) half half);
                 (1, map (fun p -> Query.Ast.Not p) (self (n - 1)));
               ])
  in
  let join =
    map3
      (fun (rel, rel_select) (target, target_select) target_where ->
        { Query.Ast.rel; rel_select; target; target_where; target_select })
      (pair name names) (pair name names) (opt pred)
  in
  map3
    (fun (from_class, select) where via ->
      { Query.Ast.from_class; where; select; via })
    (pair name names) (opt pred) (opt join)

let text_props =
  [
    qtest ~count:500 "op text reads back as the op, for all nine kinds"
      (QCheck.make ~print:Op.to_string op_gen) (fun op ->
        match Op.of_string (Op.to_string op) with
        | Ok op' -> same_op op op'
        | Error msg -> QCheck.Test.fail_report msg);
    qtest ~count:2000 "query text reads back as the query"
      (QCheck.make ~print:Query.Ast.to_string query_gen) (fun q ->
        match Query.Parser.query_of_string (Query.Ast.to_string q) with
        | q' -> Query.Ast.equal q q'
        | exception Query.Parser.Error msg -> QCheck.Test.fail_report msg);
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

(* ------------------------------------------------------------------ *)
(* Adding a schema list at once.                                       *)

(* Everything Phases 1-3 of a workspace hold, as text: the schemas, the
   recorded facts, every known cell of both matrices with its source,
   and each attribute's equivalence class. *)
let render_workspace ws =
  let b = Buffer.create 1024 in
  List.iter
    (fun s -> Buffer.add_string b (Ddl.Printer.to_string s))
    (Workspace.schemas ws);
  let facts what =
    List.iter (fun (l, a, r) ->
        Printf.bprintf b "%s %s %s %s\n" what (Qname.to_string l)
          (Assertion.to_string a) (Qname.to_string r))
  in
  facts "object" (Workspace.object_facts ws);
  facts "rel" (Workspace.relationship_facts ws);
  let cells what m =
    List.iter
      (fun (l, r, rel, src) ->
        Printf.bprintf b "%s (%s %s) %s %s\n" what (Qname.to_string l)
          (Qname.to_string r) (Rel.to_string rel)
          (Assertions.source_to_string src))
      (Assertions.constrained_pairs m)
  in
  cells "objects" (Workspace.object_matrix ws);
  cells "relationships" (Workspace.relationship_matrix ws);
  let eq = Workspace.equivalence ws in
  List.iter
    (fun a ->
      Printf.bprintf b "%s #%d\n" (Qname.Attr.to_string a)
        (Equivalence.class_number a eq))
    (Equivalence.members eq);
  Buffer.contents b

let session_of ops = List.fold_left (fun ws op -> Op.apply op ws) Workspace.empty ops
let fold_add ss ws = List.fold_left (fun ws s -> Workspace.add_schema s ws) ws ss

(* Valid versions of sc1 and sc2, so a list repeats a name often. *)
let schema_list =
  QCheck.Gen.(
    list_size (int_range 0 4)
      (oneof [ oneofl [ Workload.Paper.sc1; Workload.Paper.sc2 ]; edited_paper_schema ])
    >|= List.filter (fun s -> Schema.validate s = []))

let with_schema_list =
  QCheck.make
    ~print:(fun (ops, ss) ->
      String.concat "; " (List.map Op.to_string ops)
      ^ "\nthen add_schemas:\n"
      ^ String.concat "\n" (List.map Ddl.Printer.to_string ss))
    QCheck.Gen.(pair (QCheck.gen session_ops) schema_list)

let add_schemas_props =
  [
    qtest ~count:150 "add_schemas is the fold of add_schema without facts"
      with_schema_list
      (fun (ops, ss) ->
        (* the session's schemas and equivalences, none of its facts *)
        let ws =
          session_of
            (List.filter
               (function
                 | Op.Add_schema _ | Op.Remove_schema _ -> true | _ -> false)
               ops)
        in
        render_workspace (Workspace.add_schemas ss ws)
        = render_workspace (fold_add ss ws));
    qtest ~count:150
      "add_schemas is the fold of add_schema when one entry replaces a held schema"
      with_schema_list
      (fun (ops, ss) ->
        let ws = session_of ops in
        (* at most one entry shares a name with a held schema (the
           sessions hold only sc1 and sc2); sc4 twice repeats a name no
           fact mentions *)
        let ss =
          (match ss with s :: _ -> [ s ] | [] -> [])
          @ [ Workload.Paper.sc4; Workload.Paper.sc3; Workload.Paper.sc4 ]
        in
        render_workspace (Workspace.add_schemas ss ws)
        = render_workspace (fold_add ss ws));
    qtest ~count:150
      "add_schemas replays the recorded facts over the final schema list"
      with_schema_list
      (fun (ops, ss) ->
        let ws = session_of ops in
        let forget ws =
          let ws =
            List.fold_left
              (fun ws (a, _, b) -> Workspace.retract_object a b ws)
              ws (Workspace.object_facts ws)
          in
          List.fold_left
            (fun ws (a, _, b) -> Workspace.retract_relationship a b ws)
            ws (Workspace.relationship_facts ws)
        in
        let replay assert_ facts ws =
          List.fold_left
            (fun ws (a, c, b) ->
              match assert_ a c b ws with
              | Ok ws -> ws
              | Error _ | (exception Assertions.Unknown_class _) -> ws)
            ws facts
        in
        let expected =
          fold_add ss (forget ws)
          |> replay Workspace.assert_object (Workspace.object_facts ws)
          |> replay Workspace.assert_relationship (Workspace.relationship_facts ws)
        in
        render_workspace (Workspace.add_schemas ss ws) = render_workspace expected);
  ]

let add_schemas_tests =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "a fact the list's first version would drop is kept" (fun () ->
        let sc1, sc2 = (Workload.Paper.sc1, Workload.Paper.sc2) in
        let ws =
          match
            Workspace.assert_object (Qname.v "sc1" "Department") Assertion.Equal
              (Qname.v "sc2" "Department")
              (Workspace.add_schemas [ sc1; sc2 ] Workspace.empty)
          with
          | Ok ws -> ws
          | Error c -> Alcotest.fail (Assertions.conflict_to_string c)
        in
        (* sc1 without Majors and Department, then sc1 again *)
        let without =
          Schema.remove_structure (Name.v "Department")
            (Schema.remove_structure (Name.v "Majors") sc1)
        in
        Alcotest.(check int) "the fold forgets it" 0
          (List.length (Workspace.object_facts (fold_add [ without; sc1 ] ws)));
        Alcotest.(check int) "add_schemas keeps it" 1
          (List.length
             (Workspace.object_facts (Workspace.add_schemas [ without; sc1 ] ws))));
  ]

let () =
  Alcotest.run "properties"
    [
      ("rel-algebra", rel_algebra_props);
      ("matrix", matrix_props);
      ("integration", integration_props);
      ("misc", misc_props);
      ("persistence", persistence_props);
      ("text", text_props);
      ("updates", update_props);
      ("add_schemas", add_schemas_props @ add_schemas_tests);
    ]
