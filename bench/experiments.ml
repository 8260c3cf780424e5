(* The per-experiment regenerators: one function per paper artifact
   (figures 2a-2e, 3-6, screens 1-12b) and per implied quantitative
   claim.  See EXPERIMENTS.md for the paper-vs-measured record. *)

open Ecr
open Integrate

let section id title =
  Printf.printf "\n%s\n" (String.make 74 '=');
  Printf.printf "%s  %s\n" id title;
  Printf.printf "%s\n" (String.make 74 '=')

let subsection title = Printf.printf "\n--- %s ---\n" title

(* ------------------------------------------------------------------ *)
(* E1-E5: Figures 2a-2e, the five assertion outcomes.                  *)

let fig2 (mini : Workload.Paper.mini) =
  Printf.printf "\ninput : %s.%s and %s.%s, asserted '%s'\n"
    (Name.to_string (Schema.name mini.Workload.Paper.left))
    (Qname.to_string (fst mini.Workload.Paper.pair) |> fun s ->
     List.nth (String.split_on_char '.' s) 1)
    (Name.to_string (Schema.name mini.Workload.Paper.right))
    (Qname.to_string (snd mini.Workload.Paper.pair) |> fun s ->
     List.nth (String.split_on_char '.' s) 1)
    (Assertion.to_string mini.Workload.Paper.assertion);
  Printf.printf "paper : %s\n" mini.Workload.Paper.expect;
  let r = Workload.Paper.integrate_mini mini in
  Printf.printf "ours  :\n%s\n" (Ddl.Printer.to_string r.Result.schema)

let e1 () =
  section "E1" "Figure 2a - identical domains (equals)";
  fig2 Workload.Paper.fig2a

let e2 () =
  section "E2" "Figure 2b - contained domains (contains)";
  fig2 Workload.Paper.fig2b

let e3 () =
  section "E3" "Figure 2c - overlapping domains (may be)";
  fig2 Workload.Paper.fig2c

let e4 () =
  section "E4" "Figure 2d - disjoint integrable";
  fig2 Workload.Paper.fig2d

let e5 () =
  section "E5" "Figure 2e - disjoint nonintegrable";
  fig2 Workload.Paper.fig2e

(* ------------------------------------------------------------------ *)
(* E6: Figures 3, 4 and 5 - the paper's worked example.                *)

let e6 () =
  section "E6" "Figures 3+4 -> 5: integrating sc1 and sc2";
  subsection "component schemas (Figures 3 and 4)";
  print_string (Ddl.Printer.to_string Workload.Paper.sc1);
  print_newline ();
  print_string (Ddl.Printer.to_string Workload.Paper.sc2);
  print_newline ();
  let r = Workload.Paper.integrate_sc1_sc2 () in
  subsection "integrated schema (Figure 5)";
  print_string (Ddl.Printer.to_string r.Result.schema);
  print_newline ();
  subsection "paper vs ours (Screen 10 inventory)";
  let names get fmt_of =
    String.concat ", " (List.map fmt_of (get r.Result.schema))
  in
  Printf.printf "paper entities      : E_Department, D_Stud_Facu\n";
  Printf.printf "ours  entities      : %s\n"
    (names Schema.entities (fun o -> Name.to_string o.Object_class.name));
  Printf.printf "paper categories    : Student, Grad_student, Faculty\n";
  Printf.printf "ours  categories    : %s\n"
    (names Schema.categories (fun o -> Name.to_string o.Object_class.name));
  Printf.printf "paper relationships : E_Stud_Majo, Works\n";
  Printf.printf "ours  relationships : %s\n"
    (names Schema.relationships (fun rl -> Name.to_string rl.Relationship.name))

(* ------------------------------------------------------------------ *)
(* E7: Screen 8 - the attribute-ratio ranking.                         *)

let paper_equivalence () =
  List.fold_left
    (fun eq (x, y) -> Equivalence.declare x y eq)
    (Equivalence.register_schema Workload.Paper.sc2
       (Equivalence.register_schema Workload.Paper.sc1 Equivalence.empty))
    Workload.Paper.equivalences

let e7 () =
  section "E7" "Screen 8: ranked object pairs with attribute ratios";
  let eq = paper_equivalence () in
  Printf.printf "\n%-24s %-24s %-10s (paper)\n" "Schema1.Object1"
    "Schema2.Object2" "RATIO";
  let paper_ratios =
    [
      ("sc1.Department", "sc2.Department", "0.5000");
      ("sc1.Student", "sc2.Grad_student", "0.5000");
      ("sc1.Student", "sc2.Faculty", "0.3333");
    ]
  in
  List.iteri
    (fun i rk ->
      let expected =
        if i < List.length paper_ratios then
          let _, _, r = List.nth paper_ratios i in
          r
        else "-"
      in
      Printf.printf "%-24s %-24s %.4f     (%s)\n"
        (Qname.to_string rk.Similarity.left)
        (Qname.to_string rk.Similarity.right)
        rk.Similarity.ratio expected)
    (Similarity.ranked_object_pairs Workload.Paper.sc1 Workload.Paper.sc2 eq)

(* ------------------------------------------------------------------ *)
(* E8: Screen 9 - assertion conflict detection.                        *)

let e8 () =
  section "E8" "Screen 9: the sc3/sc4 assertion conflict";
  let q = Qname.v in
  let m = Assertions.create [ Workload.Paper.sc3; Workload.Paper.sc4 ] in
  let m =
    match
      Assertions.add (q "sc3" "Instructor") Assertion.Contained_in
        (q "sc4" "Grad_student") m
    with
    | Ok m -> m
    | Error _ -> failwith "fixture"
  in
  match
    Assertions.add (q "sc3" "Instructor") Assertion.Disjoint_nonintegrable
      (q "sc4" "Student") m
  with
  | Ok _ -> print_endline "UNEXPECTED: conflict missed"
  | Error c -> print_string (Tui.Canvas.to_string (Tui.Screens.conflict_resolution c))

(* ------------------------------------------------------------------ *)
(* E9: Screens 1-12b, rendered.                                        *)

let e9 () =
  section "E9" "Screens 1-12b, rendered by the tool";
  let r = Workload.Paper.integrate_sc1_sc2 () in
  let eq = paper_equivalence () in
  let screens =
    [
      ("Screen 1", Tui.Screens.main_menu ());
      ( "Screen 2",
        Tui.Screens.schema_name_collection ~names:[ "sc1"; "sc2" ] );
      ("Screen 3", Tui.Screens.structure_information Workload.Paper.sc1);
      ( "Screen 4",
        Tui.Screens.relationship_information Workload.Paper.sc1 (Name.v "Majors") );
      ( "Screen 5",
        Tui.Screens.attribute_information Workload.Paper.sc1 (Name.v "Student") );
      ( "Screen 6",
        Tui.Screens.object_selection Workload.Paper.sc1 Workload.Paper.sc2 );
      ( "Screen 7",
        Tui.Screens.equivalence_classes eq
          (Workload.Paper.sc1, Name.v "Student")
          (Workload.Paper.sc2, Name.v "Grad_student") );
      ( "Screen 8",
        Tui.Screens.assertion_collection
          ~answered:
            (List.map (fun (l, a, r) -> (l, r, a)) Workload.Paper.object_assertions)
          (Similarity.ranked_object_pairs Workload.Paper.sc1 Workload.Paper.sc2 eq)
      );
      ("Screen 10", Tui.Screens.object_class_screen r);
      ("Screen 11", Tui.Screens.category_screen r (Name.v "Student"));
      ( "Screen 12a",
        Tui.Screens.component_attribute_screen
          ~schemas:[ Workload.Paper.sc1; Workload.Paper.sc2 ]
          r (Name.v "Student") (Name.v "D_GPA") ~index:0 );
      ( "Screen 12b",
        Tui.Screens.component_attribute_screen
          ~schemas:[ Workload.Paper.sc1; Workload.Paper.sc2 ]
          r (Name.v "Student") (Name.v "D_GPA") ~index:1 );
    ]
  in
  List.iter
    (fun (label, canvas) ->
      Printf.printf "\n[%s]\n%s" label (Tui.Canvas.to_string canvas))
    screens;
  (* Screen 9 is the conflict screen, regenerated in E8. *)
  print_endline "\n[Screen 9] see experiment E8."

(* ------------------------------------------------------------------ *)
(* E10: Figure 6 - the screen control-flow graph.                      *)

let e10 () =
  section "E10" "Figure 6: control flow of the result-viewing screens";
  List.iter
    (fun (t, l, h) ->
      Printf.printf "  %-38s --%s--> %s\n" (Tui.Flow.screen_name t) l
        (Tui.Flow.screen_name h))
    Tui.Flow.arcs;
  let reachable = Tui.Flow.reachable_from Tui.Flow.Object_class in
  Printf.printf "\nreachable from the Object Class Screen: %d of %d screens\n"
    (List.length reachable)
    (List.length Tui.Flow.all_screens)

(* ------------------------------------------------------------------ *)
(* E11: ranking quality of the resemblance heuristic.                  *)

let questions_to_find_all ~ranked ~true_pairs =
  (* position (1-based) of the last true pair in the ranked order; the
     number of pairs a DDA reviews before confirming every true match *)
  let position (a, b) =
    let rec look i = function
      | [] -> max_int
      | rk :: rest ->
          if
            (Qname.equal rk.Similarity.left a && Qname.equal rk.Similarity.right b)
            || (Qname.equal rk.Similarity.left b && Qname.equal rk.Similarity.right a)
          then i
          else look (i + 1) rest
    in
    look 1 ranked
  in
  match true_pairs with
  | [] -> 0
  | _ -> List.fold_left (fun acc p -> Int.max acc (position p)) 0 true_pairs

let e11 () =
  section "E11" "resemblance-ranked review vs arbitrary order";
  Printf.printf "\n%-9s %-6s %-7s %-7s %-12s %-12s %-9s\n" "concepts" "noise"
    "pairs" "true" "ranked-last" "random-last" "prec@k";
  List.iter
    (fun concepts ->
      List.iter
        (fun noise ->
          let w =
            Workload.Generator.generate
              {
                Workload.Generator.default_params with
                seed = 1000 + concepts + int_of_float (noise *. 100.);
                concepts;
                naming_noise = noise;
                population = 200;
              }
          in
          match w.Workload.Generator.schemas with
          | [ s1; s2 ] ->
              let eq =
                Protocol.collect_equivalences
                  { Protocol.defaults with exhaustive_attribute_pairs = true }
                  s1 s2 w.Workload.Generator.oracle Equivalence.empty
              in
              let ranked = Similarity.ranked_object_pairs s1 s2 eq in
              let total = List.length ranked in
              let k = List.length w.Workload.Generator.true_pairs in
              let last =
                questions_to_find_all ~ranked
                  ~true_pairs:w.Workload.Generator.true_pairs
              in
              (* arbitrary order: expected position of the last of k true
                 pairs among n is k(n+1)/(k+1) *)
              let random_last =
                if k = 0 then 0
                else k * (total + 1) / (k + 1)
              in
              let topk = Similarity.top k ranked in
              let hits =
                List.length
                  (List.filter
                     (fun rk ->
                       List.exists
                         (fun (x, y) ->
                           (Qname.equal x rk.Similarity.left
                           && Qname.equal y rk.Similarity.right)
                           || (Qname.equal y rk.Similarity.left
                              && Qname.equal x rk.Similarity.right))
                         w.Workload.Generator.true_pairs)
                     topk)
              in
              Printf.printf "%-9d %-6.2f %-7d %-7d %-12d %-12d %-9s\n" concepts
                noise total k last random_last
                (if k = 0 then "-"
                 else Printf.sprintf "%.2f" (float_of_int hits /. float_of_int k))
          | _ -> ())
        [ 0.0; 0.3; 0.6 ])
    [ 8; 16; 32 ];
  print_endline
    "\n(ranked-last: pairs reviewed before every true correspondence is\n\
    \ seen when following the heuristic; random-last: expected value for\n\
    \ an arbitrary review order - the paper's claim is the first column\n\
    \ being much smaller)"

(* ------------------------------------------------------------------ *)
(* E12: automation by transitive derivation.                           *)

let e12 () =
  section "E12" "assertions derived automatically by transitive composition";
  Printf.printf "\n%-9s %-9s %-10s %-10s %-10s %-12s\n" "schemas" "classes"
    "pairs" "asked" "derived" "automation";
  List.iter
    (fun k ->
      let w =
        Workload.Generator.generate
          {
            Workload.Generator.default_params with
            seed = 2000 + k;
            schemas = k;
            concepts = 10;
            population = 150;
          }
      in
      let counters = Dda.fresh_counters () in
      let dda = Dda.counting counters w.Workload.Generator.oracle in
      let result, stats = Protocol.run w.Workload.Generator.schemas dda in
      let classes =
        List.fold_left
          (fun acc s -> acc + List.length (Schema.objects s))
          0 w.Workload.Generator.schemas
      in
      let total = stats.Protocol.pairs_presented + stats.Protocol.pairs_skipped_determined in
      ignore result;
      Printf.printf "%-9d %-9d %-10d %-10d %-10d %9.1f%%\n" k classes total
        stats.Protocol.pairs_presented stats.Protocol.pairs_skipped_determined
        (if total = 0 then 0.0
         else
           100.0
           *. float_of_int stats.Protocol.pairs_skipped_determined
           /. float_of_int total))
    [ 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* E13: n-ary (the paper) vs binary strategies.                        *)

let e13 () =
  section "E13" "n-ary integration vs binary ladder/balanced/guided";
  Printf.printf "\n%-10s %-7s %-11s %-11s %-10s %-9s\n" "strategy" "steps"
    "obj-quest" "attr-quest" "presented" "derived";
  let run label strategy =
    let w =
      Workload.Generator.generate
        {
          Workload.Generator.default_params with
          seed = 3000;
          schemas = 4;
          concepts = 10;
          population = 150;
        }
    in
    let counters = Dda.fresh_counters () in
    let dda = Dda.counting counters w.Workload.Generator.oracle in
    let outcome = strategy w dda in
    Printf.printf "%-10s %-7d %-11d %-11d %-10d %-9d\n" label
      outcome.Strategy.steps counters.Dda.object_questions
      counters.Dda.attr_questions outcome.Strategy.stats.Protocol.pairs_presented
      outcome.Strategy.stats.Protocol.pairs_skipped_determined
  in
  run "n-ary" (fun w dda -> Strategy.nary w.Workload.Generator.schemas dda);
  run "ladder" (fun w dda ->
      Strategy.binary_ladder ~register:w.Workload.Generator.register
        w.Workload.Generator.schemas dda);
  run "balanced" (fun w dda ->
      Strategy.binary_balanced ~register:w.Workload.Generator.register
        w.Workload.Generator.schemas dda);
  run "guided" (fun w dda ->
      Strategy.binary_guided ~register:w.Workload.Generator.register
        ~weights:(Heuristics.Resemblance.default_weights Heuristics.Synonyms.default)
        w.Workload.Generator.schemas dda);
  print_endline
    "\n(binary strategies re-ask about intermediate classes; the paper's\n\
    \ n-ary approach collects assertions once per component pair)"

(* ------------------------------------------------------------------ *)
(* E14: scaling of closure + integration.                              *)

let workload_of_size concepts =
  Workload.Generator.generate
    {
      Workload.Generator.default_params with
      seed = 4000 + concepts;
      concepts;
      population = Int.max 200 (concepts * 12);
      relationship_concepts = concepts / 3;
    }

let time_once f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  (x, t1 -. t0)

let e14 () =
  section "E14" "scaling: protocol + integration wall clock";
  Printf.printf "\n%-9s %-9s %-10s %-12s %-14s\n" "concepts" "classes" "pairs"
    "time (s)" "result";
  List.iter
    (fun concepts ->
      let w = workload_of_size concepts in
      let classes =
        List.fold_left
          (fun acc s -> acc + List.length (Schema.objects s))
          0 w.Workload.Generator.schemas
      in
      let (result, stats), dt =
        time_once (fun () ->
            Protocol.run w.Workload.Generator.schemas w.Workload.Generator.oracle)
      in
      Printf.printf "%-9d %-9d %-10d %-12.3f %s\n" concepts classes
        (stats.Protocol.pairs_presented + stats.Protocol.pairs_skipped_determined)
        dt
        (Result.summary result))
    [ 10; 20; 40; 80 ]

(* ------------------------------------------------------------------ *)
(* E15: ablation of the section-4 matching enhancements.               *)

let e15 () =
  section "E15" "ablation: string/synonym/domain signals for candidate pairs";
  let dict = Heuristics.Synonyms.default in
  let configurations =
    [
      ("name-only", [ (1.0, Heuristics.Resemblance.name_signal) ]);
      ( "name+syn",
        [
          (0.6, Heuristics.Resemblance.name_signal);
          (0.4, Heuristics.Resemblance.synonym_signal dict);
        ] );
      ( "full",
        Heuristics.Resemblance.default_weights dict );
    ]
  in
  Printf.printf "\n%-10s %-7s %-11s %-11s %-9s %-9s\n" "signals" "noise"
    "questions" "exhaustive" "recall" "precision";
  List.iter
    (fun noise ->
      let w =
        Workload.Generator.generate
          {
            Workload.Generator.default_params with
            seed = 5000 + int_of_float (noise *. 10.);
            concepts = 16;
            naming_noise = noise;
            population = 200;
          }
      in
      match w.Workload.Generator.schemas with
      | [ s1; s2 ] ->
          let exhaustive_count =
            let counters = Dda.fresh_counters () in
            let dda = Dda.counting counters w.Workload.Generator.oracle in
            let _ =
              Protocol.collect_equivalences
                { Protocol.defaults with exhaustive_attribute_pairs = true }
                s1 s2 dda Equivalence.empty
            in
            counters.Dda.attr_questions
          in
          (* the truth: number of equivalent cross-schema attribute pairs *)
          let truth_count =
            let count = ref 0 in
            List.iter
              (fun oc1 ->
                List.iter
                  (fun oc2 ->
                    List.iter
                      (fun (a1 : Attribute.t) ->
                        List.iter
                          (fun (a2 : Attribute.t) ->
                            let qa1 =
                              Qname.Attr.make
                                (Schema.qname s1 oc1.Object_class.name)
                                a1.Attribute.name
                            and qa2 =
                              Qname.Attr.make
                                (Schema.qname s2 oc2.Object_class.name)
                                a2.Attribute.name
                            in
                            match
                              ( w.Workload.Generator.attr_id qa1,
                                w.Workload.Generator.attr_id qa2 )
                            with
                            | Some x, Some y when x = y -> incr count
                            | _ -> ())
                          oc2.Object_class.attributes)
                      oc1.Object_class.attributes)
                  (Schema.objects s2))
              (Schema.objects s1);
            !count
          in
          List.iter
            (fun (label, weights) ->
              let counters = Dda.fresh_counters () in
              let dda = Dda.counting counters w.Workload.Generator.oracle in
              let eq =
                Protocol.collect_equivalences
                  {
                    Protocol.defaults with
                    exhaustive_attribute_pairs = false;
                    suggestion_weights = weights;
                  }
                  s1 s2 dda Equivalence.empty
              in
              let found =
                List.length (Equivalence.nontrivial_classes eq)
              in
              let yes_answers =
                (* every nontrivial class stems from >= 1 yes answer *)
                found
              in
              Printf.printf "%-10s %-7.2f %-11d %-11d %-9s %-9s\n" label noise
                counters.Dda.attr_questions exhaustive_count
                (if truth_count = 0 then "-"
                 else Printf.sprintf "%.2f" (float_of_int found /. float_of_int truth_count))
                (if counters.Dda.attr_questions = 0 then "-"
                 else
                   Printf.sprintf "%.2f"
                     (float_of_int yes_answers
                     /. float_of_int counters.Dda.attr_questions)))
            configurations
      | _ -> ())
    [ 0.0; 0.3; 0.6 ];
  print_endline
    "\n(questions: attribute pairs the DDA is asked about when only\n\
    \ heuristic candidates are surfaced, vs the exhaustive cross product;\n\
    \ recall: fraction of true equivalence classes found)";
  subsection "cross-construct correspondence (the marriage example)";
  let weights = Heuristics.Resemblance.default_weights dict in
  let s1 =
    Schema.make (Name.v "a")
      ~objects:
        [
          Object_class.entity
            ~attrs:
              [
                Attribute.v "Marriage_date" "date";
                Attribute.v "Marriage_location" "char";
                Attribute.v "Number_of_children" "int";
              ]
            (Name.v "Marriage");
        ]
      ~relationships:[]
  and s2 =
    Schema.make (Name.v "b")
      ~objects:
        [
          Object_class.entity ~attrs:[ Attribute.v ~key:true "Name" "char" ]
            (Name.v "Male");
          Object_class.entity ~attrs:[ Attribute.v ~key:true "Name" "char" ]
            (Name.v "Female");
        ]
      ~relationships:
        [
          Relationship.binary
            ~attrs:
              [
                Attribute.v "Marriage_date" "date";
                Attribute.v "Marriage_location" "char";
                Attribute.v "Number_of_children" "int";
              ]
            (Name.v "Married_to")
            (Name.v "Male", Cardinality.at_most_one)
            (Name.v "Female", Cardinality.at_most_one);
        ]
  in
  List.iter
    (fun c ->
      Printf.printf
        "candidate: entity %s ~ relationship %s (%d shared attributes, score %.2f)\n"
        (Qname.to_string c.Heuristics.Construct.entity_side)
        (Qname.to_string c.Heuristics.Construct.relationship_side)
        (List.length c.Heuristics.Construct.shared_attributes)
        c.Heuristics.Construct.score)
    (Heuristics.Construct.detect weights s1 s2)

(* ------------------------------------------------------------------ *)
(* E16: mapping correctness, verified on instances.                    *)

let e16 () =
  section "E16" "generated mappings preserve query answers (Phase 4 claim)";
  subsection "the paper's example";
  let r = Workload.Paper.integrate_sc1_sc2 () in
  ignore r;
  Printf.printf
    "view->integrated and integrated->component translations on sc1/sc2\n\
     instances are exercised in test/test_query.ml; here, scale checks:\n";
  subsection "generated federations";
  Printf.printf "\n%-6s %-9s %-9s %-8s %-9s %-12s\n" "seed" "entities"
    "migrated" "fused" "queries" "containment";
  List.iter
    (fun seed ->
      let w =
        Workload.Generator.generate
          {
            Workload.Generator.default_params with
            seed;
            concepts = 12;
            population = 250;
          }
      in
      let result, _ =
        Protocol.run w.Workload.Generator.schemas w.Workload.Generator.oracle
      in
      let stores = Workload.Generator.populate w in
      let merged, report =
        Query.Migrate.run result.Result.mapping ~integrated:result.Result.schema
          stores
      in
      let queries = ref 0 and ok = ref true in
      let multiset_subset small big =
        let count rows r =
          List.length
            (List.filter (fun r' -> Name.Map.equal Instance.Value.equal r r') rows)
        in
        List.for_all (fun r -> count small r <= count big r) small
      in
      List.iter
        (fun (s, st) ->
          List.iter
            (fun oc ->
              incr queries;
              let view_q = Query.Ast.query (Name.to_string oc.Object_class.name) in
              let q', back =
                Query.Rewrite.to_integrated result.Result.mapping ~view:s view_q
              in
              if
                not
                  (multiset_subset (Query.Eval.run view_q st)
                     (back (Query.Eval.run q' merged)))
              then ok := false)
            (Schema.objects s))
        stores;
      Printf.printf "%-6d %-9d %-9d %-8d %-9d %-12s\n" seed
        report.Query.Migrate.entities_in report.Query.Migrate.entities_out
        report.Query.Migrate.fused !queries
        (if !ok then "all hold" else "VIOLATED"))
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* E17: conflict detection under DDA error.                            *)

let e17 () =
  section "E17" "conflict detection with an erring DDA";
  Printf.printf "\n%-8s %-10s %-10s %-10s %-12s\n" "error" "presented"
    "accepted" "rejected" "caught/wrong";
  List.iter
    (fun error_rate ->
      let trials = 10 in
      let presented = ref 0
      and accepted = ref 0
      and rejected = ref 0
      and wrong_entered = ref 0 in
      for trial = 1 to trials do
        let w =
          Workload.Generator.generate
            {
              Workload.Generator.default_params with
              seed = 6000 + trial;
              concepts = 10;
              population = 150;
            }
        in
        let truth = w.Workload.Generator.oracle in
        let noisy =
          Workload.Generator.noisy_oracle w
            ~error_rate
            ~seed:(7000 + trial)
        in
        (* count wrong answers actually given *)
        let wrapped =
          {
            noisy with
            Dda.object_assertion =
              (fun a b ->
                let answer = noisy.Dda.object_assertion a b in
                (match (answer, truth.Dda.object_assertion a b) with
                | Some x, Some y when not (Assertion.equal x y) ->
                    incr wrong_entered
                | _ -> ());
                answer);
          }
        in
        let _, stats =
          Protocol.run
            ~options:{ Protocol.defaults with skip_determined = false }
            w.Workload.Generator.schemas wrapped
        in
        presented := !presented + stats.Protocol.pairs_presented;
        accepted := !accepted + stats.Protocol.assertions_accepted;
        rejected := !rejected + stats.Protocol.assertions_rejected
      done;
      Printf.printf "%-8.2f %-10d %-10d %-10d %d / %d\n" error_rate !presented
        !accepted !rejected !rejected !wrong_entered)
    [ 0.0; 0.1; 0.25; 0.5 ];
  print_endline
    "\n(rejected: assertions the matrix refused as contradictory; the\n\
    \ last column relates refusals to the wrong answers actually given.\n\
    \ Not every wrong answer is *immediately* contradictory - an early\n\
    \ error can instead poison later truthful answers - but the tool\n\
    \ never accepts a set of assertions that is internally inconsistent.)"

(* ------------------------------------------------------------------ *)
(* E18: the indexed OCS engine vs the naive per-entry partition scan.   *)

(* The PR-1 hot path recomputed every OCS entry with
   [Equivalence.shared_count] — a scan of the whole ACS partition per
   entry, O(|O1|*|O2|) times per schema pair.  The indexed engine folds
   the partition once ([Acs_index.build]) and answers each entry with a
   map lookup.  This experiment reproduces the naive path (one scan per
   entry — half of what PR 1 actually did, which scanned twice) and
   races it against the indexed ranking on a schemas x concepts
   sweep. *)

let naive_ranked_object_pairs s1 s2 eq =
  List.concat_map
    (fun oc1 ->
      List.map
        (fun oc2 ->
          let left = Schema.qname s1 oc1.Object_class.name
          and right = Schema.qname s2 oc2.Object_class.name in
          let shared = Equivalence.shared_count left right eq in
          let smaller =
            Int.min
              (List.length oc1.Object_class.attributes)
              (List.length oc2.Object_class.attributes)
          in
          {
            Similarity.left;
            right;
            shared;
            smaller;
            ratio =
              (if shared = 0 && smaller = 0 then 0.0
               else float_of_int shared /. float_of_int (shared + smaller));
          })
        (Schema.objects s2))
    (Schema.objects s1)
  |> List.stable_sort Similarity.compare_ranked

let e18 () =
  section "E18" "scaling: indexed OCS ranking vs per-entry partition scans";
  Printf.printf "\n%-9s %-9s %-8s %-11s %-11s %s\n" "schemas" "concepts"
    "pairs" "naive (s)" "indexed (s)" "speedup";
  List.iter
    (fun (schemas, concepts) ->
      let w =
        Workload.Generator.generate
          {
            Workload.Generator.default_params with
            seed = 8000 + (schemas * 100) + concepts;
            schemas;
            concepts;
            population = Int.max 150 (concepts * 10);
          }
      in
      let ss = w.Workload.Generator.schemas in
      let rec schema_pairs = function
        | [] -> []
        | s :: rest -> List.map (fun s' -> (s, s')) rest @ schema_pairs rest
      in
      let sp = schema_pairs ss in
      let eq =
        List.fold_left
          (fun eq (s1, s2) ->
            Protocol.collect_equivalences
              { Protocol.defaults with exhaustive_attribute_pairs = true }
              s1 s2 w.Workload.Generator.oracle eq)
          (List.fold_left
             (fun eq s -> Equivalence.register_schema s eq)
             Equivalence.empty ss)
          sp
      in
      let pairs =
        List.fold_left
          (fun acc (s1, s2) ->
            acc + (List.length (Schema.objects s1) * List.length (Schema.objects s2)))
          0 sp
      in
      let naive_rank, t_naive =
        time_once (fun () ->
            List.map (fun (s1, s2) -> naive_ranked_object_pairs s1 s2 eq) sp)
      in
      let indexed_rank, t_indexed =
        time_once (fun () ->
            let index = Acs_index.build eq in
            List.map
              (fun (s1, s2) -> Similarity.ranked_object_pairs_with index s1 s2)
              sp)
      in
      assert (naive_rank = indexed_rank);
      Printf.printf "%-9d %-9d %-8d %-11.4f %-11.4f %8.1fx\n" schemas concepts
        pairs t_naive t_indexed
        (if t_indexed > 0.0 then t_naive /. t_indexed else 0.0))
    [ (2, 10); (2, 20); (2, 40); (2, 80); (3, 10); (3, 20); (3, 40) ];
  print_endline
    "\n(same workload seeds, same resulting order - asserted equal; naive\n\
    \ scans the ACS partition once per OCS entry, the index is built once\n\
    \ per equivalence state and each entry is a map lookup)"

(* lib/par's one fan-out, sit_batch's sessions: k independent sessions
   over one federation (its schemas, then the script, then one
   integration, printed as sit_batch prints it) run at the sequential
   reference (Par.For_testing.with_domains 1) and through Par.map at
   the default width (one domain per core), in alternating pairs, both
   orders equally often, and must print the same either way.  A row
   reads "win" (or "loss") when one side is faster in at least 9 pairs
   in 10 by more than the reference's IQR.  One sample repeats the call
   until the reference takes about 200 ms, so that a burst of load on a
   shared host does not decide a pair on its own.  The paper rows are
   sessions of well under a millisecond, the scenario rows of several
   milliseconds or more. *)
let e19 () =
  section "E19" "sit_batch sessions: sequential reference vs default fan-out";
  let pairs = 10 in
  let cores = Stdlib.Domain.recommended_domain_count () in
  Printf.printf
    "\n(host exposes %d core(s); %d alternating pairs per row; ms per call,\n\
    \ median [q1 .. q3]; wins = pairs the default ran faster)\n"
    cores pairs;
  Printf.printf "\n%-11s %-8s %-9s %-5s %-26s %-26s %8s %6s  %s\n" "federation"
    "schemas" "sessions" "reps" "reference" "default" "speedup" "wins" "verdict";
  let quartiles xs = Bench_e2e.Stats.quartiles (Array.of_list xs) in
  let session schemas directives =
    let ws = List.fold_left (fun ws s -> Workspace.add_schema s ws) Workspace.empty schemas in
    match Script.apply directives ws with
    | Error e -> failwith (Script.apply_error_to_string e)
    | Ok ws ->
        let r = Workspace.integrate ws in
        String.concat "\n"
          ((Ddl.Printer.to_string r.Result.schema :: Result.summary r :: r.Result.warnings)
          @ [ Format.asprintf "%a" Mapping.pp r.Result.mapping ])
  in
  let measure label schemas directives k =
    let scripts = List.init k (fun _ -> directives) in
    let run () = Par.map (session schemas) scripts in
    let reference () = Par.For_testing.with_domains 1 run in
    let expect = reference () in
    assert (run () = expect);
    let reps =
      let _, t = time_once reference in
      Int.max 1 (int_of_float (Float.ceil (0.2 /. t)))
    in
    let timed f =
      let t0 = Unix.gettimeofday () in
      for _ = 1 to reps do
        assert (f () = expect)
      done;
      1000.0 *. (Unix.gettimeofday () -. t0) /. float_of_int reps
    in
    let samples =
      List.init pairs (fun i ->
          if i mod 2 = 0 then
            let r = timed reference in
            (r, timed run)
          else
            let d = timed run in
            (timed reference, d))
    in
    let r1, rm, r3 = quartiles (List.map fst samples)
    and d1, dm, d3 = quartiles (List.map snd samples) in
    let wins = List.length (List.filter (fun (r, d) -> d < r) samples) in
    let losses = List.length (List.filter (fun (r, d) -> d > r) samples) in
    let verdict =
      if 10 * wins >= 9 * pairs && rm -. dm > r3 -. r1 then "win"
      else if 10 * losses >= 9 * pairs && dm -. rm > r3 -. r1 then "loss"
      else "within spread"
    in
    let cell m q1 q3 = Printf.sprintf "%.2f [%.2f .. %.2f]" m q1 q3 in
    Printf.printf "%-11s %-8d %-9d %-5d %-26s %-26s %7.2fx %3d/%-2d  %s\n%!" label
      (List.length schemas) k reps (cell rm r1 r3) (cell dm d1 d3) (rm /. dm) wins pairs
      verdict
  in
  let paper =
    List.map (fun (a, b) -> Script.Equiv (a, b)) Workload.Paper.equivalences
    @ List.map (fun (a, r, b) -> Script.Object_assertion (a, r, b))
        Workload.Paper.object_assertions
    @ List.map (fun (a, r, b) -> Script.Rel_assertion (a, r, b))
        Workload.Paper.relationship_assertions
  in
  let scenario seed schemas concepts =
    let sc =
      Workload.Scenario.generate
        { Workload.Scenario.default_params with seed; schemas; concepts; population = 200 }
    in
    (sc.Workload.Scenario.schemas, sc.Workload.Scenario.directives)
  in
  List.iter
    (fun (label, (schemas, directives)) ->
      List.iter (measure label schemas directives) [ 2; 4; 16 ])
    [
      ("paper", ([ Workload.Paper.sc1; Workload.Paper.sc2 ], paper));
      ("seed 11", scenario 11 4 12);
      ("seed 42", scenario 42 8 16);
    ];
  print_endline
    "\n(both columns are asserted to print the same sessions - the\n\
    \ ordered-reduction contract of lib/par; paper is sc1+sc2 with the\n\
    \ paper's session, seed 11 is what sit_scenario --seed 11 renders,\n\
    \ seed 42 is the benchmark's 8-schema federation; a 1-core host never\n\
    \ spawns a domain)"

(* Wraps a DDA oracle so every affirmative answer is journaled as the
   session op it implies — the write-ahead pattern bin/sit uses, driven
   here at protocol speed to measure logging overhead. *)
let journaling_oracle j (oracle : Dda.t) =
  {
    oracle with
    Dda.label = oracle.Dda.label ^ "+journal";
    attr_equivalent =
      (fun (qa1, a1) (qa2, a2) ->
        let r = oracle.Dda.attr_equivalent (qa1, a1) (qa2, a2) in
        if r then Journal.append j (Op.Declare_equivalent (qa1, qa2));
        r);
    object_assertion =
      (fun q1 q2 ->
        let r = oracle.Dda.object_assertion q1 q2 in
        (match r with
        | Some a -> Journal.append j (Op.Assert_object (q1, a, q2))
        | None -> ());
        r);
    relationship_assertion =
      (fun q1 q2 ->
        let r = oracle.Dda.relationship_assertion q1 q2 in
        (match r with
        | Some a -> Journal.append j (Op.Assert_relationship (q1, a, q2))
        | None -> ());
        r);
  }

(* Measures one fsync policy against the bare run.  The two variants
   are timed strictly interleaved — bare, journaled, bare, journaled… —
   and each takes its minimum, so host-speed drift between reps (the
   dominant error on a shared 1-core container) cancels out of the
   overhead ratio. *)
let e20_overhead ?(reps = 5) () =
  let w =
    Workload.Generator.generate
      {
        Workload.Generator.default_params with
        seed = 9200;
        concepts = 20;
        population = 200;
      }
  in
  let run oracle () =
    ignore (Protocol.run w.Workload.Generator.schemas oracle)
  in
  (* warm code paths and allocator state before any timed run, or the
     first measurement pays the cold-start and skews the comparison *)
  run w.Workload.Generator.oracle ();
  run w.Workload.Generator.oracle ();
  fun policy ->
    let path = Filename.temp_file "sit_e20" ".journal" in
    Fun.protect
      ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
      (fun () ->
        let _, j = Journal.open_ ~fsync:policy path in
        let oracle = w.Workload.Generator.oracle in
        let base = ref infinity and jt = ref infinity in
        for _ = 1 to reps do
          base := Float.min !base (snd (time_once (run oracle)));
          Journal.reset j;
          jt := Float.min !jt (snd (time_once (run (journaling_oracle j oracle))))
        done;
        let ops = Journal.seq j and size = (Unix.stat path).Unix.st_size in
        Journal.close j;
        (!base, !jt, ops, size))

let e20 () =
  section "E20" "journal overhead: write-ahead logging under protocol.run";
  Printf.printf
    "\n\
     (host exposes %d core(s); every affirmative DDA answer appends one\n\
    \ journal record during the protocol run; bare and journaled\n\
    \ runs interleave x5, best of each)\n"
    (Stdlib.Domain.recommended_domain_count ());
  let measure = e20_overhead () in
  Printf.printf "\n%-16s %-11s %-11s %-10s %-10s %-12s\n" "fsync policy"
    "bare (s)" "wall (s)" "overhead" "ops" "bytes";
  List.iter
    (fun (label, policy) ->
      let base, t, ops, size = measure policy in
      Printf.printf "%-16s %-11.4f %-11.4f %9.1f%% %-10d %-12d\n" label base t
        ((t -. base) /. base *. 100.)
        ops size)
    [
      ("never (buffered)", Journal.Never);
      ("every 8", Journal.Every 8);
      ("always", Journal.Always);
    ];
  print_endline
    "\n(buffered journaling must stay within a few percent of the bare run -\n\
    \ the acceptance gate is checked mechanically via meta.journal_overhead\n\
    \ in the BENCH json; 'always' pays one fsync per record and bounds the\n\
    \ durability-vs-throughput trade documented in docs/ROBUSTNESS.md)"

(* ------------------------------------------------------------------ *)
(* E22: materialized views vs recompute (lib/view, docs/VIEWS.md).     *)

(* The paper session's Student extent, grown to [population] entities,
   then a mixed read/update stream at a swept update share.  The same
   seeded stream runs twice — once answering every read with a
   from-scratch [Query.Eval.run], once through a lazy materialized
   view — and every read is checked byte-identical between the arms
   before the timings are reported (the correctness anchor of
   docs/VIEWS.md, measured rather than assumed). *)

let e22_setup =
  lazy
    (let result = Workload.Paper.integrate_sc1_sc2 () in
     let stores =
       [
         (Workload.Paper.sc1, Instance.Store.create Workload.Paper.sc1);
         (Workload.Paper.sc2, Instance.Store.create Workload.Paper.sc2);
       ]
     in
     let session = Server.make_session ~result ~stores () in
     let mapping = result.Result.mapping in
     let translate u =
       Query.Update.to_integrated mapping ~view:Workload.Paper.sc1 u
     in
     let store = ref session.Server.initial_merged in
     for i = 1 to 1000 do
       let u =
         translate
           (Query.Update.insert "Student"
              [
                ("Name", Instance.Value.str (Printf.sprintf "S%04d" i));
                ("GPA", Instance.Value.real (float (i mod 41) /. 10.));
              ])
       in
       store := fst (Query.Update.apply u !store)
     done;
     (mapping, !store))

type e22_point = {
  mv_share : int;  (** update share of the stream, percent *)
  mv_reads : int;
  mv_updates : int;
  mv_eval_ms : float;  (** recompute arm wall time *)
  mv_view_ms : float;  (** materialized arm wall time *)
  mv_speedup : float;  (** eval / view *)
}

let e22_sweep ?(ops = 600) () =
  let mapping, store0 = Lazy.force e22_setup in
  let integrated text =
    fst
      (Query.Rewrite.to_integrated mapping ~view:Workload.Paper.sc1
         (Query.Parser.query_of_string text))
  in
  let q_all = integrated "select Name, GPA from Student" in
  let q_hot = integrated "select Name from Student where GPA >= 3.5" in
  let translate u =
    Query.Update.to_integrated mapping ~view:Workload.Paper.sc1 u
  in
  (* the same op stream for both arms, decided by a reseeded rng *)
  let next_update rng k =
    if Random.State.int rng 10 < 7 then
      translate
        (Query.Update.insert "Student"
           [
             ("Name", Instance.Value.str (Printf.sprintf "N%06d" k));
             ("GPA", Instance.Value.real (float (k mod 41) /. 10.));
           ])
    else
      translate
        (Query.Update.modify "Student"
           ~where:
             (Query.Ast.atom "Name" Query.Ast.Eq
                (Instance.Value.str (Printf.sprintf "S%04d" (1 + (k mod 1000)))))
           [ ("GPA", Instance.Value.real (float ((k * 7) mod 41) /. 10.)) ])
  in
  List.map
    (fun share ->
      (* one deterministic stream per share; [on_update]/[on_read] are
         the arm under test.  When [collect] is set every read is
         serialized for the cross-arm byte comparison — those passes
         are not the ones timed, so the serialization cost cancels out
         of the measurement instead of masking it *)
      let run_arm ~collect ~on_update ~on_read =
        let rng = Random.State.make [| 2200; share |] in
        let store = ref store0 in
        let reads = ref 0 and updates = ref 0 in
        let out = ref [] in
        let t0 = Unix.gettimeofday () in
        for k = 1 to ops do
          if Random.State.int rng 100 < share then begin
            incr updates;
            let u = next_update rng k in
            store := fst (Query.Update.apply u !store);
            on_update !store u
          end
          else begin
            incr reads;
            let q = if k land 1 = 0 then q_all else q_hot in
            let rows = on_read !store q in
            if collect then
              out :=
                String.concat "\n" (List.map Query.Eval.row_to_string rows)
                :: !out
          end
        done;
        (Unix.gettimeofday () -. t0, !reads, !updates, List.rev !out)
      in
      let eval_arm ~collect =
        run_arm ~collect
          ~on_update:(fun _ _ -> ())
          ~on_read:(fun store q -> Query.Eval.run q store)
      in
      let view_arm ~collect =
        let cat = View.create () in
        List.iter
          (fun (name, q) ->
            match
              View.define cat ~name ~policy:View.Lazy ~source:name ~query:q
                ~post:(fun r -> r)
                store0
            with
            | Ok () -> ()
            | Error e -> failwith ("E22: " ^ e))
          [ ("all", q_all); ("hot", q_hot) ];
        run_arm ~collect
          ~on_update:(fun store u -> View.notify_update cat u store)
          ~on_read:(fun store q ->
            let name = if q == q_all then "all" else "hot" in
            match View.read cat name store with
            | Ok (rows, _) -> rows
            | Error e -> failwith ("E22: " ^ e))
      in
      let _, _, _, eval_rows = eval_arm ~collect:true in
      let _, _, _, view_rows = view_arm ~collect:true in
      if not (List.equal String.equal eval_rows view_rows) then
        failwith "E22: materialized reads diverge from recompute";
      let eval_s, reads, updates, _ = eval_arm ~collect:false in
      let view_s, _, _, _ = view_arm ~collect:false in
      {
        mv_share = share;
        mv_reads = reads;
        mv_updates = updates;
        mv_eval_ms = eval_s *. 1000.;
        mv_view_ms = view_s *. 1000.;
        mv_speedup = (if view_s > 0. then eval_s /. view_s else 0.);
      })
    [ 0; 5; 20; 50 ]

let e22 () =
  section "E22" "materialized views vs recompute: lib/view maintenance";
  Printf.printf
    "\n\
     (paper session grown to 1000 students; 600-op streams at each update\n\
    \ share, identical seeds; every read is byte-compared between the\n\
    \ recompute arm and the lazy-view arm before timing is trusted)\n";
  Printf.printf "\n%-10s %-8s %-9s %-12s %-12s %-9s\n" "update %" "reads"
    "updates" "eval (ms)" "view (ms)" "speedup";
  List.iter
    (fun p ->
      Printf.printf "%-10d %-8d %-9d %-12.2f %-12.2f %8.1fx\n" p.mv_share
        p.mv_reads p.mv_updates p.mv_eval_ms p.mv_view_ms p.mv_speedup)
    (e22_sweep ());
  print_endline
    "\n\
     (read-heavy shares must favour the materialized arm; the advantage\n\
    \ narrows as modifies force refreshes.  The sweep lands in the BENCH\n\
    \ json as meta.views)"

(* ------------------------------------------------------------------ *)
(* E23: flat similarity kernels — the triangular shared-class array
   vs the string-keyed partition walk it replaced.                     *)

type e23_kernel_point = {
  dpk_concepts : int;
  dpk_owners : int;
  dpk_pairs : int;
  dpk_oracle_ms : float;
  dpk_flat_ms : float;
  dpk_speedup : float;
}

(* All-pairs shared-class counts: [Equivalence.shared_count] walks the
   partition per query (the string-keyed reference), [Acs_index.shared]
   reads the triangular array.  Every cell is checked equal before any
   timing is trusted. *)
let e23_kernels ?(reps = 25) () =
  List.map
    (fun concepts ->
      let w =
        Workload.Generator.generate
          {
            Workload.Generator.default_params with
            seed = 2300 + concepts;
            concepts;
            schemas = 3;
            population = 400;
          }
      in
      let schemas = w.Workload.Generator.schemas in
      let rec schema_pairs = function
        | [] -> []
        | s :: rest -> List.map (fun s' -> (s, s')) rest @ schema_pairs rest
      in
      let eq =
        List.fold_left
          (fun eq (a, b) ->
            Protocol.collect_equivalences
              { Protocol.defaults with exhaustive_attribute_pairs = true }
              a b w.Workload.Generator.oracle eq)
          (List.fold_left
             (fun eq s -> Equivalence.register_schema s eq)
             Equivalence.empty schemas)
          (schema_pairs schemas)
      in
      let index = Acs_index.build eq in
      let owners =
        List.concat_map
          (fun s ->
            List.map
              (fun oc -> Schema.qname s oc.Object_class.name)
              (Schema.objects s)
            @ List.map
                (fun r -> Schema.qname s r.Relationship.name)
                (Schema.relationships s))
          schemas
      in
      let pairs =
        let rec go = function
          | [] -> []
          | o :: rest -> List.map (fun o' -> (o, o')) rest @ go rest
        in
        go owners
      in
      (* differential check before timing anything *)
      List.iter
        (fun (a, b) ->
          let want = Equivalence.shared_count a b eq in
          let got = Acs_index.shared a b index in
          if want <> got then
            failwith
              (Printf.sprintf "E23: flat kernel diverges at (%s, %s): %d vs %d"
                 (Qname.to_string a) (Qname.to_string b) want got))
        pairs;
      let time_ms f =
        let t0 = Unix.gettimeofday () in
        for _ = 1 to reps do
          f ()
        done;
        (Unix.gettimeofday () -. t0) *. 1000. /. float_of_int reps
      in
      let sink = ref 0 in
      let oracle_ms =
        time_ms (fun () ->
            List.iter
              (fun (a, b) -> sink := !sink + Equivalence.shared_count a b eq)
              pairs)
      in
      let flat_ms =
        time_ms (fun () ->
            List.iter
              (fun (a, b) -> sink := !sink + Acs_index.shared a b index)
              pairs)
      in
      ignore !sink;
      {
        dpk_concepts = concepts;
        dpk_owners = List.length owners;
        dpk_pairs = List.length pairs;
        dpk_oracle_ms = oracle_ms;
        dpk_flat_ms = flat_ms;
        dpk_speedup = (if flat_ms > 0. then oracle_ms /. flat_ms else 0.);
      })
    [ 10; 20; 40 ]

let e23 () =
  section "E23" "flat similarity kernels";
  print_endline
    "\n\
     (all-pairs shared-class counts, string-keyed partition walk vs\n\
    \ triangular int array, equality-checked cell by cell before timing)";
  Printf.printf "\n%-10s %-8s %-8s %-12s %-12s %-9s\n" "concepts" "owners"
    "pairs" "oracle (ms)" "flat (ms)" "speedup";
  List.iter
    (fun p ->
      Printf.printf "%-10d %-8d %-8d %-12.3f %-12.3f %8.1fx\n" p.dpk_concepts
        p.dpk_owners p.dpk_pairs p.dpk_oracle_ms p.dpk_flat_ms p.dpk_speedup)
    (e23_kernels ());
  print_endline
    "\n\
     (the flat kernel answers each query with two id lookups and an\n\
    \ array read.  The sweep lands in the BENCH json as\n\
    \ meta.dataplane.kernels)"

(* ------------------------------------------------------------------ *)
(* E24: the scenario engine (Workload.Scenario) — generation cost and  *)
(* offline replay throughput at two federation sizes.                  *)

type e24_point = {
  scn_seed : int;
  scn_schemas : int;
  scn_directives : int;
  scn_ops : int;
  scn_phases : int;
  scn_gen_ms : float;  (** generate: schemas, script, data, schedule *)
  scn_setup_ms : float;  (** migrate + server create *)
  scn_replay_ms : float;  (** full schedule through [Server.exec] *)
  scn_ops_s : float;
}

let e24_scenarios () =
  List.map
    (fun (seed, schemas, storm, evolve, rounds) ->
      let t0 = Unix.gettimeofday () in
      let p =
        {
          Workload.Scenario.default_params with
          seed;
          schemas;
          storm;
          evolve;
          rounds;
        }
      in
      let scn = Workload.Scenario.generate p in
      if Workload.Scenario.missed_true_pairs scn <> [] then
        failwith "E24: scenario missed ground-truth pairs";
      let gen_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      let t1 = Unix.gettimeofday () in
      let session =
        Server.make_session ~result:scn.Workload.Scenario.result
          ~stores:scn.Workload.Scenario.stores ()
      in
      let cfg =
        {
          Server.listen = Server.Wire.Tcp ("127.0.0.1", 0);
          queue = 256;
          deadline_ms = None;
          cache = 256;
          debug = false;
          repl = Server.default_repl;
        }
      in
      match Server.create session cfg with
      | Error msg -> failwith ("E24: server setup failed: " ^ msg)
      | Ok t ->
          Fun.protect
            ~finally:(fun () -> Server.stop t)
            (fun () ->
              let setup_ms = (Unix.gettimeofday () -. t1) *. 1000. in
              let t2 = Unix.gettimeofday () in
              let transcript =
                Workload.Scenario.transcript
                  ~play:(fun ~storm:_ frames ->
                    Array.map (Server.exec t) frames)
                  scn.Workload.Scenario.schedule
              in
              let replay_ms = (Unix.gettimeofday () -. t2) *. 1000. in
              if String.length transcript = 0 then
                failwith "E24: empty transcript";
              let ops = Workload.Scenario.ops_total scn in
              {
                scn_seed = seed;
                scn_schemas = schemas;
                scn_directives =
                  List.length scn.Workload.Scenario.directives;
                scn_ops = ops;
                scn_phases = List.length scn.Workload.Scenario.schedule;
                scn_gen_ms = gen_ms;
                scn_setup_ms = setup_ms;
                scn_replay_ms = replay_ms;
                scn_ops_s =
                  float_of_int ops /. Float.max (replay_ms /. 1000.) 1e-9;
              }))
    [ (11, 5, 24, 6, 2); (11, 8, 36, 9, 2) ]

let e24 () =
  section "E24" "scenario engine: federation-scale mixed-op schedules";
  print_endline
    "\n\
     (each row: one seeded scenario generated end to end — flavored\n\
    \ schemas, session script, instances, op schedule — with full\n\
    \ ground-truth recovery required, then its whole schedule replayed\n\
    \ offline through Server.exec, the differential harness's\n\
    \ reference leg)";
  Printf.printf "\n%-6s %-8s %-11s %-6s %-8s %-9s %-10s %-11s %-8s\n" "seed"
    "schemas" "directives" "ops" "phases" "gen (ms)" "setup (ms)"
    "replay (ms)" "ops/s";
  List.iter
    (fun p ->
      Printf.printf "%-6d %-8d %-11d %-6d %-8d %-9.1f %-10.1f %-11.1f %-8.0f\n"
        p.scn_seed p.scn_schemas p.scn_directives p.scn_ops p.scn_phases
        p.scn_gen_ms p.scn_setup_ms p.scn_replay_ms p.scn_ops_s)
    (e24_scenarios ());
  print_endline
    "\n\
     (generation is dominated by the pre-validating apply of the\n\
    \ directive script; replay by view materialization and storms.\n\
    \ Both sizes land in the BENCH json as meta.scenarios)"

(* ------------------------------------------------------------------ *)
(* E25: replication (lib/replicate, docs/ROBUSTNESS.md) — what a fresh *)
(* client pays to fail over past a dead endpoint.                      *)

let e25_session () =
  let module St = Instance.Store in
  let module V = Instance.Value in
  let student name gpa =
    St.tuple [ ("Name", V.str name); ("GPA", V.real gpa) ]
  in
  let store = St.create Workload.Paper.sc1 in
  let store, _ = St.insert (Name.v "Student") (student "Ann" 3.9) store in
  let store, _ = St.insert (Name.v "Student") (student "Ben" 2.5) store in
  let result = Workload.Paper.integrate_sc1_sc2 () in
  Server.make_session ~result
    ~stores:
      [
        (Workload.Paper.sc1, store);
        (Workload.Paper.sc2, St.create Workload.Paper.sc2);
      ]
    ()

let e25_cfg repl =
  {
    Server.listen = Server.Wire.Tcp ("127.0.0.1", 0);
    queue = 256;
    deadline_ms = None;
    cache = 64;
    debug = false;
    repl;
  }

let e25_addr t =
  match Server.port t with
  | Some p -> Server.Wire.Tcp ("127.0.0.1", p)
  | None -> failwith "E25: no bound port"

type e25_failover_point = {
  fo_label : string;
  fo_reps : int;
  fo_p50_ms : float;
  fo_p95_ms : float;
  fo_max_ms : float;
}

(* Per-roundtrip wall time of a fresh client: connecting straight to a
   live node (the floor) vs a failover handle whose endpoint list leads
   with a port that refuses connections — each rep pays the refused
   connect plus one backoff delay before the live endpoint answers.
   The policy seed varies per rep so the jitter band is sampled, not a
   single pinned delay repeated. *)
let e25_failover ?(reps = 40) () =
  let dead_addr =
    (* bind, record the kernel-assigned port, stop: nothing listens on
       it afterwards, so every connect is refused immediately *)
    match Server.start (e25_session ()) (e25_cfg Server.default_repl) with
    | Error msg -> failwith ("E25: probe server failed to start: " ^ msg)
    | Ok t ->
        let a = e25_addr t in
        Server.stop t;
        a
  in
  match Server.start (e25_session ()) (e25_cfg Server.default_repl) with
  | Error msg -> failwith ("E25: live server failed to start: " ^ msg)
  | Ok live ->
      Fun.protect
        ~finally:(fun () -> Server.stop live)
        (fun () ->
          let live_addr = e25_addr live in
          let frame =
            Server.Wire.request_to_line ~view:"sc1"
              ~text:"select Name from Student" "query"
          in
          let time_roundtrips mk =
            Array.init reps (fun i ->
                let rt, fin = mk i in
                Fun.protect ~finally:fin (fun () ->
                    let t0 = Unix.gettimeofday () in
                    ignore (rt frame);
                    (Unix.gettimeofday () -. t0) *. 1000.))
          in
          let direct =
            time_roundtrips (fun _ ->
                let c = Server.Client.connect live_addr in
                (Server.Client.roundtrip c, fun () -> Server.Client.close c))
          in
          let failed_over =
            time_roundtrips (fun i ->
                let f =
                  Server.Client.failover
                    ~retry:
                      {
                        Replicate.Backoff.default with
                        attempts = 4;
                        base_ms = 2.;
                        max_ms = 16.;
                        seed = i;
                      }
                    [ dead_addr; live_addr ]
                in
                ( Server.Client.failover_roundtrip f,
                  fun () -> Server.Client.failover_close f ))
          in
          let point label samples =
            Array.sort compare samples;
            let n = Array.length samples in
            let pct q =
              samples.(Int.min (n - 1)
                         (int_of_float ((q *. float_of_int (n - 1)) +. 0.5)))
            in
            {
              fo_label = label;
              fo_reps = n;
              fo_p50_ms = pct 0.50;
              fo_p95_ms = pct 0.95;
              fo_max_ms = samples.(n - 1);
            }
          in
          [
            point "connect+query, live endpoint" direct;
            point "failover past dead endpoint" failed_over;
          ])

let e25 () =
  section "E25" "replication: client failover latency";
  print_endline
    "\n\
     (per-roundtrip wall time of a fresh client, straight to a live node\n\
    \ vs walking past a refused endpoint under backoff)";
  Printf.printf "\n%-30s %-6s %-9s %-9s %-9s\n" "path" "reps" "p50 ms"
    "p95 ms" "max ms";
  List.iter
    (fun p ->
      Printf.printf "%-30s %-6d %-9.2f %-9.2f %-9.2f\n" p.fo_label p.fo_reps
        p.fo_p50_ms p.fo_p95_ms p.fo_max_ms)
    (e25_failover ());
  print_endline
    "\n\
     (lands in the BENCH json as meta.replication.failover)"

let all =
  [
    e1; e2; e3; e4; e5; e6; e7; e8; e9; e10; e11; e12; e13; e14; e15; e16; e17;
    e18; e19; e20; e22; e23; e24; e25;
  ]

let by_id =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
    ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10); ("e11", e11);
    ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15); ("e16", e16);
    ("e17", e17); ("e18", e18); ("e19", e19); ("e20", e20); ("e22", e22);
    ("e23", e23); ("e24", e24); ("e25", e25);
  ]
