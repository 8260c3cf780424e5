(* Tests for the OCS matrix and the resemblance-function ordering —
   including the exact numbers printed on Screen 8 of the paper. *)

open Ecr
open Integrate

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check
let close = Alcotest.float 1e-6

let paper_eq =
  List.fold_left
    (fun eq (x, y) -> Equivalence.declare x y eq)
    (Equivalence.register_schema Workload.Paper.sc2
       (Equivalence.register_schema Workload.Paper.sc1 Equivalence.empty))
    Workload.Paper.equivalences

let sc1 = Workload.Paper.sc1
let sc2 = Workload.Paper.sc2
let obj s n = Option.get (Schema.find_object (Name.v n) s)

let ratio_tests =
  [
    tc "Screen 8: Department-Department is 0.5000" (fun () ->
        check close "ratio" 0.5
          (Similarity.attribute_ratio (sc1, obj sc1 "Department")
             (sc2, obj sc2 "Department") paper_eq));
    tc "Screen 8: Student-Grad_student is 0.5000" (fun () ->
        check close "ratio" 0.5
          (Similarity.attribute_ratio (sc1, obj sc1 "Student")
             (sc2, obj sc2 "Grad_student") paper_eq));
    tc "Screen 8: Student-Faculty is 0.3333" (fun () ->
        check close "ratio" (1.0 /. 3.0)
          (Similarity.attribute_ratio (sc1, obj sc1 "Student")
             (sc2, obj sc2 "Faculty") paper_eq));
    tc "unrelated pairs are 0" (fun () ->
        check close "ratio" 0.0
          (Similarity.attribute_ratio (sc1, obj sc1 "Department")
             (sc2, obj sc2 "Faculty") paper_eq));
    tc "0.5 means full coverage of the smaller class" (fun () ->
        (* the paper's own reading of the ratio *)
        let r =
          Similarity.attribute_ratio (sc1, obj sc1 "Student")
            (sc2, obj sc2 "Grad_student") paper_eq
        in
        check Alcotest.bool "never above 0.5" true (r <= 0.5));
    tc "relationship ratio" (fun () ->
        let majors = Option.get (Schema.find_relationship (Name.v "Majors") sc1) in
        let major_in = Option.get (Schema.find_relationship (Name.v "Major_in") sc2) in
        check close "since matches" 0.5
          (Similarity.relationship_ratio (sc1, majors) (sc2, major_in) paper_eq));
  ]

let ranking_tests =
  [
    tc "Screen 8 order reproduced" (fun () ->
        let ranked = Similarity.ranked_object_pairs sc1 sc2 paper_eq in
        let names =
          List.map
            (fun rk ->
              (Qname.to_string rk.Similarity.left, Qname.to_string rk.Similarity.right))
            (Similarity.top 3 ranked)
        in
        check
          (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
          "order"
          [
            ("sc1.Department", "sc2.Department");
            ("sc1.Student", "sc2.Grad_student");
            ("sc1.Student", "sc2.Faculty");
          ]
          names);
    tc "every cross pair is listed" (fun () ->
        check Alcotest.int "2x3" 6
          (List.length (Similarity.ranked_object_pairs sc1 sc2 paper_eq)));
    tc "ratios never increase down the list" (fun () ->
        let ranked = Similarity.ranked_object_pairs sc1 sc2 paper_eq in
        let rec monotone = function
          | a :: (b :: _ as rest) ->
              a.Similarity.ratio >= b.Similarity.ratio && monotone rest
          | _ -> true
        in
        check Alcotest.bool "monotone" true (monotone ranked));
    tc "shared counts populate the OCS entries" (fun () ->
        let ranked = Similarity.ranked_object_pairs sc1 sc2 paper_eq in
        let find l r =
          List.find
            (fun rk ->
              Qname.to_string rk.Similarity.left = l
              && Qname.to_string rk.Similarity.right = r)
            ranked
        in
        check Alcotest.int "student-grad shares 2" 2
          (find "sc1.Student" "sc2.Grad_student").Similarity.shared;
        check Alcotest.int "dept-dept shares 1" 1
          (find "sc1.Department" "sc2.Department").Similarity.shared);
    tc "relationship ranking" (fun () ->
        let ranked = Similarity.ranked_relationship_pairs sc1 sc2 paper_eq in
        check Alcotest.int "1x2" 2 (List.length ranked);
        match ranked with
        | first :: _ ->
            check Alcotest.string "majors pair first" "sc2.Major_in"
              (Qname.to_string first.Similarity.right)
        | [] -> Alcotest.fail "empty ranking");
    tc "top truncates" (fun () ->
        check Alcotest.int "top 2" 2
          (List.length (Similarity.top 2 (Similarity.ranked_object_pairs sc1 sc2 paper_eq))));
    tc "without equivalences everything ties at 0" (fun () ->
        let eq =
          Equivalence.register_schema sc2 (Equivalence.register_schema sc1 Equivalence.empty)
        in
        List.iter
          (fun rk -> check close "zero" 0.0 rk.Similarity.ratio)
          (Similarity.ranked_object_pairs sc1 sc2 eq));
    tc "heuristic puts true pairs first on generated workloads" (fun () ->
        let w =
          Workload.Generator.generate
            { Workload.Generator.default_params with seed = 7 }
        in
        match w.Workload.Generator.schemas with
        | [ s1; s2 ] ->
            let eq =
              (* perfect phase-2 answers from the oracle *)
              Integrate.Protocol.collect_equivalences
                { Integrate.Protocol.defaults with exhaustive_attribute_pairs = true }
                s1 s2 w.Workload.Generator.oracle Equivalence.empty
            in
            let ranked = Similarity.ranked_object_pairs s1 s2 eq in
            let k = List.length w.Workload.Generator.true_pairs in
            let topk = Similarity.top k ranked in
            let hits =
              List.length
                (List.filter
                   (fun rk ->
                     List.exists
                       (fun (x, y) ->
                         Qname.equal x rk.Similarity.left
                         && Qname.equal y rk.Similarity.right)
                       w.Workload.Generator.true_pairs)
                   topk)
            in
            check Alcotest.bool "precision@k above half" true
              (k = 0 || float_of_int hits /. float_of_int k > 0.5)
        | _ -> Alcotest.fail "expected two schemas");
  ]

(* ------------------------------------------------------------------ *)
(* The indexed engine: Acs_index must be observationally equal to the
   naive partition scan, and so must the rankings a workspace derives
   after any sequence of equivalence edits.                             *)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen prop)

let params_gen =
  QCheck.Gen.(
    let* seed = int_range 0 10_000 in
    let* concepts = int_range 4 14 in
    let* noise = float_range 0.0 0.5 in
    return
      {
        Workload.Generator.default_params with
        seed;
        concepts;
        naming_noise = noise;
        population = concepts * 10;
      })

let params =
  QCheck.make
    ~print:(fun p ->
      Printf.sprintf "seed=%d concepts=%d noise=%f" p.Workload.Generator.seed
        p.Workload.Generator.concepts p.Workload.Generator.naming_noise)
    params_gen

(* Every structure (object class or relationship set) of a schema list,
   as qualified names — the owner universe the OCS matrix ranges over. *)
let owners schemas =
  List.concat_map
    (fun s ->
      List.map (fun oc -> Schema.qname s oc.Object_class.name) (Schema.objects s)
      @ List.map
          (fun r -> Schema.qname s r.Relationship.name)
          (Schema.relationships s))
    schemas

let attributes schemas =
  List.concat_map
    (fun s ->
      List.concat_map
        (fun oc ->
          List.map
            (fun (a : Attribute.t) ->
              Qname.Attr.make (Schema.qname s oc.Object_class.name) a.Attribute.name)
            oc.Object_class.attributes)
        (Schema.objects s)
      @ List.concat_map
          (fun r ->
            List.map
              (fun (a : Attribute.t) ->
                Qname.Attr.make
                  (Schema.qname s r.Relationship.name)
                  a.Attribute.name)
              r.Relationship.attributes)
          (Schema.relationships s))
    schemas

let oracle_equivalence w s1 s2 =
  Protocol.collect_equivalences
    { Protocol.defaults with exhaustive_attribute_pairs = true }
    s1 s2 w.Workload.Generator.oracle Equivalence.empty

let index_matches_naive eq schemas =
  let index = Acs_index.build eq in
  let os = owners schemas in
  List.for_all
    (fun o1 ->
      List.for_all
        (fun o2 ->
          Acs_index.shared o1 o2 index = Equivalence.shared_count o1 o2 eq)
        os)
    os

(* The reference ranking of one schema pair, over each side's
   (structure, attribute count) list: every OCS entry is an
   [Equivalence.shared_count] partition scan, stably sorted. *)
let scanned_ranking side1 side2 eq =
  List.concat_map
    (fun (left, n1) ->
      List.map
        (fun (right, n2) ->
          let shared = Equivalence.shared_count left right eq
          and smaller = Int.min n1 n2 in
          let ratio =
            if shared = 0 && smaller = 0 then 0.0
            else float_of_int shared /. float_of_int (shared + smaller)
          in
          { Similarity.left; right; shared; smaller; ratio })
        side2)
    side1
  |> List.stable_sort Similarity.compare_ranked

let object_sizes s =
  List.map
    (fun oc ->
      (Schema.qname s oc.Object_class.name, List.length oc.Object_class.attributes))
    (Schema.objects s)

let relationship_sizes s =
  List.map
    (fun r ->
      (Schema.qname s r.Relationship.name, List.length r.Relationship.attributes))
    (Schema.relationships s)

(* A session: interleaved declares (pairing random attributes) and
   separates (random attributes), driven by index picks. *)
let session_gen =
  QCheck.Gen.(
    let* p = params_gen in
    let* ops = list_size (int_range 0 40) (triple bool nat nat) in
    return (p, ops))

let session =
  QCheck.make
    ~print:(fun (p, ops) ->
      Printf.sprintf "seed=%d concepts=%d ops=%d" p.Workload.Generator.seed
        p.Workload.Generator.concepts (List.length ops))
    session_gen

let indexed_engine_props =
  [
    qtest ~count:60 "indexed OCS matrix equals the naive partition scan" params
      (fun p ->
        let w = Workload.Generator.generate p in
        match w.Workload.Generator.schemas with
        | [ s1; s2 ] ->
            index_matches_naive (oracle_equivalence w s1 s2) [ s1; s2 ]
        | _ -> false);
    qtest ~count:60
      "workspace rankings after declare/separate equal the partition scan"
      session
      (fun (p, ops) ->
        let w = Workload.Generator.generate p in
        let schemas = w.Workload.Generator.schemas in
        let attrs = Array.of_list (attributes schemas) in
        let n = Array.length attrs in
        if n = 0 then true
        else begin
          let ws =
            List.fold_left (fun ws s -> Workspace.add_schema s ws) Workspace.empty schemas
          in
          let ws =
            List.fold_left
              (fun ws (sep, i, j) ->
                if sep then Workspace.separate_attribute attrs.(i mod n) ws
                else
                  Workspace.declare_equivalent attrs.(i mod n) attrs.(j mod n) ws)
              ws ops
          in
          let eq = Workspace.equivalence ws in
          List.for_all
            (fun s1 ->
              List.for_all
                (fun s2 ->
                  let n1 = Schema.name s1 and n2 = Schema.name s2 in
                  Workspace.ranked_pairs n1 n2 ws
                  = scanned_ranking (object_sizes s1) (object_sizes s2) eq
                  && Workspace.ranked_relationship_pairs n1 n2 ws
                     = scanned_ranking (relationship_sizes s1)
                         (relationship_sizes s2) eq)
                schemas)
            schemas
        end);
  ]

let () =
  Alcotest.run "similarity"
    [
      ("ratios", ratio_tests);
      ("ranking", ranking_tests);
      ("indexed-engine", indexed_engine_props);
    ]
