(* Phase 4 pinned byte for byte: one digest per workload of everything
   [Pipeline.integrate] returns (the integrated DDL, the summary and
   warnings, the mappings, the origin of every integrated structure and
   the attribute components), recomputed and compared with digests
   committed under test/fixtures; plus one hand-built case, with its
   exact text, for each warning Phase 4 can raise. *)

open Ecr
open Integrate

let tc name f = Alcotest.test_case name `Quick f
let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Digests.                                                            *)

let origin_to_string = function
  | Result.Original q -> "original " ^ Qname.to_string q
  | Result.Equivalent qs ->
      "equivalent " ^ String.concat " " (List.map Qname.to_string qs)
  | Result.Derived ns -> "derived " ^ String.concat " " (List.map Name.to_string ns)

let render (r : Result.t) =
  let b = Buffer.create 4096 in
  let line s =
    Buffer.add_string b s;
    Buffer.add_char b '\n'
  in
  line (Ddl.Printer.to_string r.Result.schema);
  line (Result.summary r);
  List.iter (fun w -> line ("warning " ^ w)) r.Result.warnings;
  line (Format.asprintf "%a" Mapping.pp r.Result.mapping);
  let origins kind =
    Name.Map.iter (fun n o ->
        line (kind ^ " " ^ Name.to_string n ^ ": " ^ origin_to_string o))
  in
  origins "object" r.Result.object_origin;
  origins "relationship" r.Result.relationship_origin;
  Name.Map.iter
    (fun s attrs ->
      Name.Map.iter
        (fun a comps ->
          line
            (Name.to_string s ^ "." ^ Name.to_string a ^ " <- "
            ^ String.concat " " (List.map Qname.Attr.to_string comps)))
        attrs)
    r.Result.attr_components;
  Buffer.contents b

let digest r = Digest.to_hex (Digest.string (render r))

(* The workloads: the paper's sc1+sc2 session and its Figure 2
   miniatures, the two domain sessions, generated federations through
   the interactive protocol (perfect and noisy oracle, and the binary
   ladder for three or more schemas), and scenario federations. *)

(* (schemas, concepts, relationship concepts) *)
let shapes = [ (2, 8, 3); (3, 12, 6); (4, 16, 8); (2, 20, 10) ]

(* Seeds 7 and 18 reach the no-derived-set warning, 45 the twin
   participants one; the others are the first few. *)
let generated_seeds = [ 1; 2; 3; 4; 5; 6; 7; 18; 45 ]

(* Scenario seed 6 derives a relationship set; 42 at the default size
   is federation-read's session. *)
let scenarios =
  [
    { Workload.Scenario.default_params with seed = 6 };
    { Workload.Scenario.default_params with seed = 7 };
    Util.default_scenario 42;
  ]

let generated seed (schemas, concepts, relationship_concepts) =
  let w =
    Workload.Generator.generate
      {
        Workload.Generator.default_params with
        seed;
        schemas;
        concepts;
        relationship_concepts;
      }
  in
  let name kind =
    Printf.sprintf "gen-%d-%d-%d-%d-%s" seed schemas concepts
      relationship_concepts kind
  in
  let run dda = fst (Protocol.run w.Workload.Generator.schemas dda) in
  let ladder () =
    (Strategy.binary_ladder ~register:w.Workload.Generator.register
       w.Workload.Generator.schemas w.Workload.Generator.oracle)
      .Strategy.result
  in
  [
    (name "perfect", run w.Workload.Generator.oracle);
    (name "noisy", run (Workload.Generator.noisy_oracle w ~error_rate:0.25 ~seed));
  ]
  @ if schemas < 3 then [] else [ (name "ladder", ladder ()) ]

let cases =
  lazy
    ((("paper", Workload.Paper.integrate_sc1_sc2 ())
     :: List.mapi
          (fun i m ->
            ( Printf.sprintf "fig2%c" (Char.chr (Char.code 'a' + i)),
              Workload.Paper.integrate_mini m ))
          Workload.Paper.fig2)
    @ [
        ("university", Workload.Domains.integrate Workload.Domains.university);
        ("company", Workload.Domains.integrate Workload.Domains.company);
      ]
    @ List.concat_map
        (fun seed -> List.concat_map (generated seed) shapes)
        generated_seeds
    @ List.map
        (fun (p : Workload.Scenario.params) ->
          ( Printf.sprintf "scenario-%d-%d-%d" p.Workload.Scenario.seed
              p.Workload.Scenario.schemas p.Workload.Scenario.concepts,
            (Workload.Scenario.generate p).Workload.Scenario.result ))
        scenarios)

(* The merge branches a case reaches, counted from what it returns. *)
let branches =
  let count_origins field pred (r : Result.t) =
    Name.Map.fold (fun _ o n -> if pred o then n + 1 else n) (field r) 0
  in
  let equivalent = function Result.Equivalent _ -> true | _ -> false in
  let derived = function Result.Derived _ -> true | _ -> false in
  let warned text (r : Result.t) =
    List.length (List.filter (Util.contains ~needle:text) r.Result.warnings)
  in
  [
    ("object equals-merge", count_origins (fun r -> r.Result.object_origin) equivalent);
    ("derived object class", count_origins (fun r -> r.Result.object_origin) derived);
    ( "relationship equals-merge",
      count_origins (fun r -> r.Result.relationship_origin) equivalent );
    ( "derived relationship set",
      count_origins (fun r -> r.Result.relationship_origin) derived );
    ("split group", warned "asserted equal but participants do not correspond");
    ("no derived set", warned "related but participants do not correspond");
    ("spans unrelated", warned "spans unrelated classes");
    ("twin participants", warned "without distinct roles");
    ("incompatible domains", warned "incompatible domains merged");
    ("collapsed generalisation", warned "collapsed into one node");
  ]

let fixture =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    "../../../test/fixtures/phase4.digests"

let digest_tests =
  [
    tc "every workload's Phase 4 output matches its committed digest"
      (fun () ->
        let cases = Lazy.force cases in
        let actual =
          String.concat ""
            (List.map (fun (n, r) -> n ^ " " ^ digest r ^ "\n") cases)
        in
        List.iter
          (fun (branch, count) ->
            Printf.printf "%-26s %5d\n" branch
              (List.fold_left (fun acc (_, r) -> acc + count r) 0 cases))
          branches;
        let expected = In_channel.with_open_bin fixture In_channel.input_all in
        if actual <> expected then begin
          print_string actual;
          Alcotest.failf "%s differs from the recomputed digests (printed above)"
            fixture
        end);
    tc "the workloads reach every merge branch the fixture pins" (fun () ->
        let cases = Lazy.force cases in
        List.iter
          (fun branch ->
            let count = List.assoc branch branches in
            check Alcotest.bool branch true
              (List.exists (fun (_, r) -> count r > 0) cases))
          [
            "relationship equals-merge";
            "derived relationship set";
            "split group";
            "no derived set";
            "spans unrelated";
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Every warning, with its text.                                       *)

let q = Qname.v
let a = Qname.Attr.v

let schema name ?(rels = []) objects =
  Schema.make (Name.v name) ~objects ~relationships:rels

let entity ?(attrs = []) n = Object_class.entity ~attrs (Name.v n)

let binary ?(attrs = []) n l r =
  Relationship.binary ~attrs (Name.v n) (Name.v l, Cardinality.any)
    (Name.v r, Cardinality.any)

let warnings_of ?(equivalences = []) ?(objects = []) ?(rels = []) s1 s2 =
  match
    Pipeline.quick s1 s2 ~equivalences ~object_assertions:objects
      ~relationship_assertions:rels ()
  with
  | Ok r -> r.Result.warnings
  | Error _ -> Alcotest.fail "the session is consistent"

let warns expected actual =
  check Alcotest.(list string) "warnings" [ expected ] actual

let warning_tests =
  [
    tc "equal classes with incompatible attribute domains" (fun () ->
        warns "incompatible domains merged for x.A.n"
          (warnings_of
             (schema "x" [ entity ~attrs:[ Attribute.v "n" "date" ] "A" ])
             (schema "y" [ entity ~attrs:[ Attribute.v "n" "bool" ] "B" ])
             ~equivalences:[ (a "x" "A" "n", a "y" "B" "n") ]
             ~objects:[ (q "x" "A", Assertion.Equal, q "y" "B") ]));
    tc "an attribute equivalence across unrelated classes" (fun () ->
        warns
          "attribute equivalence class of x.A.n spans unrelated classes; kept \
           separate"
          (warnings_of
             (schema "x" [ entity ~attrs:[ Attribute.v "n" "char" ] "A" ])
             (schema "y" [ entity ~attrs:[ Attribute.v "n" "char" ] "B" ])
             ~equivalences:[ (a "x" "A" "n", a "y" "B" "n") ]));
    tc "a may-be pair inside one equals group is refused as a conflict"
      (fun () ->
        (* "collapsed into one node" needs a may-be or disjoint-integrable
           cell between two classes that equals puts in one group, which
           the closed matrix never holds *)
        let s1 = schema "x" [ entity "A"; entity "C" ]
        and s2 = schema "y" [ entity "B" ] in
        check Alcotest.bool "refused" true
          (Stdlib.Result.is_error
             (Pipeline.quick s1 s2 ~equivalences:[]
                ~object_assertions:
                  [
                    (q "x" "A", Assertion.Equal, q "y" "B");
                    (q "x" "C", Assertion.Equal, q "y" "B");
                    (q "x" "A", Assertion.May_be, q "x" "C");
                  ]
                ())));
    tc "equal relationship sets whose participants do not correspond"
      (fun () ->
        warns
          "relationship y.S asserted equal but participants do not \
           correspond; kept separate"
          (warnings_of
             (schema "x" ~rels:[ binary "R" "A" "B" ] [ entity "A"; entity "B" ])
             (schema "y" ~rels:[ binary "S" "C" "D" ] [ entity "C"; entity "D" ])
             ~rels:[ (q "x" "R", Assertion.Equal, q "y" "S") ]));
    tc "equal relationship sets with incompatible attribute domains"
      (fun () ->
        warns "incompatible domains merged for x.R.n"
          (warnings_of
             (schema "x"
                ~rels:[ binary ~attrs:[ Attribute.v "n" "date" ] "R" "A" "B" ]
                [ entity "A"; entity "B" ])
             (schema "y"
                ~rels:[ binary ~attrs:[ Attribute.v "n" "bool" ] "S" "C" "D" ]
                [ entity "C"; entity "D" ])
             ~equivalences:[ (a "x" "R" "n", a "y" "S" "n") ]
             ~objects:
               [
                 (q "x" "A", Assertion.Equal, q "y" "C");
                 (q "x" "B", Assertion.Equal, q "y" "D");
               ]
             ~rels:[ (q "x" "R", Assertion.Equal, q "y" "S") ]));
    tc "related relationship sets whose participants do not correspond"
      (fun () ->
        warns
          "relationship sets x.R and y.S related but participants do not \
           correspond; no derived set generated"
          (warnings_of
             (schema "x" ~rels:[ binary "R" "A" "B" ] [ entity "A"; entity "B" ])
             (schema "y" ~rels:[ binary "S" "C" "D" ] [ entity "C"; entity "D" ])
             ~rels:[ (q "x" "R", Assertion.May_be, q "y" "S") ]));
    tc "related relationship sets that widen to twin participants" (fun () ->
        (* y.P is x.B and y.Q is x.A, a category and its parent, so
           matching R's A against S's P widens both slots to A's node,
           where no role tells them apart *)
        warns
          "relationship sets x.R and y.S related but participants widen to \
           one class without distinct roles; no derived set generated"
          (warnings_of
             (schema "x" ~rels:[ binary "R" "A" "B" ]
                [ entity "A"; Object_class.category ~parents:[ Name.v "A" ] (Name.v "B") ])
             (schema "y" ~rels:[ binary "S" "P" "Q" ]
                [ Object_class.category ~parents:[ Name.v "Q" ] (Name.v "P"); entity "Q" ])
             ~objects:
               [
                 (q "x" "B", Assertion.Equal, q "y" "P");
                 (q "x" "A", Assertion.Equal, q "y" "Q");
               ]
             ~rels:[ (q "x" "R", Assertion.May_be, q "y" "S") ]));
  ]

let () =
  Alcotest.run "phase4"
    [ ("digests", digest_tests); ("warnings", warning_tests) ]
