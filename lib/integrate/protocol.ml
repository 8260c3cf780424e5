open Ecr

type options = {
  exhaustive_attribute_pairs : bool;
  suggestion_weights : Heuristics.Resemblance.weighted;
  suggestion_threshold : float;
  max_object_pairs : int option;
  skip_determined : bool;
  retry_conflicts : int;
}

let defaults =
  {
    exhaustive_attribute_pairs = false;
    suggestion_weights =
      Heuristics.Resemblance.default_weights Heuristics.Synonyms.default;
    suggestion_threshold = 0.5;
    max_object_pairs = None;
    skip_determined = true;
    retry_conflicts = 1;
  }

type stats = {
  pairs_presented : int;
  pairs_skipped_determined : int;
  assertions_accepted : int;
  assertions_rejected : int;
}

let zero_stats =
  {
    pairs_presented = 0;
    pairs_skipped_determined = 0;
    assertions_accepted = 0;
    assertions_rejected = 0;
  }

let add_stats a b =
  {
    pairs_presented = a.pairs_presented + b.pairs_presented;
    pairs_skipped_determined =
      a.pairs_skipped_determined + b.pairs_skipped_determined;
    assertions_accepted = a.assertions_accepted + b.assertions_accepted;
    assertions_rejected = a.assertions_rejected + b.assertions_rejected;
  }

(* ------------------------------------------------------------------ *)
(* Phase 2.                                                            *)

let structure_attr_pairs options (s1, name1, attrs1) (s2, name2, attrs2) =
  let q1 = Schema.qname s1 name1 and q2 = Schema.qname s2 name2 in
  if options.exhaustive_attribute_pairs then
    List.concat_map
      (fun a ->
        List.map
          (fun b ->
            ( (Qname.Attr.make q1 a.Attribute.name, a),
              (Qname.Attr.make q2 b.Attribute.name, b) ))
          attrs2)
      attrs1
  else begin
    (* ask only about heuristic candidates, best-first *)
    let score a b =
      Heuristics.Resemblance.attribute_score options.suggestion_weights a b
    in
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b ->
            if score a b >= options.suggestion_threshold then
              Some
                ( (Qname.Attr.make q1 a.Attribute.name, a),
                  (Qname.Attr.make q2 b.Attribute.name, b) )
            else None)
          attrs2)
      attrs1
  end

(* The candidate attribute pairs of one schema pair, in presentation
   order (object-class pairs, outer [s1] x inner [s2], then
   relationship pairs).  Pure in the schemas and options — no DDA, no
   equivalence state — so [run] can compute candidate lists for every
   schema pair in parallel and still ask the DDA the exact sequential
   question sequence. *)
let equivalence_candidates options s1 s2 =
  let over structures1 structures2 ~describe =
    List.concat_map
      (fun x1 ->
        List.concat_map
          (fun x2 ->
            structure_attr_pairs options (describe s1 x1) (describe s2 x2))
          structures2)
      structures1
  in
  over (Schema.objects s1) (Schema.objects s2) ~describe:(fun s oc ->
      (s, oc.Object_class.name, oc.Object_class.attributes))
  @ over
      (Schema.relationships s1)
      (Schema.relationships s2)
      ~describe:(fun s r -> (s, r.Relationship.name, r.Relationship.attributes))

let collect_equivalences_with candidates s1 s2 (dda : Dda.t) eq =
  let eq = Equivalence.register_schema s2 (Equivalence.register_schema s1 eq) in
  List.fold_left
    (fun eq (left, right) ->
      if dda.Dda.attr_equivalent left right then
        Equivalence.declare (fst left) (fst right) eq
      else eq)
    eq candidates

let collect_equivalences options s1 s2 (dda : Dda.t) eq =
  collect_equivalences_with (equivalence_candidates options s1 s2) s1 s2 dda eq

(* ------------------------------------------------------------------ *)
(* Phase 3.                                                            *)

let collect_over_pairs options (dda : Dda.t) ask ranked matrix =
  List.fold_left
    (fun (matrix, stats) rk ->
      let left = rk.Similarity.left and right = rk.Similarity.right in
      if
        options.skip_determined
        && Assertions.assertion_between matrix left right <> None
      then
        ( matrix,
          { stats with
            pairs_skipped_determined = stats.pairs_skipped_determined + 1
          } )
      else begin
        let stats = { stats with pairs_presented = stats.pairs_presented + 1 } in
        let rec settle matrix stats answer fuel =
          match answer with
          | None -> (matrix, stats)
          | Some assertion -> (
              match Assertions.add left assertion right matrix with
              | Ok matrix ->
                  ( matrix,
                    { stats with
                      assertions_accepted = stats.assertions_accepted + 1
                    } )
              | Error conflict -> (
                  if fuel <= 0 then
                    ( matrix,
                      { stats with
                        assertions_rejected = stats.assertions_rejected + 1
                      } )
                  else
                    match dda.Dda.resolve_conflict conflict with
                    | Dda.Withdraw ->
                        ( matrix,
                          { stats with
                            assertions_rejected = stats.assertions_rejected + 1
                          } )
                    | Dda.Replace a' -> settle matrix stats (Some a') (fuel - 1)))
        in
        settle matrix stats (ask left right) options.retry_conflicts
      end)
    (matrix, zero_stats) ranked

(* The ranked pair list for one schema pair: the whole ordering, or —
   under a DDA effort budget — only the best [n] pairs by heap
   selection, skipping the full sort.  A caller-supplied index (built
   once per equivalence state) is reused across every schema pair. *)
let ranked_objects options index s1 s2 =
  match options.max_object_pairs with
  | None -> Similarity.ranked_object_pairs_with index s1 s2
  | Some n -> Similarity.top_object_pairs ~k:n index s1 s2

let ranked_relationships options index s1 s2 =
  match options.max_object_pairs with
  | None -> Similarity.ranked_relationship_pairs_with index s1 s2
  | Some n -> Similarity.top_relationship_pairs ~k:n index s1 s2

let collect_object_assertions ?index options s1 s2 (dda : Dda.t) eq matrix =
  let index =
    match index with Some i -> i | None -> Acs_index.build eq
  in
  collect_over_pairs options dda dda.Dda.object_assertion
    (ranked_objects options index s1 s2)
    matrix

let collect_relationship_assertions ?index options s1 s2 (dda : Dda.t) eq matrix =
  let index =
    match index with Some i -> i | None -> Acs_index.build eq
  in
  collect_over_pairs options dda dda.Dda.relationship_assertion
    (ranked_relationships options index s1 s2)
    matrix

(* ------------------------------------------------------------------ *)

let rec schema_pairs = function
  | [] -> []
  | s :: rest -> List.map (fun s' -> (s, s')) rest @ schema_pairs rest

let c_presented = Obs.Counter.make "protocol.pairs_presented"
let c_skipped = Obs.Counter.make "protocol.pairs_skipped_determined"
let c_accepted = Obs.Counter.make "protocol.assertions_accepted"
let c_rejected = Obs.Counter.make "protocol.assertions_rejected"

let record_stats s =
  Obs.Counter.add c_presented s.pairs_presented;
  Obs.Counter.add c_skipped s.pairs_skipped_determined;
  Obs.Counter.add c_accepted s.assertions_accepted;
  Obs.Counter.add c_rejected s.assertions_rejected

(* Structure of [run]: each phase first computes what is pure in the
   fixed inputs — Phase 2 candidates, Phase 3 rankings against the
   shared index — for every schema pair, then folds the DDA's answers
   into the equivalence or assertion matrix in pair order, where
   transitive composition makes earlier answers determine later
   questions. *)
let per_pair pairs f = List.map (fun (s1, s2) -> ((s1, s2), f s1 s2)) pairs

let run ?(options = defaults) ?naming ?name schemas dda =
  Obs.Span.run "protocol.run" @@ fun () ->
  let pairs = schema_pairs schemas in
  let eq =
    Obs.Span.run "protocol.equivalences" @@ fun () ->
    let eq =
      List.fold_left (fun eq s -> Equivalence.register_schema s eq) Equivalence.empty schemas
    in
    List.fold_left
      (fun eq ((s1, s2), candidates) ->
        collect_equivalences_with candidates s1 s2 dda eq)
      eq
      (per_pair pairs (equivalence_candidates options))
  in
  (* Phase 2 fixed the partition: index it once (read-only from here
     on), rank every schema pair of both subphases against the same
     index. *)
  let index = Acs_index.build eq in
  let collect ask (matrix, stats) (_pair, ranked) =
    let matrix, s = collect_over_pairs options dda ask ranked matrix in
    (matrix, add_stats stats s)
  in
  let objects, ostats =
    Obs.Span.run "protocol.object_assertions" @@ fun () ->
    List.fold_left
      (collect dda.Dda.object_assertion)
      (Assertions.create schemas, zero_stats)
      (per_pair pairs (ranked_objects options index))
  in
  let rels, rstats =
    Obs.Span.run "protocol.relationship_assertions" @@ fun () ->
    List.fold_left
      (collect dda.Dda.relationship_assertion)
      (Assertions.create_for_relationships schemas, zero_stats)
      (per_pair pairs (ranked_relationships options index))
  in
  let result =
    Pipeline.integrate (Pipeline.input ?naming ?name schemas eq objects rels)
  in
  let stats = add_stats ostats rstats in
  record_stats stats;
  (result, stats)
