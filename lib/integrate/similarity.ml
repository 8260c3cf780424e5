open Ecr

type ranked = {
  left : Qname.t;
  right : Qname.t;
  shared : int;
  smaller : int;
  ratio : float;
}

(* Observability: the OCS matrix is quadratic in the schemas' structure
   counts — count every pair scored so bench reports expose the blow-up,
   and count rankings served from a caller-supplied (cached) index. *)
let c_pairs = Obs.Counter.make "similarity.pairs_compared"
let c_cache_hits = Obs.Counter.make "similarity.cache_hits"

let ocs_entry = Equivalence.shared_count

let ratio_of_counts ~shared ~smaller =
  if shared = 0 && smaller = 0 then 0.0
  else float_of_int shared /. float_of_int (shared + smaller)

let generic_ratio q1 attrs1 q2 attrs2 eq =
  let shared = Equivalence.shared_count q1 q2 eq in
  let smaller = Int.min (List.length attrs1) (List.length attrs2) in
  ratio_of_counts ~shared ~smaller

let attribute_ratio (s1, oc1) (s2, oc2) eq =
  generic_ratio
    (Schema.qname s1 oc1.Object_class.name)
    oc1.Object_class.attributes
    (Schema.qname s2 oc2.Object_class.name)
    oc2.Object_class.attributes eq

let relationship_ratio (s1, r1) (s2, r2) eq =
  generic_ratio
    (Schema.qname s1 r1.Relationship.name)
    r1.Relationship.attributes
    (Schema.qname s2 r2.Relationship.name)
    r2.Relationship.attributes eq

let compare_ranked a b =
  match Float.compare b.ratio a.ratio with
  | 0 -> (
      match Int.compare a.smaller b.smaller with
      | 0 -> Int.compare b.shared a.shared
      | c -> c)
  | c -> c

let rank pairs =
  (* Stable sort keeps declaration order among ties. *)
  List.stable_sort compare_ranked pairs

(* One unsorted row list per cross-schema pairing; each entry is a
   single index lookup, so the whole matrix costs O(|O₁|·|O₂|) lookups
   after the one-pass index build. *)
let rows index structures1 structures2 ~qname1 ~qname2 ~attrs =
  let row x1 =
    let left = qname1 x1 in
    let n1 = List.length (attrs x1) in
    List.map
      (fun x2 ->
        Obs.Counter.incr c_pairs;
        let right = qname2 x2 in
        let shared = Acs_index.shared left right index in
        let smaller = Int.min n1 (List.length (attrs x2)) in
        { left; right; shared; smaller; ratio = ratio_of_counts ~shared ~smaller })
      structures2
  in
  List.concat_map row structures1

let object_rows index s1 s2 =
  rows index (Schema.objects s1) (Schema.objects s2)
    ~qname1:(fun oc -> Schema.qname s1 oc.Object_class.name)
    ~qname2:(fun oc -> Schema.qname s2 oc.Object_class.name)
    ~attrs:(fun oc -> oc.Object_class.attributes)

let relationship_rows index s1 s2 =
  rows index
    (Schema.relationships s1)
    (Schema.relationships s2)
    ~qname1:(fun r -> Schema.qname s1 r.Relationship.name)
    ~qname2:(fun r -> Schema.qname s2 r.Relationship.name)
    ~attrs:(fun r -> r.Relationship.attributes)

let ranked_object_pairs_with index s1 s2 =
  Obs.Span.run "similarity.rank_objects" @@ fun () ->
  Obs.Counter.incr c_cache_hits;
  rank (object_rows index s1 s2)

let ranked_relationship_pairs_with index s1 s2 =
  Obs.Span.run "similarity.rank_relationships" @@ fun () ->
  Obs.Counter.incr c_cache_hits;
  rank (relationship_rows index s1 s2)

let ranked_object_pairs s1 s2 eq =
  let index = Acs_index.build eq in
  Obs.Span.run "similarity.rank_objects" @@ fun () ->
  rank (object_rows index s1 s2)

let ranked_relationship_pairs s1 s2 eq =
  let index = Acs_index.build eq in
  Obs.Span.run "similarity.rank_relationships" @@ fun () ->
  rank (relationship_rows index s1 s2)

let top n pairs = List.filteri (fun i _ -> i < n) pairs
