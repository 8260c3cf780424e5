(** The Object Class Similarity (OCS) matrix and the resemblance
    function used to order object pairs for assertion collection.

    Upon leaving the equivalence phase the tool derives, from the ACS
    partition, the number of equivalent attributes between every pair of
    structures, and ranks pairs by the {e attribute ratio}

    {v #equivalent / (#equivalent + #attributes of the smaller class) v}

    so that a ratio of 0.5 means every attribute of the smaller class
    has an equivalent in the other (Screen 8's column reproduces
    0.5000 / 0.5000 / 0.3333 on the paper's example).  The DDA then
    reviews pairs in decreasing ratio order.

    The matrix is computed through an {!Acs_index}: one O(attrs) fold of
    the partition, then one lookup per entry — not a partition scan per
    entry (the measured hot spot this replaced; see
    [docs/PERFORMANCE.md]).  The plain rankings build their own index;
    the [*_with] variants take one already built, so the rankings of
    every schema pair of an n-ary session ({!Protocol.run}) share a
    single build. *)

type ranked = {
  left : Ecr.Qname.t;  (** structure from the first schema *)
  right : Ecr.Qname.t;  (** structure from the second schema *)
  shared : int;  (** OCS entry: number of shared equivalence classes *)
  smaller : int;  (** attribute count of the smaller structure *)
  ratio : float;  (** the attribute ratio in [[0, 0.5]] *)
}
(** One row of the ranked-pair listing of Screen 8. *)

val ocs_entry : Ecr.Qname.t -> Ecr.Qname.t -> Equivalence.t -> int
(** Alias of {!Equivalence.shared_count} — the reference (partition
    scanning) entry computation; {!Acs_index.shared} is the fast path. *)

val attribute_ratio :
  Ecr.Schema.t * Ecr.Object_class.t ->
  Ecr.Schema.t * Ecr.Object_class.t ->
  Equivalence.t ->
  float
(** Ratio for an object-class pair, from their local attribute lists. *)

val relationship_ratio :
  Ecr.Schema.t * Ecr.Relationship.t ->
  Ecr.Schema.t * Ecr.Relationship.t ->
  Equivalence.t ->
  float
(** Same ratio for a relationship-set pair, over their local attribute
    lists. *)

val compare_ranked : ranked -> ranked -> int
(** The ranking order: decreasing ratio, then increasing size of the
    smaller class (a full match over fewer attributes first, which
    reproduces the paper's Screen 8 order), then declaration order
    (ties — callers sort stably). *)

val ranked_object_pairs :
  Ecr.Schema.t -> Ecr.Schema.t -> Equivalence.t -> ranked list
(** Every (object class of schema 1, object class of schema 2) pair in
    {!compare_ranked} order.  Pairs with ratio 0 are kept (the DDA may
    still relate attribute-poor classes), at the end.  Builds an
    {!Acs_index} of [eq] for this call — use {!ranked_object_pairs_with}
    to share one across several rankings of one equivalence state. *)

val ranked_relationship_pairs :
  Ecr.Schema.t -> Ecr.Schema.t -> Equivalence.t -> ranked list
(** As {!ranked_object_pairs}, over the two schemas' relationship
    sets. *)

val ranked_object_pairs_with :
  Acs_index.t -> Ecr.Schema.t -> Ecr.Schema.t -> ranked list
(** [ranked_object_pairs_with index s1 s2] is
    {!ranked_object_pairs}[ s1 s2 eq] for the equivalence [index] was
    built from, without rebuilding the index.  Counts
    ["similarity.cache_hits"]. *)

val ranked_relationship_pairs_with :
  Acs_index.t -> Ecr.Schema.t -> Ecr.Schema.t -> ranked list
(** As {!ranked_object_pairs_with}, over relationship sets. *)

val top : int -> ranked list -> ranked list
(** [top n ranked] keeps the first [n] rows — what a screenful shows
    the DDA, or {!Protocol}'s [max_object_pairs] budget.  The whole list
    when [n] exceeds its length. *)
