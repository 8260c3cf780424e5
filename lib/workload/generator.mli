(** Synthetic integration workloads with known ground truth.

    The paper evaluates the tool on hand-picked examples; its
    quantitative claims (the resemblance heuristic saves DDA effort,
    transitive composition derives assertions automatically, n-ary
    beats repeated binary interaction) need workloads whose true
    correspondences are known.  This generator builds them:

    - a {e universe}: a forest of concepts, each with an extent (a set
      of synthetic entity tags) — children hold subsets of their
      parents, so the true basic relation between any two concepts is
      computable from the extents; plus relationship concepts linking
      object concepts;
    - {e k component schemas}: each view samples a subset of the
      concepts and of each concept's attributes, renaming classes and
      attributes with controlled {e naming noise} (synonyms,
      abbreviations, case changes) so string heuristics are neither
      trivial nor hopeless;
    - {e ground truth}: a perfect {!Integrate.Dda.t} oracle answering
      from the extents, the list of true same-concept pairs, and a
      [register] callback that teaches the oracle the extents of
      intermediate integrated classes (needed by binary strategies);
    - {e instances}: stores populated from the extents, with attribute
      values that are deterministic functions of (tag, attribute
      concept), so different views of the same real-world entity agree
      — exactly the situation instance migration must handle. *)

type params = {
  seed : int;
  schemas : int;  (** number of component views, >= 2 *)
  concepts : int;  (** object concepts in the universe *)
  attrs_per_concept : int;
  coverage : float;  (** probability a view includes a concept *)
  attr_coverage : float;  (** probability a view keeps an attribute *)
  naming_noise : float;  (** probability a name is changed in a view *)
  relationship_concepts : int;
  population : int;  (** universe entity tags *)
  subset_fraction : float;
      (** fraction of concepts that are subset-children of another *)
  overlap_fraction : float;  (** fraction that properly overlap another *)
}

val default_params : params
(** seed 42, 2 schemas, 12 concepts x 4 attributes, coverage 0.8,
    attr coverage 0.8, noise 0.3, 4 relationship concepts, population
    400, subset fraction 0.25, overlap fraction 0.15. *)

type t = {
  params : params;
  schemas : Ecr.Schema.t list;
  oracle : Integrate.Dda.t;  (** perfect ground-truth DDA *)
  register : Integrate.Result.t -> unit;
      (** teach the oracle about an intermediate integrated schema *)
  true_pairs : (Ecr.Qname.t * Ecr.Qname.t) list;
      (** cross-schema object-class pairs stemming from the same
          concept (should be asserted Equal) *)
  related_pairs : (Ecr.Qname.t * Ecr.Qname.t * Integrate.Assertion.t) list;
      (** every cross-schema pair whose true assertion is integrable *)
  extent_of : Ecr.Qname.t -> int list;
      (** the synthetic extent of a component class *)
  link_pairs : Ecr.Qname.t -> (int * int) list;
      (** the synthetic extent of a component relationship set *)
  attr_id : Ecr.Qname.Attr.t -> int option;
      (** the global attribute-concept id behind a component attribute
          (equal ids = truly equivalent) *)
}

val generate : params -> t

val noisy_oracle : t -> error_rate:float -> seed:int -> Integrate.Dda.t
(** The ground-truth oracle with independent answer corruption: with the
    given probability an object-assertion answer is replaced by a
    uniformly chosen *different* assertion.  Used by the
    conflict-detection experiment: wrong answers should be caught by the
    matrix as contradictions. *)

val populate :
  ?schemas:Ecr.Schema.t list -> t -> (Ecr.Schema.t * Instance.Store.t) list
(** Instance stores for every generated schema, one entity per extent
    tag, one link per relationship pair; values agree across views.
    [?schemas] substitutes an alternative schema list (e.g. the
    translation-round-tripped renderings {!Scenario} builds): truth
    lookups are by qualified name, so classes preserved by a rendering
    keep their extents while structures a rendering introduces (reified
    relationship records, foreign-key arcs) simply populate empty. *)
