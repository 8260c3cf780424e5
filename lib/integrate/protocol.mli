(** The interactive methodology, driven over a {!Dda} oracle.

    This module is the headless equivalent of the tool's screens: it
    walks the DDA through Phase 2 (attribute equivalences, optionally
    pre-filtered by the section-4 matching heuristics) and Phase 3
    (assertions over the ranked pair list, with conflict resolution),
    then runs Phase 4.  The TUI drives the same functions with a human
    behind the oracle; the benchmarks drive them with programmatic
    oracles and count the questions. *)

type options = {
  exhaustive_attribute_pairs : bool;
      (** [true]: ask the DDA about {e every} cross-schema attribute
          pair of every structure pair (the un-enhanced tool).
          [false]: ask only about candidates surfaced by the resemblance
          heuristics — the paper's section-4 enhancement. *)
  suggestion_weights : Heuristics.Resemblance.weighted;
      (** signals used when [exhaustive_attribute_pairs = false] *)
  suggestion_threshold : float;  (** candidate cut-off, default 0.5 *)
  max_object_pairs : int option;
      (** present only the first [n] ranked pairs (a DDA effort budget);
          [None] presents all *)
  skip_determined : bool;
      (** [true]: do not ask about pairs whose cell is already a
          singleton (derived by transitive composition) — quantifies the
          automation the paper claims for derivation *)
  retry_conflicts : int;  (** how many [Replace] rounds to honour *)
}

val defaults : options

type stats = {
  pairs_presented : int;
  pairs_skipped_determined : int;
  assertions_accepted : int;
  assertions_rejected : int;  (** withdrawn after conflicts *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

val equivalence_candidates :
  options ->
  Ecr.Schema.t ->
  Ecr.Schema.t ->
  ((Ecr.Qname.Attr.t * Ecr.Attribute.t) * (Ecr.Qname.Attr.t * Ecr.Attribute.t))
  list
(** The attribute pairs Phase 2 would put to the DDA for one schema
    pair, in presentation order (object-class pairs first, then
    relationship pairs).  Pure in the schemas and options — {!run}
    computes these lists for every schema pair in parallel, then asks
    the DDA sequentially. *)

val collect_equivalences_with :
  ((Ecr.Qname.Attr.t * Ecr.Attribute.t) * (Ecr.Qname.Attr.t * Ecr.Attribute.t))
  list ->
  Ecr.Schema.t ->
  Ecr.Schema.t ->
  Dda.t ->
  Equivalence.t ->
  Equivalence.t
(** Registers both schemas, then asks the DDA about each precomputed
    candidate in order, declaring the confirmed equivalences. *)

val collect_equivalences :
  options ->
  Ecr.Schema.t ->
  Ecr.Schema.t ->
  Dda.t ->
  Equivalence.t ->
  Equivalence.t
(** Phase 2 over one schema pair: both object classes and relationship
    sets.  [collect_equivalences_with (equivalence_candidates options
    s1 s2) s1 s2]. *)

val collect_object_assertions :
  ?index:Acs_index.t ->
  options ->
  Ecr.Schema.t ->
  Ecr.Schema.t ->
  Dda.t ->
  Equivalence.t ->
  Assertions.t ->
  Assertions.t * stats
(** Phase 3, object subphase, over the ranked pair list.  [?index] is an
    {!Acs_index} already built over the given equivalence; when absent,
    one is built for this call.  {!run} builds a single index after
    Phase 2 and shares it across every schema pair of both subphases. *)

val collect_relationship_assertions :
  ?index:Acs_index.t ->
  options ->
  Ecr.Schema.t ->
  Ecr.Schema.t ->
  Dda.t ->
  Equivalence.t ->
  Assertions.t ->
  Assertions.t * stats

val run :
  ?options:options ->
  ?naming:Naming.t ->
  ?name:string ->
  Ecr.Schema.t list ->
  Dda.t ->
  Result.t * stats
(** All four phases, n-ary: equivalences and assertions are collected
    for every unordered schema pair, then a single integration is
    performed.

    Runs on the calling domain; docs/PERFORMANCE.md ("Parallel
    execution") says why the per-pair work does not fan out. *)
