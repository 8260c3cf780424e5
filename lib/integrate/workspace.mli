(** Tool session state: the bookkeeping behind the screens.

    A workspace accumulates everything a DDA session produces — the
    component schemas (Phase 1), attribute equivalences (Phase 2) and
    assertions (Phase 3) — and can replay it into the pipeline at any
    point (Phase 4).  Assertion facts are stored as entered, and a
    structural edit rebuilds the closed matrices from them, so editing a
    schema never leaves stale derived knowledge behind.  The rebuild
    also forgets the facts the edited schemas no longer admit — one
    naming a structure that is gone, or one the new structure
    contradicts — so the recorded facts are always exactly those the
    matrices hold. *)

type t

val empty : t

(** {1 Phase 1 — schema collection} *)

val add_schema : Ecr.Schema.t -> t -> t
(** Adds or replaces (by name).  Replacing forgets the recorded facts
    the new version no longer admits.  [add_schema s] is
    [add_schemas [s]]. *)

val add_schemas : Ecr.Schema.t list -> t -> t
(** Adds or replaces each schema of the list in order, as {!add_schema}
    does, then rebuilds the matrices once: one structural seed over the
    final schema list instead of one per schema.

    The result is what folding {!add_schema} over the list gives,
    except that the recorded facts are checked against the final schema
    list only.  A fact that a schema list on the way would have refused
    is kept when the final list admits it: say one naming a class that
    the list's first version of a schema lacks and its second version
    defines.  The two agree exactly when the workspace records no
    facts, or when at most one entry of the list shares its name with a
    schema the workspace holds. *)

val remove_schema : Ecr.Name.t -> t -> t
(** Also drops equivalences and assertions that mention the schema. *)

val schemas : t -> Ecr.Schema.t list
val find_schema : Ecr.Name.t -> t -> Ecr.Schema.t option

(** {1 Phase 2 — equivalences} *)

val declare_equivalent : Ecr.Qname.Attr.t -> Ecr.Qname.Attr.t -> t -> t
val separate_attribute : Ecr.Qname.Attr.t -> t -> t
val equivalence : t -> Equivalence.t

(** {1 Phase 3 — assertions} *)

val object_matrix : t -> Assertions.t
(** Rebuilt from the recorded facts (schemas may have changed). *)

val relationship_matrix : t -> Assertions.t

val assert_object :
  Ecr.Qname.t -> Assertion.t -> Ecr.Qname.t -> t -> (t, Assertions.conflict) result
(** Records a fact after the matrix accepts it.
    @raise Assertions.Unknown_class when a side is not an object class
    of a collected schema; nothing is recorded. *)

val assert_relationship :
  Ecr.Qname.t -> Assertion.t -> Ecr.Qname.t -> t -> (t, Assertions.conflict) result
(** Likewise, over relationship sets. *)

val retract_object : Ecr.Qname.t -> Ecr.Qname.t -> t -> t
(** Removes any recorded fact on the pair (the Screen 9 way out of a
    conflict: change the earlier assertion). *)

val retract_relationship : Ecr.Qname.t -> Ecr.Qname.t -> t -> t

val object_facts : t -> (Ecr.Qname.t * Assertion.t * Ecr.Qname.t) list
val relationship_facts : t -> (Ecr.Qname.t * Assertion.t * Ecr.Qname.t) list

val ranked_pairs :
  Ecr.Name.t -> Ecr.Name.t -> t -> Similarity.ranked list
(** Ranked object pairs between two collected schemas (by name): the
    OCS matrix of the current {!equivalence}, derived when asked — one
    {!Acs_index.build} per call, as the paper's tool derives it on
    leaving the equivalence phase.  Equivalence edits themselves do no
    index work.  @raise Not_found when either schema is absent. *)

val ranked_relationship_pairs :
  Ecr.Name.t -> Ecr.Name.t -> t -> Similarity.ranked list

(** {1 Phase 4 — integration} *)

val set_naming : Naming.t -> t -> t
val naming : t -> Naming.t

val integrate : ?name:string -> t -> Result.t
(** Integrates every collected schema n-ary. *)

val integrate_pair : ?name:string -> Ecr.Name.t -> Ecr.Name.t -> t -> Result.t
(** Integrates just two collected schemas (the tool's two-at-a-time
    flow), over the recorded facts between them; facts naming a third
    schema are left out.  @raise Not_found when either schema is
    absent. *)
