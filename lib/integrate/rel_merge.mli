(** Relationship-set integration.

    After object classes are integrated, relationship sets are, by the
    rules {!Merge} shares with object classes: relationship sets
    asserted {e equal} group into one [E_] set, names are claimed
    against [used_names] (see {!build}), each
    attribute-equivalence class becomes one attribute of the merged set
    itself (relationship sets do not inherit), and {e contained in},
    {e may be} and {e disjoint integrable} assertions generate one
    derived [D_] relationship set per pair of groups (ECR has no
    relationship IS-A, so both originals are kept).

    What only relationship sets have stays here: every component
    relationship's participants are redirected to the integrated
    lattice nodes and matched pairwise (a participant pair matches when
    one integrated node dominates the other; the merged slot keeps the
    more general node and the union of the structural constraints); a
    group whose participants do not match is split, a slot's minimum
    relaxes when its node also carries foreign extents, and a derived
    set whose slots widen to one class without distinct roles is not
    generated. *)

type merged = {
  rel : Ecr.Relationship.t;  (** the integrated relationship set *)
  members : Ecr.Qname.t list;
      (** component relationship sets merged here; empty for derived *)
  generalises : Ecr.Name.t list;
      (** for a derived set, the integrated names of the two sets it
          generalises *)
  attributes : Merge.placed list;
      (** the attributes of [rel], with their component attributes *)
}

type t = {
  rels : merged list;  (** merged/pass-through sets first, derived last *)
  rel_of : Ecr.Name.t Ecr.Qname.Map.t;
      (** component relationship set -> integrated set *)
  warnings : string list;
}

val build :
  ?naming:Naming.t ->
  ?used_names:Ecr.Name.Set.t ->
  schemas:Ecr.Schema.t list ->
  equivalence:Equivalence.t ->
  matrix:Assertions.t ->
  lattice:Lattice.t ->
  unit ->
  t
(** [used_names] (typically the lattice's node names) are avoided when
    naming integrated relationship sets — the ECR namespace is shared
    by all structures of a schema. *)
