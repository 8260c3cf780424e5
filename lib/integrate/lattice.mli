(** Object-class integration: building the integrated IS-A lattice.

    Given the component schemas, the attribute equivalence partition and
    the (closed, consistent) assertion matrix, this module performs the
    object-class half of Phase 4.  The rules it shares with
    relationship sets come from {!Merge}:

    - classes connected by {e equals} merge into one node ([E_] names);
      a class that passes through alone keeps its name, schema-qualified
      when an unrelated class has taken it;
    - {e may be} and {e disjoint integrable} pairs generate one derived
      node ([D_] names) per pair of nodes, with both nodes as its
      categories;
    - each attribute-equivalence class becomes one attribute (a merged
      attribute gets a [D_] name and records its component
      attributes).

    What only the lattice does stays here:

    - {e contained in} becomes an IS-A edge (the contained class's node
      becomes a category of the containing class's node);
    - IS-A edges are transitively reduced;
    - every attribute is placed once, at the lowest node that dominates
      all of its owners; attributes are never duplicated down the
      lattice — lower nodes inherit. *)

type placed_attr = Merge.placed = {
  attr : Ecr.Attribute.t;  (** the integrated attribute *)
  components : Ecr.Qname.Attr.t list;
      (** the component attributes it merges; a singleton for a
          pass-through attribute *)
}

type node = {
  id : Ecr.Name.t;  (** integrated class name, unique in the lattice *)
  members : Ecr.Qname.t list;
      (** component classes whose extent this node carries; empty for
          derived ([D_]) generalisations *)
  derived_children : Ecr.Name.t list;
      (** for a derived node, the two nodes it generalises *)
  parents : Ecr.Name.t list;  (** IS-A, after transitive reduction *)
  attributes : placed_attr list;  (** attributes placed at this node *)
}

type t = {
  nodes : node list;  (** deterministic order: see {!build} *)
  node_of_class : Ecr.Name.t Ecr.Qname.Map.t;
      (** component object class -> carrying node *)
  warnings : string list;
}

val build :
  ?naming:Naming.t ->
  schemas:Ecr.Schema.t list ->
  equivalence:Equivalence.t ->
  matrix:Assertions.t ->
  unit ->
  t
(** Node order: merged/pass-through nodes in (schema, declaration)
    order of their first member, then derived nodes in creation order. *)

val node : t -> Ecr.Name.t -> node option
val node_of : t -> Ecr.Qname.t -> Ecr.Name.t option

val ancestors : t -> Ecr.Name.t -> Ecr.Name.t list
(** Transitive parents, nearest first. *)

val is_ancestor_or_self : t -> ancestor:Ecr.Name.t -> Ecr.Name.t -> bool

val related : t -> Ecr.Name.t -> Ecr.Name.t -> Ecr.Name.t option
(** When one node dominates the other (or they are equal), the more
    general of the two; [None] otherwise.  Used to match relationship
    participants. *)

val entity_nodes : t -> node list
(** Nodes without parents. *)

val category_nodes : t -> node list

val all_attributes : t -> Ecr.Name.t -> placed_attr list
(** Placed plus inherited attributes of a node (nearest placement
    first). *)
