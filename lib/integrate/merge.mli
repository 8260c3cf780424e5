(** The rules Phase 4 applies to object classes and relationship sets
    alike ("relationship sets are integrated the same way"):

    - structures connected by {e equals} merge into one group
      ({!groups});
    - a group is named once ({!group_name}): a lone structure keeps its
      name, or takes a schema-qualified one when that name is taken; a
      group of several takes an [E_] name; every name, derived ones
      too, is claimed against the names already taken ({!claim});
    - each attribute-equivalence class becomes one attribute
      ({!merged_attribute}): its components in structure order, their
      domains joined, a key when every component is one, [D_]-named
      when it merges several;
    - a {e may be} or {e disjoint integrable} pair yields at most one
      derived [D_] generalisation per pair of groups ({!first_pairs}).

    {!Lattice} adds what only object classes have (IS-A edges and
    attribute placement in the lattice); {!Rel_merge} what only
    relationship sets have (participant matching). *)

type placed = {
  attr : Ecr.Attribute.t;  (** the integrated attribute *)
  components : Ecr.Qname.Attr.t list;
      (** the component attributes it merges, in structure order; a
          singleton for a pass-through attribute *)
}

val order : Ecr.Qname.t list -> Ecr.Qname.t -> int
(** [order structures q] is [q]'s index in [structures] (components in
    (schema, declaration) order), [max_int] for a structure not in
    it. *)

val groups :
  order:(Ecr.Qname.t -> int) ->
  Ecr.Qname.t list ->
  (Ecr.Qname.t * Ecr.Qname.t * Assertion.t) list ->
  Ecr.Qname.t list list
(** [groups ~order structures edges] partitions [structures], listed in
    [order], by the {e equals} edges: every group's members in order,
    and the groups in the order of their first members. *)

type attributes
(** Where each component attribute is defined. *)

val attributes :
  order:(Ecr.Qname.t -> int) ->
  (Ecr.Qname.t * Ecr.Attribute.t list) list ->
  attributes
(** The definitions of the given structures' attributes. *)

val position : attributes -> Ecr.Qname.Attr.t -> int * int
(** (owner's order, declaration position), [(max_int, max_int)] for an
    attribute with no definition: the order of components. *)

val merged_attribute :
  warn:(string -> unit) -> attributes -> Ecr.Qname.Attr.t list -> placed option
(** The integrated attribute of (part of) an equivalence class; [None]
    when none of its components is defined.  Warns
    ["incompatible domains merged for <first component>"] when two
    domains do not join (the first one's join is kept). *)

type names
(** The names taken so far in one namespace. *)

val names : Ecr.Name.Set.t -> names
(** A namespace where the given names are taken. *)

val claim : names -> Ecr.Name.t -> Ecr.Name.t
(** [claim names n] takes [n], suffixed [_2], [_3], ... when it is
    taken already. *)

val group_name : Naming.t -> names -> Ecr.Qname.t list -> Ecr.Name.t
(** Claims the name of a group from {!groups}. *)

val unique_attributes : placed list -> placed list
(** Renames the attributes, in list order, so that no two share a
    name. *)

val first_pairs : ('a -> Ecr.Name.t * Ecr.Name.t) -> 'a list -> 'a list
(** Keeps the first item for each unordered pair of groups. *)
