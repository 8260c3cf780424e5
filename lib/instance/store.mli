(** Extensional store: a database instance for one ECR schema.

    The store simulates the operational databases that the paper's two
    integration contexts assume (user views over one database; component
    databases under a global schema).  It is deliberately simple — an
    in-memory, persistent (immutable) structure — but enforces the full
    ECR semantics: category extents are subsets of their parents'
    extents, keys are unique within an entity set, values conform to
    attribute domains, and relationship participation respects the
    structural constraints. *)

module Oid : sig
  type t
  (** Entity instance identifier, unique within one store. *)

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val to_int : t -> int
  val pp : Format.formatter -> t -> unit

  module Set : Stdlib.Set.S with type elt = t
  module Map : Stdlib.Map.S with type key = t
end

type tuple = Value.t Ecr.Name.Map.t
(** Attribute name -> value. *)

val tuple : (string * Value.t) list -> tuple

type link = { participants : Oid.t list; values : tuple }
(** One relationship instance; [participants] are in the relationship's
    declared participant order. *)

type t

val create : Ecr.Schema.t -> t
(** An empty instance of the given schema. *)

val schema : t -> Ecr.Schema.t

exception Violation of string
(** Raised by insertion operations on structurally impossible requests
    (unknown class, wrong arity); soft integrity violations are instead
    reported by {!check}. *)

(** {1 Population} *)

val insert : Ecr.Name.t -> tuple -> t -> t * Oid.t
(** [insert cls values store] creates a fresh entity that is a member of
    [cls] and, transitively, of all ancestors of [cls].
    @raise Violation when [cls] is not an object class of the schema. *)

val classify : Oid.t -> Ecr.Name.t -> t -> t
(** [classify oid category store] additionally places an existing entity
    into [category] (and its ancestors).
    @raise Violation when [oid] or [category] is unknown. *)

val set_value : Oid.t -> Ecr.Name.t -> Value.t -> t -> t
(** Updates one attribute of an entity. @raise Violation on unknown oid. *)

val relate : Ecr.Name.t -> Oid.t list -> tuple -> t -> t
(** [relate rel oids values store] adds a relationship instance.
    @raise Violation when [rel] is unknown or the arity mismatches. *)

val remove_entity : Oid.t -> t -> t
(** Deletes an entity from every class and removes every relationship
    instance it participates in.  A no-op on unknown oids. *)

val remove_links : Ecr.Name.t -> (link -> bool) -> t -> t
(** [remove_links rel keep store] drops the instances of [rel] for which
    [keep] is [false].  @raise Violation on unknown relationship. *)

(** {1 Interrogation} *)

val extent : Ecr.Name.t -> t -> Oid.Set.t
(** Members of an object class, including members via subcategories.
    @raise Violation on unknown class. *)

val tuple_of : Oid.t -> t -> tuple
(** All attribute values of an entity (empty map for unset attributes). *)

val value : Oid.t -> Ecr.Name.t -> t -> Value.t
(** [value oid attr store] is the stored value or [Null]. *)

type column
(** The stored values of one attribute. *)

val column : Ecr.Name.t -> t -> column
(** [column attr store] looks the attribute up once, so that reading it
    for many entities ({!get}) costs one int-keyed search each. *)

val get : column -> Oid.t -> Value.t
(** [get (column attr store) oid] is [value oid attr store]; it
    allocates nothing. *)

val links : Ecr.Name.t -> t -> link list
(** Instances of a relationship set. @raise Violation on unknown name. *)

val entities : t -> Oid.t list
(** Every entity in the store. *)

val classes_of : Oid.t -> t -> Ecr.Name.t list
(** The classes an entity was directly placed in (by {!insert} or
    {!classify}), most specific placements included; ancestors reached
    only through propagation are included too. *)

val cardinality_of : Ecr.Name.t -> t -> int
(** [cardinality_of cls store] is the extent size. *)

(** {1 Integrity} *)

type violation =
  | Bad_domain of Oid.t * Ecr.Name.t * Value.t  (** value outside domain *)
  | Duplicate_key of Ecr.Name.t * Ecr.Name.t * Value.t
      (** entity set, key attribute, duplicated value *)
  | Not_in_parent of Oid.t * Ecr.Name.t * Ecr.Name.t
      (** entity, category, parent it is missing from *)
  | Cardinality_violation of Ecr.Name.t * Ecr.Name.t * Oid.t * int
      (** relationship, participant class, entity, observed count *)
  | Dangling_participant of Ecr.Name.t * Oid.t
      (** relationship instance references an entity outside the
          participant's class *)

val check : t -> violation list
(** All integrity violations in the store; empty means consistent. *)

val violation_to_string : violation -> string
