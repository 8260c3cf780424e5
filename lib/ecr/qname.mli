(** Schema-qualified names.

    During integration, structures from different component schemas are
    compared and recorded side by side, so a bare structure name is
    ambiguous.  A {!t} pairs the owning schema's name with the structure
    name — the [sc1.Student] notation of the paper's screens.  An
    {!attr} additionally names an attribute of that structure —
    [sc1.Student.Name]. *)

type t = {
  schema : Name.t;  (** the component schema the structure belongs to *)
  obj : Name.t;  (** the structure (object class or relationship set) *)
}

val make : Name.t -> Name.t -> t
(** [make schema obj] is [{schema; obj}]. *)

val v : string -> string -> t
(** [v schema obj] validates and pairs two raw strings. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val to_string : t -> string
(** [to_string q] is ["schema.obj"], the notation used on every screen. *)

val of_string : string -> t
(** Parses ["schema.obj"].  @raise Name.Invalid on malformed input. *)

val pp : Format.formatter -> t -> unit

module Set : Set.S with type elt = t
module Map : Map.S with type key = t

(** An attribute of a qualified structure, e.g. [sc1.Student.Name]. *)
module Attr : sig
  type qname = t

  type t = { owner : qname; attr : Name.t }

  val make : qname -> Name.t -> t
  val v : string -> string -> string -> t
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit

  module Set : Stdlib.Set.S with type elt = t
  module Map : Stdlib.Map.S with type key = t
end

(** Unordered pairs of qualified names, used as keys of the naming
    overrides; their order and orientation are also the ones the
    assertion matrix reports its cells in.  The pair [(a, b)] and the
    pair [(b, a)] are the same key; accessors report whether the stored
    orientation flips. *)
module Pair : sig
  type qname = t

  type t
  (** An unordered pair of distinct or equal qualified names. *)

  val make : qname -> qname -> t
  (** [make a b] normalises the orientation so that [make a b] and
      [make b a] are equal. *)

  val fst : t -> qname
  val snd : t -> qname

  val flipped : qname -> qname -> bool
  (** [flipped a b] is [true] when [make a b] stores the pair as
      [(b, a)]; callers use it to re-orient direction-sensitive
      assertions. *)

  val other : t -> qname -> qname
  (** [other p q] is the member of [p] that is not [q].
      @raise Not_found if [q] is not a member of [p]. *)

  val mem : qname -> t -> bool
  val equal : t -> t -> bool
  val compare : t -> t -> int
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit

  module Set : Stdlib.Set.S with type elt = t
  module Map : Stdlib.Map.S with type key = t
end
