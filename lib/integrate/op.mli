(** One recorded {!Workspace} mutation — the unit of the session
    journal — and the one text format for it.

    Every state change a session can make (Phase 1 schema edits,
    Phase 2 equivalence declarations, Phase 3 assertion facts and
    retractions, Phase 4 naming pins) has exactly one constructor here,
    so a sequence of ops is a complete, replayable transcript of a DDA
    session.  This module owns the op's text: a script line
    ({!Script}), a line of a dictionary's [%session] section, a journal
    op record and a scenario directive are each {!to_string} of an op,
    read back by {!of_string}, and replayed by {!try_apply}.

    {2 Op text}

    {v
    schema\n<DDL>                                           Add_schema
    rmschema   <schema>                                     Remove_schema
    equiv      <schema.object.attr> <schema.object.attr>    Declare_equivalent
    sep        <schema.object.attr>                         Separate_attribute
    object     <schema.object> <code> <schema.object>       Assert_object
    rel        <schema.rel> <code> <schema.rel>             Assert_relationship
    retract    <schema.object> <schema.object>              Retract_object
    retractrel <schema.rel> <schema.rel>                    Retract_relationship
    name       <schema.structure> <schema.structure> <IntegratedName>   Rename
    v}

    Fields are separated by spaces, and every identifier is an
    {!Ecr.Name} ([schema.object] and [schema.object.attr] join names
    with dots).  [<code>] is the paper's assertion code: 1 equals,
    2 contained-in, 3 contains, 4 disjoint-integrable, 5 may-be,
    0 disjoint-nonintegrable.  [schema] is followed by a newline and
    one schema's DDL, so it is the one op that spans lines: journals
    record it, while scripts and dictionaries carry their schemas
    beside their op lines. *)

type t =
  | Add_schema of Ecr.Schema.t  (** adds or replaces, by name *)
  | Remove_schema of Ecr.Name.t
  | Declare_equivalent of Ecr.Qname.Attr.t * Ecr.Qname.Attr.t
  | Separate_attribute of Ecr.Qname.Attr.t
  | Assert_object of Ecr.Qname.t * Assertion.t * Ecr.Qname.t
  | Assert_relationship of Ecr.Qname.t * Assertion.t * Ecr.Qname.t
  | Retract_object of Ecr.Qname.t * Ecr.Qname.t
  | Retract_relationship of Ecr.Qname.t * Ecr.Qname.t
  | Rename of Ecr.Qname.t * Ecr.Qname.t * string
      (** naming pin: integrate the pair under the given name *)

val to_string : t -> string
(** The op's text, with no trailing newline. *)

val of_string : string -> (t, string) result
(** Reads back what {!to_string} prints.  Every identifier is
    validated here, so a malformed name is an [Error] naming it and no
    [Ecr.Name.Invalid] escapes.  The text is taken as it is: comments
    and surrounding blanks are the caller's ({!Script.parse_line}). *)

type error =
  | Object_conflict of Ecr.Qname.t * Ecr.Qname.t * Assertions.conflict
  | Rel_conflict of Ecr.Qname.t * Ecr.Qname.t * Assertions.conflict
      (** The offending pair as the op names it, with the matrix
          conflict that rejected it. *)
  | Unknown_object of Ecr.Qname.t
  | Unknown_relationship of Ecr.Qname.t
      (** The side of an assertion that names no object class
          (relationship set) of a collected schema. *)
  | Invalid_schema of Ecr.Name.t * Ecr.Schema.error list
      (** An [Add_schema] whose schema fails {!Ecr.Schema.validate}. *)

val error_to_string : error -> string

val try_apply : t -> Workspace.t -> (Workspace.t, error) result
(** Applies one op, or refuses it with the workspace unchanged.  Only
    assertions and [Add_schema] can be refused.  What a refusal means
    is the caller's: a script stops at it, a dictionary refuses a
    conflict and drops an unknown class, a journal replay drops it. *)

val apply : t -> Workspace.t -> Workspace.t
(** {!try_apply}, dropping a refused op: the replay side, which never
    raises.  It drops what [Workspace] itself drops when it replays
    recorded facts after a schema edit, so a journal replays even when
    an earlier schema edit stranded a later fact, and every workspace
    {!apply} reaches can be saved and loaded back. *)

val of_workspace : Workspace.t -> t list
(** The ops that rebuild a workspace's session on top of its schemas:
    each equivalence class as declarations from its first member, then
    the object facts, the relationship facts and the naming pins, in
    that order.  A dictionary's [%session] section is these ops. *)
