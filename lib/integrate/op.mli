(** One recorded {!Workspace} mutation — the unit of the session
    journal.

    Every state change a session can make (Phase 1 schema edits,
    Phase 2 equivalence declarations, Phase 3 assertion facts and
    retractions, Phase 4 naming pins) has exactly one constructor here,
    so a sequence of ops is a complete, replayable transcript of a DDA
    session.  [lib/journal] serialises these to its write-ahead log;
    {!apply} is the replay side. *)

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

val of_directive : Script.directive -> t
(** Script directives are the batch subset of the op vocabulary. *)

val apply : t -> Workspace.t -> Workspace.t
(** Replays one op.  Assertion ops that the matrix rejects, or that
    name a structure no collected schema defines, are dropped silently
    — the same policy {!Workspace} itself uses when replaying recorded
    facts after a schema edit — so replaying a journal never raises.
    Use {!Script.apply_one} when the caller wants the conflict. *)

val describe : t -> string
(** One line, for logs and screens. *)
