(** Session scripts: the batch equivalent of the tool's interactive
    screens.

    A script is a line-oriented file of directives ('#' starts a
    comment, blank lines are skipped):

    {v
    equiv  <schema.object.attr>  <schema.object.attr>
    object <schema.object> <code> <schema.object>
    rel    <schema.rel>    <code> <schema.rel>
    name   <schema.structure> <schema.structure> <IntegratedName>
    v}

    where [<code>] is the paper's assertion code: 1 equals,
    2 contained-in, 3 contains, 4 disjoint-integrable, 5 may-be,
    0 disjoint-nonintegrable.  [bin/sit_batch] replays one or more such
    scripts against a {!Workspace}. *)

type directive =
  | Equiv of Ecr.Qname.Attr.t * Ecr.Qname.Attr.t
  | Object_assertion of Ecr.Qname.t * Assertion.t * Ecr.Qname.t
  | Rel_assertion of Ecr.Qname.t * Assertion.t * Ecr.Qname.t
  | Rename of Ecr.Qname.t * Ecr.Qname.t * string

exception Parse_error of { file : string; line : int; message : string }
(** Raised by the parsing functions; every error carries the file and
    1-based line it was found on. *)

val parse_error_to_string : exn -> string
(** ["file:line: message"] for a {!Parse_error}; [Printexc.to_string]
    for anything else. *)

val parse_line : file:string -> line:int -> string -> directive option
(** One source line to its directive; [None] for blank and comment
    lines.  Raises {!Parse_error} (positioned at [file]:[line]) on
    anything else. *)

val parse_file : string -> directive list
(** Parses a whole script, in order.  Raises {!Parse_error} on the
    first malformed line and [Sys_error] if the file cannot be opened;
    the channel is closed on every exit path. *)

type apply_error =
  | Object_conflict of Ecr.Qname.t * Ecr.Qname.t * Assertions.conflict
  | Rel_conflict of Ecr.Qname.t * Ecr.Qname.t * Assertions.conflict
      (** The offending pair as written in the script, with the matrix
          conflict that rejected it. *)
  | Unknown_object of Ecr.Qname.t
  | Unknown_relationship of Ecr.Qname.t
      (** The side of an assertion that names no object class
          (relationship set) of a collected schema. *)

val apply_error_to_string : apply_error -> string

val apply_one : directive -> Workspace.t -> (Workspace.t, apply_error) result
(** Replays a single directive — the journaled batch path applies (and
    records) directives one at a time. *)

val apply : directive list -> Workspace.t -> (Workspace.t, apply_error) result
(** Replays the directives in order; stops at the first assertion the
    matrix rejects or that names an unknown structure. *)
