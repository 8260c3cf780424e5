(** A session's input files, read alike by every tool.

    Each reader returns its value or one printable refusal, and raises
    nothing.  A refusal names the file: [FILE:LINE:COL: message] for
    DDL, [FILE:LINE: message] for scripts and instance data, and
    [FILE: message] for an invalid schema, a malformed dictionary or a
    file that cannot be read. *)

val schemas : string list -> (Ecr.Schema.t list, string) result
(** Parses and validates the DDL files in order; the first fault in
    file order is refused, an invalid schema with all of its errors,
    one per line.  An empty list is refused. *)

val script : string -> (Integrate.Script.directive list, string) result

val data :
  schemas:Ecr.Schema.t list ->
  string ->
  ((Ecr.Schema.t * Instance.Store.t) list, string) result

val dictionary : string -> (Integrate.Workspace.t, string) result

val directory : string -> (unit, string) result
(** Creates the journal directory unless a directory is there. *)
