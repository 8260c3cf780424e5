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

val script : string -> (Integrate.Op.t list, string) result

val data :
  schemas:Ecr.Schema.t list ->
  string ->
  ((Ecr.Schema.t * Instance.Store.t) list, string) result

val dictionary : string -> (Integrate.Workspace.t, string) result

val read : (string -> 'a) -> string -> ('a, string) result
(** [read reader path] is [reader path], refused as the readers above
    refuse: a directory, an unreadable file, or a parse error, each
    named by its path.  For the files other libraries read (a journal,
    a scenario schedule). *)

val output : string -> (unit, string) result
(** Checks a path a tool will write, before the tool does any work: a
    directory (or a path ending in [/]), an empty path, or a path whose
    parent directory is missing, is refused as [PATH: reason].
    Anything else is left to the writer, so [/dev/null] stays
    allowed. *)

val directory : string -> (unit, string) result
(** Creates the journal directory unless a directory is there. *)
