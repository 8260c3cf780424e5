(** Session scripts: the batch equivalent of the tool's interactive
    screens.

    A script is a line-oriented file of {!Op} lines, in the text
    {!Op.to_string} prints and {!Op.of_string} reads (the grammar is in
    op.mli).  ['#'] starts a comment, and blank lines are skipped.
    [bin/sit_batch] and [sit_serve] replay one or more scripts against
    a {!Workspace}. *)

exception Parse_error of { file : string; line : int; message : string }
(** Raised by the parsing functions; every error carries the file and
    1-based line it was found on. *)

val parse_error_to_string : exn -> string
(** ["file:line: message"] for a {!Parse_error}; [Printexc.to_string]
    for anything else. *)

val parse_line : file:string -> line:int -> string -> Op.t option
(** One source line to its op; [None] for blank and comment lines.
    Raises {!Parse_error} (positioned at [file]:[line]) on anything
    else. *)

val parse_file : string -> Op.t list
(** Parses a whole script, in order.  Raises {!Parse_error} on the
    first malformed line and [Sys_error] if the file cannot be opened;
    the channel is closed on every exit path. *)

val apply : Op.t list -> Workspace.t -> (Workspace.t, Op.error) result
(** Applies the ops in order ({!Op.try_apply}); stops at the first one
    refused. *)

val apply_error_to_string : Op.error -> string
(** {!Op.error_to_string}. *)
