(** A textual format for instance data.

    Lets the command-line tools load the operational databases the paper
    assumes, so integration can be demonstrated end to end (schemas +
    data + session → integrated schema + migrated instance + translated
    queries) without writing OCaml.

    Format, one [instance] block per schema ([--] comments allowed):
    {v
    instance sc1 {
      Student { Name = "Ann", GPA = 3.9 } as ann
      Student { Name = "Ben", GPA = 2.5 } as ben
      Department { Name = "CS" } as cs
      in Grad_student: ann
      Majors (ann, cs) { Since = 2020-09-01 }
    }
    v}

    - [Class { attr = value, ... } as label] inserts an entity and binds
      a label for later reference;
    - [in Category: label] additionally classifies a bound entity;
    - [Rel (label, label, ...) { attr = value, ... }] adds a relationship
      instance (the attribute block may be omitted);
    - values are numbers, single/double-quoted strings, [true], [false],
      [null], or bare dates [YYYY-MM-DD]. *)

exception Error of { file : string; line : int; message : string }
(** Syntax errors, unknown labels, or references to structures the
    schema does not declare.  Every error carries the file, the 1-based
    line, and a message naming the offending token or value.

    The text is read front to back with one token of lookahead, and the
    first error in file order is the one raised: nothing after the
    offending token is read.  A relationship instance's participant
    count is checked before its attribute block.  Lines count every
    newline, those inside quoted strings included; an error names the
    line its token starts on, so an unterminated string names the line
    it opened on. *)

val error_to_string : exn -> string
(** ["file:line: message"] for an {!Error}; [Printexc.to_string] for
    anything else. *)

val load_string :
  ?file:string ->
  schemas:Ecr.Schema.t list ->
  string ->
  (Ecr.Schema.t * Store.t) list
(** Parses every [instance] block, resolving each against the named
    schema.  Schemas without a block get an empty store.  [?file]
    (default ["<instance>"]) positions error messages.  Timed as the
    [instance.load] span. *)

val load_file :
  schemas:Ecr.Schema.t list -> string -> (Ecr.Schema.t * Store.t) list
(** {!load_string} on a file's contents, with errors positioned at its
    path.  Any readable file works, a pipe such as [/dev/stdin]
    included: the file is read to its end, not sized first.
    @raise Sys_error when the file cannot be opened or read (a
    directory, say). *)

val to_string : Ecr.Schema.t -> Store.t -> string
(** Serialises a store back to the format (labels are synthesised as
    [e<oid>]); [load_string] of the output reproduces the store up to
    oid renumbering. *)
