(** The data dictionary: persistent workspace state.

    The paper's section 4 proposes that "a common representation of the
    database objects and the mappings between them could be kept in a
    data dictionary available to all of the tools" — the schema
    translation tool feeding the integration tool feeding physical
    design.  This module is that representation: one plain-text file
    carrying everything a session produced (component schemas in the ECR
    DDL, attribute equivalences, assertions, naming overrides), loadable
    back into a {!Integrate.Workspace}.

    Format: the schemas in DDL syntax, then a [%session] marker, then
    the session as {!Integrate.Op} lines, one per line, in the text
    {!Integrate.Op.to_string} prints (the grammar is in op.mli; [#]
    comments allowed):

    {v
    schema sc1 { ... }
    schema sc2 { ... }
    %session
    equiv  sc1.Student.Name sc2.Grad_student.Name
    object sc1.Department 1 sc2.Department
    rel    sc1.Majors 1 sc2.Major_in
    name   sc1.Majors sc2.Major_in E_Stud_Majo
    v}

    {!to_string} writes {!Integrate.Op.of_workspace}. *)

exception Error of string
(** Malformed dictionary text (with a line-level description). *)

val to_string : Integrate.Workspace.t -> string
(** Serialises a workspace. *)

val of_string : string -> Integrate.Workspace.t
(** Parses a dictionary.  Each session line is read as a script line
    ({!Integrate.Script.parse_line}) and applied
    ({!Integrate.Op.try_apply}), so a dictionary edited into
    inconsistency is rejected.  An assertion naming a structure that no
    schema defines is dropped, as {!Integrate.Workspace.add_schema}
    drops it after a schema edit: dictionaries and journal snapshots
    written by earlier releases may still record one.
    @raise Error ["line N: message"], in the script's wording, on a
    malformed line or a conflicting assertion; ["schema ..."] on a
    malformed or invalid schema. *)

val save : string -> Integrate.Workspace.t -> unit
(** Writes {!to_string} to a file through a temp file ([<path>.tmp])
    and an atomic rename, so a crash mid-write leaves the previous file
    whole.  A non-regular target such as [/dev/null] is written in
    place. *)

val load : string -> Integrate.Workspace.t
(** Reads and parses a file.  @raise Error / [Sys_error]. *)

val merge : Integrate.Workspace.t -> Integrate.Workspace.t -> Integrate.Workspace.t
(** [merge base extra] adds [extra]'s schemas with one
    {!Integrate.Workspace.add_schemas}, so [base]'s own assertions are
    checked against the merged schema list only, then applies [extra]'s
    session ({!Integrate.Op.of_workspace}) with {!Integrate.Op.apply}:
    assertions of [extra] that conflict with [base] are dropped.  The
    dictionary is "available to all of the tools": two tools'
    dictionaries can be combined. *)

(** {1 Mappings}

    "A common representation of the database objects {e and the mappings
    between them}".  After integration, the generated mappings can be
    appended as a [%mappings] section so a downstream tool (a query
    processor, a physical designer) can translate requests without
    re-running integration:

    {v
    %mappings
    object sc1.Student -> Student
    attr sc1.Student.Name -> D_Stud_Facu.D_Name
    rel sc1.Majors -> E_Stud_Majo
    rattr sc1.Majors.Since -> E_Stud_Majo.D_Since
    v} *)

val result_to_string :
  Integrate.Workspace.t -> Integrate.Result.t -> string
(** The full dictionary ({!to_string}) followed by the integrated schema
    (as another DDL block under [%integrated]) and the [%mappings]
    section. *)

val save_result :
  string -> Integrate.Workspace.t -> Integrate.Result.t -> unit
(** Writes {!result_to_string} to a file the way {!save} does. *)

val mappings_of_string : string -> Integrate.Mapping.t
(** Reconstructs the mapping from a dictionary containing a [%mappings]
    section (empty mapping when the section is absent).
    @raise Error on malformed mapping lines. *)
