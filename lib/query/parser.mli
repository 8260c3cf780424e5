(** A concrete syntax for queries and updates.

    Grammar (case-insensitive keywords):
    {v
    query  ::= "select" ("*" | attrs) "from" IDENT
               [ "via" IDENT "to" IDENT [ "select" attrs ]
                 [ "target" "where" pred ] ]
               [ "where" pred ]
    update ::= "insert" "into" IDENT "{" assigns "}"
             | "delete" "from" IDENT [ "where" pred ]
             | "update" IDENT "set" assigns [ "where" pred ]
    attrs  ::= IDENT ("," IDENT)*
    assigns::= IDENT "=" value ("," IDENT "=" value)*
    pred   ::= pred "or" pred | pred "and" pred | "not" pred
             | "(" pred ")" | IDENT cmp value | "true" | "false"
    cmp    ::= "=" | "<>" | "<" | "<=" | ">" | ">="
    value  ::= NUMBER | STRING | DATE | "true" | "false" | "null"
    v}

    Strings are single- or double-quoted and have no escapes; a string
    shaped like [YYYY-MM-DD] becomes a date value, as does a bare
    [DATE].  Numbers with a point or an exponent ([1e-05], [1e+300])
    become reals.  A bare [true] or [false] as a predicate is the
    constant that query rewriting prints.  So every query
    {!Ast.to_string} prints reads back as the same query. 

    Examples:
    {v
    select Name, GPA from Student where GPA >= 3.5
    select Name from Student via Majors to Department select Name
      target where Name = "CS"
    delete from Student where Name = 'Ben'
    update Student set GPA = 4.0 where Name = 'Ann'
    v} *)

exception Error of string
(** Syntax error, with position information in the message. *)

val query_of_string : string -> Ast.t
(** @raise Error on malformed input. *)

val update_of_string : string -> Update.t
(** @raise Error on malformed input. *)

val value_of_string : string -> Instance.Value.t
(** Parses one literal value. *)
