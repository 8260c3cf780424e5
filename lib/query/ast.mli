(** A small query language over ECR schemas.

    Queries are select/project over one object class, optionally joined
    through one relationship set to a second class — enough to express
    the "user queries and transactions specified against each view" that
    the generated mappings must translate, and to verify translation
    end-to-end on instances.

    Example (against the paper's sc1):
    {[
      let q =
        Ast.(
          query "Student"
            ~where:(atom "GPA" Ge (Instance.Value.real 3.5))
            ~select:[ "Name" ]
            ~via:
              (join "Majors" "Department" ~target_select:[ "Name" ]))
    ]} *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | Atom of Ecr.Name.t * cmp * Instance.Value.t
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Const of bool
      (** used by query rewriting when a predicate attribute has no
          counterpart on the other side (its value there is always
          [Null], and [Null] comparisons are false) *)

type join = {
  rel : Ecr.Name.t;  (** relationship set to traverse *)
  rel_select : Ecr.Name.t list;
      (** projected attributes of the relationship set itself; output
          columns are prefixed with the relationship name *)
  target : Ecr.Name.t;  (** object class on the other side *)
  target_where : pred option;
  target_select : Ecr.Name.t list;
      (** projected target attributes; their output columns are
          prefixed with the target class name *)
}

type t = {
  from_class : Ecr.Name.t;
  where : pred option;
  select : Ecr.Name.t list;  (** [] projects every attribute *)
  via : join option;
}

val atom : string -> cmp -> Instance.Value.t -> pred
val ( &&& ) : pred -> pred -> pred
val ( ||| ) : pred -> pred -> pred
val not_ : pred -> pred

val join :
  ?where:pred ->
  ?target_select:string list ->
  ?rel_select:string list ->
  string ->
  string ->
  join
(** [join rel target] traverses [rel] to [target]. *)

val query : ?where:pred -> ?select:string list -> ?via:join -> string -> t

val rename_pred : (Ecr.Name.t -> Ecr.Name.t) -> pred -> pred
(** Applies an attribute renaming throughout a predicate. *)

val attrs_of_pred : pred -> Ecr.Name.t list
(** Attributes a predicate mentions (with duplicates removed). *)

val equal : t -> t -> bool
(** Structural equality in which reals are equal only when their bit
    patterns are, so [0.] and [-0.] differ (a query on either prints
    differently) where [( = )] would make them one. *)

val hash : t -> int
(** A hash consistent with {!equal}. *)

val cmp_to_string : cmp -> string
val pp_pred : Format.formatter -> pred -> unit
val pp : Format.formatter -> t -> unit
val to_string : t -> string
