(** Typed attribute values for the extensional (instance) substrate.

    The paper assumes operational databases behind the component schemas;
    this module is the value layer of our simulation of those databases,
    used to check that generated mappings preserve query answers. *)

type t =
  | Str of string
  | Int of int
  | Real of float
  | Bool of bool
  | Date of int * int * int  (** year, month, day *)
  | Null

val equal : t -> t -> bool
(** [Int 3] equals [Real 3.]; [0.] equals [-0.]. *)

val hash : t -> int
(** A hash that agrees with {!equal}. *)

val compare : t -> t -> int

val conforms : t -> Ecr.Domain.t -> bool
(** [conforms v d] is [true] when [v] is a legal value of domain [d]
    ([Null] conforms to every domain; [Int] conforms to [Real]). *)

val coerce : t -> Ecr.Domain.t -> t option
(** [coerce v d] converts [v] into domain [d] when a lossless conversion
    exists (e.g. [Int 3] to [Real] becomes [Real 3.]). *)

val to_string : t -> string
(** The value in the syntax the instance loader and the query parser
    read back, exactly: a real with the fewest of 15, 16 or 17
    significant digits that read back as the same float, and with [.0]
    when it is whole; a string in double quotes, or in single quotes
    when it holds a double quote; a date bare, as [YYYY-MM-DD]. *)

val date_to_string : int -> int -> int -> string
(** [date_to_string y m d] prints a date as [Printf]'s
    ["%04d-%02d-%02d"] does, without its format interpreter. *)

val pp : Format.formatter -> t -> unit

val str : string -> t
val int : int -> t
val real : float -> t
val bool : bool -> t
val date : int -> int -> int -> t
