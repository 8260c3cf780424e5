(** A minimal JSON tree, printer and parser.

    The observability layer emits machine-readable reports
    ({!Report.to_string}) and the test suite parses them back; neither
    side needs more than this.  The module is deliberately tiny — no
    streaming, no number-precision games — and self-contained so that
    [obs] adds no third-party dependency to the build.

    Printing is deterministic: object fields are emitted in the order
    given, floats with ["%.9g"], and strings with the escapes required
    by RFC 8259.  [of_string] accepts any document this module prints
    (and standard JSON generally, including [\uXXXX] escapes). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** field order is preserved *)

val to_string : ?indent:int -> t -> string
(** [to_string v] prints [v] on one line; [~indent:n] pretty-prints
    with [n]-space indentation steps. *)

val pp : Format.formatter -> t -> unit
(** One-line printing, same output as {!to_string}. *)

val of_string : string -> (t, string) result
(** Parses a complete JSON document; the error string carries a byte
    offset and is pure ASCII (an offending byte outside printable ASCII
    is quoted as [0xNN]).  Numbers without [.], [e] or [E] parse as
    {!Int}, all others as {!Float}.  Arrays and objects nested more
    than 512 deep are an [Error], reported at the byte that opens the
    513th level. *)

val member : string -> t -> t option
(** [member k v] is the field [k] of object [v]; [None] when [v] is not
    an object or lacks the field. *)

val find : string list -> t -> t option
(** [find path v] chains {!member} through nested objects. *)
