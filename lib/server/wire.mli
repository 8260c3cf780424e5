(** The serving protocol: line-delimited JSON frames.

    One request per line, one response line per request, in order.  The
    operation and error-code reference lives in [docs/SERVING.md]; the
    normative byte-level description of the framing is [docs/WIRE.md].
    This module owns the framing so the daemon and the client cannot
    drift apart. *)

(** Where a server listens / a client connects. *)
type addr = Unix_path of string | Tcp of string * int

val addr_of_string : string -> (addr, string) result
(** ["unix:/path/to.sock"], ["host:port"] or [":port"] (binds
    0.0.0.0; port [0] asks the kernel for an ephemeral port). *)

val addr_to_string : addr -> string

(** Typed protocol errors.  Every failure a request can hit maps to one
    of these; the daemon never answers a frame with anything else (and
    never dies on one). *)
type error_code =
  | Bad_frame
      (** not JSON, not a JSON object, or a line longer than
          {!max_request_line} *)
  | Bad_request  (** missing/ill-typed fields for the operation *)
  | Unknown_op
  | Unknown_view
  | Parse_error  (** query/update text rejected by [Query.Parser] *)
  | Unmapped  (** [Query.Rewrite.Unmapped]: mapping has no entry *)
  | Eval_error  (** [Query.Eval.Error]: ill-typed against the schema *)
  | Update_error  (** [Query.Update.Error] *)
  | Overloaded  (** bounded request queue is full — retry later *)
  | Deadline_exceeded
  | Not_leader
      (** a mutation reached a follower; the error payload carries a
          ["leader"] field with the address to redirect to *)
  | Shutting_down
  | Internal

val code_to_string : error_code -> string
val code_of_string : string -> error_code option

val ops : string list
(** Every request operation the daemon understands, data operations
    first.  The single source of truth for the operation table in
    [docs/SERVING.md]: [scripts/docs_check.sh] compares the two and
    fails [make check] on drift. *)

val mutating : string -> bool
(** Whether an operation changes server state ([update], [migrate] and
    the view-catalog operations).  Exactly these are appended to the
    replication log on a leader and redirected with {!Not_leader} on a
    follower (docs/ROBUSTNESS.md). *)

type request = {
  id : Obs.Json.t option;  (** echoed verbatim in the response *)
  op : string;
  view : string option;
      (** a component schema for [query]/[rewrite]/[update]; the view
          name for [define_view]/[drop_view]/[refresh_view] and for a
          materialized read ([query] with no ["q"]) *)
  text : string option;  (** the ["q"] / ["u"] payload *)
  base : string option;
      (** [define_view] only: component schema the defining query is
          written against (the definition is rewritten through it) *)
  policy : string option;
      (** [define_view] only: ["eager"], ["lazy"] (default), ["manual"] *)
  deadline_ms : int option;
  seq : int option;
      (** [repl_pull]: first seq wanted; [repl_frame]: the seq wanted;
          [repl_snapshot]: the chunk index wanted (0-based) *)
  max : int option;  (** [repl_pull] only: frames-per-pull cap *)
  wait_ms : int option;
      (** [repl_pull] only: long-poll budget when no frame is ready *)
  node : string option;  (** the follower's identity on [repl_*] ops *)
}

val request_of_line : string -> (request, error_code * string) result
(** Decodes one frame.  Never raises: every input, whatever its bytes,
    is [Ok] or an [Error] with {!Bad_frame} or {!Bad_request}.  [Error] carries the code and a human message;
    no id is available for a frame that does not decode to an object,
    so the error response echoes [id] only when one was recoverable. *)

val max_request_line : int
(** 1 MiB: the longest request line {!next_request} accepts, newline
    excluded. *)

type reader
(** The request lines arriving on one connection's channel. *)

val reader : in_channel -> reader

val next_request : reader -> (request, error_code * string) result option
(** The next line, decoded by {!request_of_line}; [None] at end of
    input.  As with [input_line], a last line without its newline
    counts.  A line longer than {!max_request_line} is an [Error] with
    {!Bad_frame} once its newline has been read; the reader keeps at
    most one byte of it past the cap.  Raises [Sys_error] when the
    channel fails. *)

val request_to_line :
  ?id:Obs.Json.t ->
  ?view:string ->
  ?text:string ->
  ?base:string ->
  ?policy:string ->
  ?deadline_ms:int ->
  ?seq:int ->
  ?max:int ->
  ?wait_ms:int ->
  ?node:string ->
  string ->
  string
(** [request_to_line op] builds the client-side frame (no trailing
    newline). *)

val ok_response : ?id:Obs.Json.t -> (string * Obs.Json.t) list -> Obs.Json.t
(** The response value behind {!ok_line}: the daemon builds responses
    as values and renders them once, when it writes the line. *)

val error_response :
  ?id:Obs.Json.t ->
  ?data:(string * Obs.Json.t) list ->
  error_code ->
  string ->
  Obs.Json.t
(** The response value behind {!error_line}.  [data] fields are
    appended inside the ["error"] object after ["code"] and ["message"]
    — {!Not_leader} carries its ["leader"] address this way. *)

val ok_line : ?id:Obs.Json.t -> (string * Obs.Json.t) list -> string
(** [{"id":..,"ok":true,<payload fields>}] (no trailing newline). *)

val error_line :
  ?id:Obs.Json.t ->
  ?data:(string * Obs.Json.t) list ->
  error_code ->
  string ->
  string
(** [{"id":..,"ok":false,"error":{"code":..,"message":..}}]. *)

val value_to_json : Instance.Value.t -> Obs.Json.t
(** [Str]/[Int]/[Real]/[Bool] map to their JSON counterparts, [Date] to
    ["YYYY-MM-DD"], [Null] to [null].
    A non-finite [Real] prints as [null] ({!Obs.Json.to_buffer}). *)

val row_to_json : Query.Eval.row -> Obs.Json.t
(** Object with one field per column, in [Ecr.Name] order —
    deterministic, so equal answers render byte-identically. *)

val rows_to_json : Query.Eval.row list -> Obs.Json.t
