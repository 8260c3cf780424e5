(** The leader half of replication (docs/ROBUSTNESS.md): the log and
    its snapshots, the compaction floor, restart recovery, the commit
    path and the payloads of the leader's [repl_*] operations.  It sees
    the serving state only through {!state}. *)

type state = {
  apply : int -> string -> (unit, string) result;  (** a logged frame *)
  snapshot : unit -> string;  (** the whole state, serialized *)
  install : int -> string -> (unit, string) result;
      (** replace the state by a snapshot taken at the given seq *)
}

type t

val create :
  dir:string option ->
  liveness_s:float ->
  compact_every:int ->
  ack_replicas:int ->
  ack_timeout_ms:int ->
  warn:(string -> unit) ->
  t
(** Opens the log, kept in [DIR/repl.journal] with snapshots in
    [DIR/repl.snap.<seq>] when [dir] is given.  The other arguments are
    [Server.repl_config]'s; [warn] gets failures no response carries. *)

val recover : t -> state -> (unit, string) result
(** Restart step 2: installs the newest readable snapshot.  [Error]
    when the log is truncated past every readable snapshot or the
    install fails. *)

val replay : t -> state -> (unit, string) result
(** Restart step 4: applies the frames after that snapshot, strictly
    ([Error] names the first frame that no longer applies). *)

val write : t -> state -> (unit -> 'a * string option) -> ('a, string) result
(** The commit path.  Under the write lock, [f ()] applies one mutation
    and returns its response with the frame to log ([None]: nothing to
    log); the frame is appended, and at a [compact_every] boundary the
    log compacts.  Then the write waits for its semi-sync quorum.
    [Error] when the frame could not be logged or the quorum timed out
    ("replicated-unknown").  A failed compaction goes to [warn], leaves
    the write [Ok] and is retried at the next boundary. *)

val ops : string list
(** The [repl_*] operations {!serve} answers. *)

val serve :
  t ->
  state ->
  string ->
  node:string option ->
  seq:int option ->
  batch:int option ->
  wait_ms:int option ->
  ((string * Obs.Json.t) list, [ `Bad_request | `Internal ] * string) result
(** The payload of one of {!ops}, from the request's fields ([batch] is
    [max]; docs/SERVING.md).  A compaction that fails is [`Internal]. *)

val status : t -> detail:bool -> (string * Obs.Json.t) list
(** The leader's [health] fields; with [detail], its [repl_status]
    fields, which add [ack_replicas] and the live [followers]. *)

val interrupt : t -> unit
(** Wakes every long poll and semi-sync wait at once; writes still
    log.  A drain's first step. *)

val close : t -> unit
(** Closes the log: a drain's last step, once every in-flight request
    is answered. *)
