(** Generic CRC-framed append-only record log — the byte layer under
    {!Journal} and under the replication log and its snapshots.

    A frames file is an 8-byte magic string followed by records,

    {v <length: u32 LE> <crc32(payload): u32 LE> <payload bytes> v}

    with opaque string payloads.  Records are validated independently
    (length bound, CRC), so recovery always finds the longest valid
    record prefix and ignores everything after the first damaged byte —
    a torn or corrupted tail is truncated, never fatal.  What the
    payloads {e mean} is the caller's business: {!Journal} stores
    session ops and workspace snapshots, [lib/replicate] stores
    replicated request lines and serving-state snapshots
    ([docs/ROBUSTNESS.md]). *)

type t
(** An open log, positioned for appending. *)

(** When appended records reach the disk (see [docs/ROBUSTNESS.md]). *)
type fsync_policy =
  | Never  (** buffered: leave durability to the OS (fastest) *)
  | Every of int  (** fsync once per [n] appended records *)
  | Always  (** fsync after every record (most durable) *)

type recovery = {
  payloads : string list;  (** the longest valid record prefix, in order *)
  truncated_bytes : int;
      (** bytes of torn/corrupt tail discarded (0 for a clean file) *)
}

val recover :
  ?validate:(string -> bool) -> magic:string -> string -> recovery
(** [recover ~magic path] reads a frames file and returns its longest
    valid record prefix.  A missing file is an empty log; a damaged
    file yields whatever prefix survives.  [validate] (default: accept
    everything) lets the caller extend "valid" to its own payload
    syntax — the scan stops at the first CRC-valid record it rejects,
    exactly as it stops at a checksum failure.  Never raises on
    corruption, of any kind. *)

val open_ :
  ?fsync:fsync_policy ->
  ?validate:(string -> bool) ->
  magic:string ->
  string ->
  recovery * t
(** [open_ ~magic path] recovers [path] (creating it if absent),
    truncates any invalid tail so new records extend the valid prefix,
    and returns the log ready for appending.  [fsync] defaults to
    [Every 8]. *)

val append : t -> string -> unit
(** Appends one record (a single [write], then fsync per policy).
    Routed through the {!For_testing} crash hook. *)

val append_raw : t -> string -> unit
(** {!append} without the fsync policy — for callers that batch
    durability themselves (e.g. a record that must be followed by an
    unconditional {!sync_now}, like {!Journal}'s checkpoints). *)

val sync_now : t -> unit
(** Forces an fsync now and resets the [Every n] countdown.  A no-op
    under [Never]. *)

val rewrite : t -> string list -> unit
(** Atomically replaces the log's contents with exactly the given
    payloads — temp file, fsync, [Sys.rename] — so a log can be
    compacted without ever exposing a partial file.  Falls back to
    truncate-and-rewrite in place when the path is not a regular file
    (a fifo, [/dev/null]), where a rename would destroy the target.
    The log stays open for further appends. *)

val reset : t -> unit
(** Empties the log (keeps the magic header). *)

val fsync_policy : t -> fsync_policy
val path : t -> string

val close : t -> unit
(** Final fsync (per policy) and close.  Idempotent. *)

(** Fault injection for the crash-test harness (test/test_journal.ml).
    Not for production use. *)
module For_testing : sig
  exception Crash
  (** Raised by {!append} when the write budget runs out mid-record,
      leaving a torn record on disk — a simulated kill. *)

  val write_limit : int option ref
  (** [Some n] allows [n] more appended bytes to reach the file; the
      first write that would exceed it is cut short and raises
      {!Crash}.  [None] (the default) disables the hook. *)
end
