(** Crash-safe session journal: a write-ahead, append-only log of
    {!Integrate.Op} mutations with snapshot checkpoints.

    The paper's tool exists to protect hours of interactive DDA work,
    yet a {!Integrate.Workspace} lives only in memory.  This journal
    makes a session durable: every mutation is appended as one framed
    record {e before} the tool acts on it, so after a crash the session
    is recovered by replaying the longest valid record prefix — work is
    bounded by what happened since the last checkpoint, and a torn or
    corrupted tail is truncated, never fatal.

    {2 File format}

    An 8-byte magic header ["SITJRNL1"], then records.  Each record is

    {v <length: u32 LE> <crc32(payload): u32 LE> <payload bytes> v}

    and each payload is a text header line plus a body:

    - ["op <seq>\n<op>"] — one mutation, in the dictionary directive
      syntax (schemas carry their full DDL);
    - ["snap <seq>\n<dictionary>"] — a checkpoint: the complete
      workspace as a {!Dictionary} document.  Replay restarts here.

    Records are validated independently (length bound, CRC, parse), so
    recovery can always find the longest valid prefix and ignore
    everything after the first damaged byte.  See docs/ROBUSTNESS.md
    for the full matrix of tolerated faults.

    The byte layer — framing, prefix recovery, fsync policy, atomic
    rewrite — is the reusable {!Frames} module; this module owns only
    the op/snapshot payload syntax and the replay logic.

    Thread safety: every mutation ({!append}, {!checkpoint},
    {!compact}, {!reset}, {!close}) is serialized on an internal mutex,
    so concurrent appenders get dense sequence numbers and records in
    sequence order. *)

module Frames = Frames
(** The generic framed-log layer, for other write-ahead logs (the
    replication log and its snapshots persist through it). *)

type t
(** An open journal, positioned for appending. *)

type fsync_policy = Frames.fsync_policy =
  | Never  (** buffered: leave durability to the OS (fastest) *)
  | Every of int  (** fsync once per [n] appended ops *)
  | Always  (** fsync after every record (most durable) *)

type recovery = {
  workspace : Integrate.Workspace.t;
      (** the replayed longest valid prefix *)
  seq : int;  (** ops baked into [workspace] (journal sequence number) *)
  records : int;  (** valid records read (ops + snapshots) *)
  truncated_bytes : int;
      (** bytes of torn/corrupt tail discarded (0 for a clean file) *)
}

val recover : string -> recovery
(** Reads a journal file and replays its longest valid prefix.  A
    missing file is an empty session; a damaged file yields whatever
    prefix survives.  Never raises on corruption, of any kind. *)

val open_ :
  ?fsync:fsync_policy -> ?checkpoint_every:int -> string -> recovery * t
(** [open_ path] recovers [path] (creating it if absent), truncates any
    invalid tail so new records extend the valid prefix, and returns
    the journal ready for appending.  [checkpoint_every] (default 64)
    bounds recovery cost: {!append} snapshots automatically after that
    many ops (when given [~after]).  [fsync] defaults to [Every 8]. *)

val append : ?after:Integrate.Workspace.t -> t -> Integrate.Op.t -> unit
(** Appends one op record (a single [write], then fsync per policy).
    [~after], the workspace {e after} the op, enables the automatic
    checkpoint; omit it to journal without checkpointing. *)

val checkpoint : t -> Integrate.Workspace.t -> unit
(** Appends a snapshot record of the full workspace now. *)

val compact : t -> Integrate.Workspace.t -> unit
(** Rewrites the journal as a single snapshot of [ws] — temp file,
    fsync, atomic [Sys.rename] — so the file stops growing with
    session length.  The journal stays open for further appends. *)

val reset : t -> unit
(** Empties the journal (keeps the header): the "don't resume" path. *)

val seq : t -> int
(** Ops appended so far, including recovered ones. *)

val path : t -> string

val close : t -> unit
(** Final fsync (per policy) and close.  Idempotent. *)

(** Fault injection for the crash-test harness (test/test_journal.ml).
    Not for production use. *)
module For_testing : sig
  exception Crash
  (** Raised by {!append}/{!checkpoint} when the write budget runs out
      mid-record, leaving a torn record on disk — a simulated kill. *)

  val write_limit : int option ref
  (** [Some n] allows [n] more journal bytes to reach the file; the
      first write that would exceed it is cut short and raises
      {!Crash}.  [None] (the default) disables the hook. *)
end
