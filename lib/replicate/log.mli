(** The replication log: a seq-numbered, thread-safe list of opaque
    frames (canonical JSON request lines on the leader), compacted by
    prefix truncation.

    Seq numbers are 1-based and dense — frame [s] is the [s]-th
    successful mutation since the log began.  A leader appends every
    mutation it acknowledges; followers pull ranges by seq and record
    how far they have applied ({!ack}), which is what the semi-sync
    write path ({!wait_acked}) and `repl_status` report on.

    The log holds only the suffix after {!base_seq}: {!truncate} drops
    an already-snapshotted prefix from memory and disk, so leader
    memory, disk and restart time are bounded by the compaction window,
    not by the total write count (docs/ROBUSTNESS.md "Log growth").
    Frames at or below [base_seq] are gone — a follower that far behind
    must install a {!Snapshot} and resume from its seq.

    When given a [persist] path the log is backed by a
    {!Journal.Frames} file (CRC-framed records, longest-valid-prefix
    recovery; after a truncation the file leads with a ["base N"]
    header record), so a restarted leader recovers exactly the
    acknowledged suffix — a torn tail from a mid-append crash is
    truncated, never fatal.

    Acks are keyed by the stable node id a follower generates and sends
    in `repl_handshake` — never by transport details like its ephemeral
    address — and expire after [liveness_s] without a pull, so a
    restarted follower cannot register twice and double-count toward an
    `--ack-replicas` quorum, and a vanished one cannot pin
    `repl_status` or the truncation point forever. *)

type t

val magic : string
(** The frames-file magic ("SITREPL1"). *)

val create : ?persist:string -> ?liveness_s:float -> unit -> t
(** In-memory log; with [~persist:path] it is recovered from and
    appended to [path] ({!Journal.Frames}, fsync every append — a
    frame must be on disk before the write it records is
    acknowledged).  [liveness_s] (default 30) is the ack-expiry
    window. *)

val truncated_bytes : t -> int
(** Torn/corrupt tail bytes discarded by recovery (0 without
    [persist], 0 for a clean file). *)

val seq : t -> int
(** Highest assigned seq (0 when empty). *)

val base_seq : t -> int
(** Highest truncated-away seq: frames [base_seq+1 .. seq] are held, a
    request at or below [base_seq] needs a snapshot.  0 until the
    first {!truncate}. *)

val append : t -> string -> int
(** Appends one frame, returns its seq.  Raises [Invalid_argument]
    after {!close}. *)

val get : t -> int -> string option
(** Frame by seq; [None] outside [base_seq+1 .. seq]. *)

val from : t -> int -> max:int -> (int * string) list
(** Up to [max] frames starting at the given seq (clamped to
    [base_seq+1]), in order. *)

val wait : t -> from:int -> timeout_s:float -> bool
(** Blocks until [seq t >= from] (true), or the timeout elapses or the
    log is interrupted (false) — the long-poll behind `repl_pull`'s
    [wait_ms].  Polling granularity is a few milliseconds. *)

val truncate : t -> int -> int
(** [truncate t upto] drops every frame at or below [upto] (clamped to
    [seq t]) from memory and, when persisted, atomically from disk;
    returns how many frames were dropped (0 when [upto <= base_seq]).
    Callers bound [upto] by their snapshot coverage and
    {!lowest_live_ack} so no live follower loses its tail. *)

val ack : t -> node:string -> int -> unit
(** Records that [node] has applied every frame up to the given seq,
    and refreshes its liveness.  Monotonic per node; seq 0 just
    registers (or keeps alive) the node. *)

val acks : t -> (string * int) list
(** Every live node and its highest acked seq, sorted by node.  Nodes
    past the liveness window are pruned, not listed. *)

val acked_by : t -> int -> int
(** How many live nodes have acked at least the given seq. *)

val lowest_live_ack : t -> int option
(** The smallest ack among live registered nodes ([None] when no
    follower is registered) — the truncation safety bound. *)

val wait_acked : t -> seq:int -> replicas:int -> timeout_s:float -> bool
(** Blocks until [replicas] live nodes have acked [seq] (true) or the
    timeout elapses or the log is interrupted (false).  Immediately true
    when [replicas <= 0]. *)

val interrupt : t -> unit
(** Makes every current and later {!wait} and {!wait_acked} return
    [false] at once; {!append} still works.  Idempotent. *)

val close : t -> unit
(** {!interrupt}, then closes the backing file (if any).
    Idempotent. *)
