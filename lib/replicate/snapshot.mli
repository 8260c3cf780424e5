(** Persisted state snapshots for replication-log compaction.

    A snapshot is an opaque payload (the serving tier serializes its
    runtime state — store and view catalog — through it) stamped with
    the log seq it covers.  Each one is its own {!Journal.Frames} file,
    [DIR/repl.snap.<seq>], with magic ["SITSNAP1"]: a header record
    ([snapshot <seq> <chunks>]), the payload in bounded chunks, and an
    explicit [end] trailer.  Files are written to a temp path and
    renamed into place (atomic like report writes), and the newest two
    are retained: a torn tail on the newest — recovery loses the
    trailer, the file reads invalid — makes {!load} fall back to the
    previous one, which is why {!Log.truncate} must never pass the
    oldest retained snapshot's seq. *)

val magic : string
(** The frames-file magic ("SITSNAP1"). *)

val retain : int
(** How many snapshots {!save} keeps on disk (2: newest + fallback). *)

val save : dir:string -> seq:int -> string -> int list
(** Writes [DIR/repl.snap.<seq>] atomically, prunes older snapshots
    down to {!retain} files, and returns the retained seqs, newest
    first.  The oldest returned seq is the caller's truncation bound:
    frames above it are still needed if the newer snapshot turns out
    unreadable.
    @raise Unix.Unix_error when the directory is missing or not
    writable. *)

val load : dir:string -> (int * string) option
(** The newest retained snapshot that reads back complete (header,
    every chunk, trailer), as [(seq, payload)] — falling back to older
    files when a newer one is torn or corrupt; [None] when no valid
    snapshot exists.  Never raises on corruption. *)

val retained : dir:string -> int list
(** Retained snapshot seqs on disk, newest first (no validation). *)
