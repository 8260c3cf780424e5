(** A long-lived query-serving daemon over one integrated-schema
    session.

    The operational payoff of integration (paper sections 1 and 5) as a
    network service: component schemas plus a recorded integration
    session are loaded once, the integrated schema and mappings are
    built, component instances are migrated, and then view/global
    queries, updates and re-migrations are served over a line-delimited
    JSON protocol ({!Wire}, reference in [docs/SERVING.md]) on a Unix
    or TCP socket.

    This module is transport, dispatch, the data operations and the
    snapshot codec; reading the session's input files is {!Load}'s, a
    leader's replication {!Replicate.Leader}'s, a follower's
    {!Replicate.Follower}'s.

    Concurrency model: one thread per connection, bounded admission,
    one write lock.  Each connection's thread reads a frame, runs the
    operation itself and writes the response, in order.  Data
    operations pass a {e bounded} in-flight counter first — when the
    bound is hit the request is answered [overloaded] immediately
    instead of buffering without limit; [health] and [metrics] bypass
    it so the daemon stays observable under load.  On a leader every
    mutation runs under one write lock, so the replication log's order
    is the application order.  Per-request deadlines are checked when
    the operation starts executing (after any wait for the write lock)
    and, for read ops, again after evaluation; either miss answers
    [deadline_exceeded].  Mutating ops skip the second check: once
    applied, a mutation is acknowledged (and, on a leader, replicated)
    — the deadline can only reject it before it runs, never misreport
    it after.

    Rewrite plans (view and global unfoldings) are cached in an LRU
    keyed by (view class, parsed query): spellings that differ only in
    whitespace or keyword case share a plan, queries whose constants
    differ get their own; hits/misses/evictions are on
    [server.cache_*] counters and in {!stats}.

    Every protocol failure is a typed error {e response}; no exception
    of the query layer ([Query.Parser.Error], [Query.Rewrite.Unmapped],
    [Query.Eval.Error], [Query.Update.Error]) ever kills the daemon or
    a connection thread.  Shutdown ({!stop}, or SIGTERM in
    [bin/sit_serve]) stops accepting, answers every in-flight request
    (a write is logged first), wakes idle connections and joins every
    thread. *)

module Wire = Wire
module Lru = Lru
module Client = Client
module View = View
(** The materialized-view catalog the daemon serves from; re-exported
    so client code can name policies and decode {!View.info}. *)

(** {1 Session} *)

type session = {
  schemas : Ecr.Schema.t list;  (** the component schemas *)
  result : Integrate.Result.t;
  component_stores : (Ecr.Schema.t * Instance.Store.t) list;
  initial_merged : Instance.Store.t;  (** the migrated instance *)
  migration : Query.Migrate.report;
  journal_dir : string option;
      (** when set, the node's durable directory: a leader persists its
          replication log to [DIR/repl.journal] and its snapshots to
          [DIR/repl.snap.<seq>], and a follower keeps its replication
          identity in [DIR/node_id].  Nothing else is written there: the
          session itself is always rebuilt from the input files *)
}

val make_session :
  ?journal_dir:string ->
  result:Integrate.Result.t ->
  stores:(Ecr.Schema.t * Instance.Store.t) list ->
  unit ->
  session
(** Builds the serving state from an in-memory integration result and
    component stores (migrates immediately).  The test suite's entry
    point. *)

type setup = {
  schema_files : string list;  (** ECR DDL files *)
  script : string option;  (** session script ({!Integrate.Script}) *)
  data : string option;  (** instance file ({!Instance.Loader}) *)
  journal : string option;
      (** the session's [journal_dir], created if missing.  It holds no
          copy of the setup: every start integrates the files above, so
          an edited script takes effect on the next restart *)
  name : string option;  (** name of the integrated schema *)
}

val load_session : setup -> (session, string) result
(** The [bin/sit_serve] entry point: the input files read through
    {!Load}, then integrated and migrated.  Every failure is a
    printable [Error]: {!Load}'s refusal of a file, or the script's
    first rejected assertion. *)

(** {1 Server} *)

(** Replication role (docs/ROBUSTNESS.md).  A [Leader] appends every
    acknowledged mutation to its replication log and serves the
    [repl_*] stream; a [Follower] tails the given leader address,
    applies the stream to its own state, serves reads, and answers
    every write with a typed [not_leader] redirect. *)
type role = Leader | Follower of Wire.addr

type repl_config = {
  role : role;
  ack_replicas : int;
      (** leader only: hold each mutation's response until this many
          followers have acknowledged its seq ([0] = asynchronous) *)
  ack_timeout_ms : int;
      (** bound on that wait; on expiry the mutation — already applied
          locally — is answered [internal] ("replicated-unknown") *)
  batch : int;  (** follower only: frames per [repl_pull] *)
  wait_ms : int;  (** follower only: long-poll budget per pull *)
  throttle_ms : int;
      (** follower only, test hook: sleep between pulls so a catch-up
          window is observable *)
  compact_every : int;
      (** leader only: snapshot the serving state and truncate the
          covered replication-log prefix every this many acknowledged
          writes ([0] disables automatic compaction; the [repl_compact]
          wire op always works).  Bounds leader memory, disk and
          restart time by the compaction window instead of total write
          count (docs/ROBUSTNESS.md "Log growth"). *)
  liveness_s : float;
      (** leader only: a follower that has not pulled for this long is
          considered gone — its ack stops counting toward quorums and
          stops pinning the compaction bound *)
}

val default_repl : repl_config
(** [Leader], asynchronous (ack 0, timeout 10 s), batch 64, 200 ms
    long-poll, no throttle, no automatic compaction, 30 s follower
    liveness. *)

type config = {
  listen : Wire.addr;
  queue : int;  (** max in-flight data requests before [overloaded] *)
  deadline_ms : int option;  (** default per-request deadline *)
  cache : int;  (** rewrite-plan LRU capacity; [0] disables *)
  debug : bool;
      (** accept the test-only [sleep] op (a data operation of a chosen
          duration), used to pin down backpressure and drain behaviour
          deterministically; [false] everywhere but the test suite *)
  repl : repl_config;
}

val default_config : Wire.addr -> config
(** Queue 64, no deadline, cache 128, replication {!default_repl}. *)

type stats = {
  requests : int;
  ok : int;
  errors : int;
  overloaded : int;
  deadline_exceeded : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  connections : int;
}

type t

(** A view defined at startup ([sit_serve --view]), as the wire
    [define_view] operation would: with [base], [query] is a
    component-view query rewritten through the mapping; without, it is
    already in integrated-schema terms. *)
type view_def = {
  view : string;  (** the view's name *)
  base : string option;
  policy : View.policy;
  query : string;  (** the defining query text *)
}

val create : ?views:view_def list -> session -> config -> (t, string) result
(** Binds and listens (for [Tcp] with port [0], the kernel picks the
    port — see {!port}); no thread is started yet.  The replication log
    and its snapshots are the node's only durable history, so a start
    runs four steps, each over the state the one before left:
    + the session, already rebuilt from the input files
      ({!load_session});
    + a [Leader] with a [journal_dir] installs the newest readable
      [DIR/repl.snap.<seq>] (a torn snapshot falls back to the previous
      retained one);
    + the [views] are defined: a name the snapshot already holds with
      the same base, policy and query text is kept as recovered;
    + the leader replays the frames of [DIR/repl.journal] (longest valid
      prefix) after the snapshot's seq.
    A first start is the same sequence with no snapshot and no frames,
    so a restarted leader serves exactly what it last acknowledged.
    [Error] (after releasing the socket) when the log is truncated past
    every readable snapshot, when a view name the snapshot holds is
    given a different definition, when a view fails to define, or when
    a logged frame no longer applies (the message names its seq). *)

val port : t -> int option
(** The bound TCP port, [None] for Unix sockets. *)

val serve : t -> unit
(** The accept loop, on the calling thread.  Returns only after a
    {!request_stop} (or {!stop} from another thread) has been honoured
    and the server fully drained. *)

val start : session -> config -> (t, string) result
(** {!create} + {!serve} on a background thread — the in-process mode
    the tests and the bench harness use. *)

val request_stop : t -> unit
(** Flags the server to stop; safe to call from a signal handler.  The
    accept loop notices within its polling interval and drains. *)

val stop : t -> unit
(** {!request_stop}, then waits for the drain to complete (joins the
    background thread when the server was {!start}ed).  Idempotent. *)

val stats : t -> stats
(** A consistent-enough snapshot of the server's own counters (kept
    independently of [lib/obs], which may be disabled). *)

val exec : t -> string -> string
(** One JSON request line to one canonical JSON response line, through
    exactly the dispatch a connection uses (queue admission, the write
    lock, deadlines) but with no socket — the offline leg of the
    scenario differential harness ([Workload.Scenario]), which must be
    byte-identical to what a wire client observes. *)

(** Test hooks; not part of the serving surface. *)
module For_testing : sig
  val with_state : t -> (Instance.Store.t -> View.t -> 'a) -> 'a
  (** Runs [f merged views] under the state lock — lets the scenario
      harness compare materialized extents against recomputation at
      schedule barriers without going through the wire. *)

  val set_delay_after_op_ms : int -> unit
  (** Injects artificial latency (process-wide, [0] disables) between
      an op completing and the post-execution deadline check, making
      "finished after its deadline" deterministically reachable: reads
      must then answer [deadline_exceeded], while mutations must still
      answer [ok] and reach the replication log — an applied mutation
      is never reported (or replicated) as if it had not happened. *)
end
