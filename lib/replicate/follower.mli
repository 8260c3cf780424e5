(** The follower tailer: a loop that connects to a leader, catches up
    from its last applied seq and tails live appends, applying each
    replicated frame through a caller-supplied callback.

    The loop is parameterized over its transport ([connect] /
    [roundtrip] / [close] on an abstract connection), so this module
    depends on nothing above [lib/journal] — [lib/server] injects its
    [Client] and its own apply path.  It speaks the `repl_handshake` /
    `repl_pull` operations by their documented JSON shape
    (docs/SERVING.md); the pull's [from] seq doubles as the ack for
    everything before it, which is how the leader tracks this node.

    The loop never gives up: every transport failure (refused, reset,
    EOF, a draining leader) marks the node disconnected and retries
    under the backoff policy, capped at the policy's final delay.  The
    node keeps serving reads from its last-applied state throughout —
    that is the graceful-degradation contract `staleness_seq`
    reports on. *)

type progress = {
  applied : int Atomic.t;  (** highest seq applied locally *)
  leader_seq : int Atomic.t;  (** highest seq the leader reported *)
  connected : bool Atomic.t;
  attempts : int Atomic.t;  (** (re)connect attempts that failed *)
  apply_errors : int Atomic.t;
      (** replicated frames (or snapshots) that failed to apply *)
  snapshots : int Atomic.t;
      (** snapshot transfers installed (catch-up past a truncation) *)
  last_error : string Atomic.t;
      (** the most recent tail failure ([""] if none yet): transport
          errors, a refused handshake/pull — distinguishing a peer
          that answered [not_leader], i.e. a misconfigured [--follow]
          — or a frame that failed to apply.  Sticky across
          reconnects, so a wedged or flapping node stays diagnosable
          from `health`/`repl_status`. *)
  stop : bool Atomic.t;
}

val make_progress : unit -> progress

val node_id : string option -> string
(** The identity sent in `repl_handshake`: kept in [DIR/node_id] for a
    data directory, so it survives restarts; per process without one. *)

val staleness : progress -> int
(** [max 0 (leader_seq - applied)] — the `staleness_seq` of `health`. *)

val last_error : progress -> string
(** [Atomic.get last_error] — the `repl_last_error` of `health`. *)

val request_stop : progress -> unit
(** Makes {!run} return within roughly one pull round-trip. *)

val status :
  progress ->
  leader:string ->
  node:string ->
  detail:bool ->
  (string * Obs.Json.t) list
(** The follower's [health] fields; with [detail], its [repl_status]
    fields (docs/SERVING.md). *)

val run :
  node:string ->
  connect:(unit -> 'c) ->
  close:('c -> unit) ->
  roundtrip:('c -> string -> string) ->
  apply:(int -> string -> (unit, string) result) ->
  progress:progress ->
  ?backoff:Backoff.policy ->
  ?batch:int ->
  ?wait_ms:int ->
  ?throttle_ms:int ->
  ?install:(int -> string -> (unit, string) result) ->
  ?log:(string -> unit) ->
  unit ->
  unit
(** Runs the tail loop on the calling thread until {!request_stop}.
    [apply seq frame] must apply frames sequentially (they arrive in
    seq order, each exactly once — duplicates after a reconnect are
    skipped by seq).  When [apply] returns [Error], [applied] is NOT
    advanced: the tail disconnects and the reconnect loop re-pulls
    from the failed seq, so a frame this node could not apply is never
    acked to the leader (and never counts toward an [--ack-replicas]
    quorum) — the node wedges at the failure point, visibly, instead
    of silently diverging.

    When the leader reports a [base_seq] above this node's [applied],
    the needed frames have been compacted away: the loop fetches the
    leader's snapshot chunk by chunk (`repl_snapshot`), hands the
    reassembled payload to [install seq payload], and on [Ok] resumes
    tailing from that seq ([snapshots] counts each install).  The
    default [install] refuses, wedging visibly like a failed apply.
    An [Error] from [install] is counted under [apply_errors] and
    retried via the reconnect loop.

    [backoff] defaults to {!Backoff.fresh}[ ()] — a per-call random
    seed, so a fleet of followers restarting together does not retry
    in lockstep; pass an explicit policy (e.g. {!Backoff.default}) for
    deterministic tests.  [batch] caps frames per pull, [wait_ms] is
    the long-poll budget sent to the leader, [throttle_ms] (test hook)
    sleeps between pulls so a catch-up window is observable.  [log]
    (default: drop) receives warnings worth an operator's attention —
    a peer answering [not_leader] to the handshake (a misconfigured
    leader address), frames that failed to apply, and snapshot
    installs. *)
