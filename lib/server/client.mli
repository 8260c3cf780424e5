(** Protocol client: one blocking connection, plus the multi-connection
    load driver the bench harness and [make serve-test] use, plus the
    failover handle the chaos harness drives through a dying leader.

    Transport failures — connection refused, reset, EOF mid-roundtrip,
    a per-attempt timeout — raise the typed {!Connection_error}; those
    are exactly the failures a retry can fix.  Protocol failures
    (malformed frames, a server answering nonsense) raise [Failure] and
    retrying cannot help.  Typed {e error responses} are ordinary
    decoded responses, not exceptions. *)

exception Connection_error of string
(** A transport-layer failure: retryable by reconnecting (possibly to
    another endpoint).  The payload says which endpoint and why. *)

type t

val connect : ?timeout_ms:int -> Wire.addr -> t
(** Opens a JSON-lines connection ([docs/WIRE.md]).  [timeout_ms]
    bounds each subsequent send and receive
    ([SO_SNDTIMEO]/[SO_RCVTIMEO]); a stalled peer then fails the
    roundtrip with {!Connection_error} instead of hanging.  Raises
    {!Connection_error} when the endpoint cannot be reached. *)

val close : t -> unit

val roundtrip : t -> string -> string
(** Sends one request line and reads one response line (neither with
    its newline).  The response is the daemon's canonical JSON, so
    callers can compare responses byte-for-byte.  Raises
    {!Connection_error} if the transport fails mid-roundtrip. *)

val request :
  t ->
  ?id:Obs.Json.t ->
  ?view:string ->
  ?text:string ->
  ?base:string ->
  ?policy:string ->
  ?deadline_ms:int ->
  string ->
  Obs.Json.t
(** [request c op] builds the frame, roundtrips it and decodes the
    response.  Raises [Failure] only if the response line is not valid
    JSON (a server bug by construction). *)

val is_ok : Obs.Json.t -> bool
val error_code : Obs.Json.t -> string option

(** {1 Failover}

    A {!failover} handle holds at most one live connection to one of a
    fixed endpoint list.  {!failover_roundtrip} retries transport
    failures against the next endpoint under a {!Replicate.Backoff}
    budget, and chases [not_leader] redirects to the advertised leader
    — the read-failover side of docs/ROBUSTNESS.md. *)

type failover

val failover :
  ?retry:Replicate.Backoff.policy ->
  ?timeout_ms:int ->
  Wire.addr list ->
  failover
(** Connections are opened lazily, starting from the first endpoint.
    [retry] defaults to {!Replicate.Backoff.fresh}[ ()] — a fresh
    random jitter seed per handle, so concurrently-created clients do
    not back off in lockstep; pass {!Replicate.Backoff.default}
    explicitly for deterministic delays in tests.  [timeout_ms] is
    applied per connection as in {!connect}.  Raises [Invalid_argument]
    on an empty endpoint list. *)

val failover_roundtrip : failover -> string -> string
(** Like {!roundtrip} with retries: a {!Connection_error} drops the
    connection, advances to the next endpoint (round-robin), sleeps the
    policy's next backoff delay and tries again; a [not_leader]
    response jumps to the advertised leader without sleeping.  Each
    hop consumes one attempt from the policy so redirect loops
    terminate.  When the budget is exhausted, the last [not_leader]
    response is returned as-is (the caller sees the typed error), or
    {!Connection_error} is raised when no endpoint ever answered. *)

val failover_close : failover -> unit
(** Drops the current connection if any; the handle stays usable. *)

val failover_stats : failover -> int * int
(** [(failovers, redirects)]: endpoint advances forced by transport
    failures, and [not_leader] redirects chased. *)

(** {1 Load driver} *)

type drive_stats = {
  sent : int;
  ok : int;
  failed : int;  (** responses with [ok=false] *)
  by_code : (string * int) list;  (** error responses per code *)
  mismatches : int;
      (** identical frames answered with different bytes — must be 0
          for a deterministic workload *)
  wall_s : float;
}

val drive :
  ?endpoints:Wire.addr list ->
  ?retry:Replicate.Backoff.policy ->
  ?timeout_ms:int ->
  addr:Wire.addr ->
  conns:int ->
  frames:string array ->
  unit ->
  drive_stats
(** Plays [frames] (canonical JSON lines) over
    [conns] concurrent connections (frame [i] goes to connection
    [i mod conns]; each connection sends its frames in order, one at a
    time).  Identical frame lines are checked to receive identical
    response bytes regardless of schedule.  With a non-empty
    [endpoints], each worker drives a {!failover} handle over that list
    instead of a plain connection to [addr] — the chaos harness's way
    of surviving a leader kill mid-load. *)

val play :
  ?endpoints:Wire.addr list ->
  ?retry:Replicate.Backoff.policy ->
  ?timeout_ms:int ->
  addr:Wire.addr ->
  conns:int ->
  string array ->
  string array
(** Like {!drive}, but returns the responses {e in frame order} (frame
    [i] goes to connection [i mod conns]; response [i] is what it got
    back).  [conns:1] is a sequential replay on a single connection —
    the serial phases of a scenario schedule; larger values fan a storm
    phase out while keeping the response array deterministic for
    order-independent phases.  Canonical JSON, like {!roundtrip}.
    [endpoints] adds failover exactly as in {!drive}. *)

val pp_drive_stats : Format.formatter -> drive_stats -> unit
