(** A deterministic fixed-size domain pool for the embarrassingly
    parallel stages of the pipeline.

    The contract that makes parallelism safe to wire through the
    integration protocol is {e ordered reduction}: {!map}[ pool f xs]
    returns the results {b in input order}, so any consumer that folds
    over them is bit-identical to the sequential [List.map f xs] — the
    property pinned by the parallel==sequential differential tests.
    Only the {e schedule} of the [f] calls is nondeterministic; [f]
    must therefore be pure up to commutative effects (atomic
    {!Obs.Counter} increments qualify, interactive DDA questions do
    not — the protocol keeps those on the submitting domain).

    A pool of [jobs = n] runs at most [n] tasks concurrently: [n - 1]
    worker domains plus the submitting domain, which participates in
    draining the queue while it waits.  Because the submitter always
    helps, calling {!map} from inside a task of the same pool cannot
    deadlock — the nested call drains its own sub-tasks.  [~jobs:1]
    spawns no domains at all and every [map] degrades to [List.map] on
    the caller's domain.

    Exceptions raised by tasks are captured per task and re-raised at
    the await point, after every task of the batch has settled; when
    several tasks fail, the exception of the {e lowest input index}
    wins, so failure behaviour is deterministic too.

    Observability: ["par.workers"] counts domains spawned,
    ["par.tasks"] counts tasks submitted to a pool (zero on the
    [~jobs:1] bypass), and the ["par.pool_ms"] histogram records
    per-batch wall-clock milliseconds. *)

type pool

val create : jobs:int -> pool
(** [create ~jobs] spawns [max 0 (jobs - 1)] worker domains.  [jobs]
    below 1 behaves as 1.  Pools are lightweight but hold OS threads:
    {!shutdown} them (or use {!with_pool}). *)

val jobs : pool -> int
(** The parallelism degree the pool was created with (>= 1). *)

val worker_count : pool -> int
(** Worker domains actually spawned: [jobs - 1], or 0 for a sequential
    pool — the [~jobs:1] bypass never spawns a domain. *)

val shutdown : pool -> unit
(** Signals the workers to exit and joins them.  Idempotent.  Any
    {!map} still in flight on another domain is completed by the
    submitting domain.  *)

val with_pool : jobs:int -> (pool -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] over a fresh pool and shuts it down
    afterwards, also on exceptions. *)

val map : pool -> ('a -> 'b) -> 'a list -> 'b list
(** Ordered parallel map: same results as [List.map f xs], any
    schedule.  Reentrant on the same pool (see above). *)

val map_array : pool -> ('a -> 'b) -> 'a array -> 'b array
(** As {!map}, over arrays. *)

val iter : pool -> ('a -> unit) -> 'a list -> unit
(** [iter pool f xs] runs every [f x] to completion, in any order.
    Exceptions: as {!map}. *)

val default_jobs : unit -> int
(** The parallelism requested by the environment: [SIT_JOBS] when set
    to a positive integer, else 1.  Entry points that take a [?jobs]
    argument default to this, so [SIT_JOBS=8 dune runtest] drives the
    whole suite through the pool while the default stays sequential. *)
