(** Deterministic fan-out of independent jobs over the machine's
    cores.  [sit_batch] runs its sessions through {!map}; every stage
    of the integration pipeline itself stays sequential (see
    docs/ARCHITECTURE.md, "Deterministic parallelism").

    The contract is {e ordered reduction}: {!map}[ f xs] returns the
    results {b in input order}, so any consumer that folds over them is
    bit-identical to the sequential [List.map f xs] — the property
    pinned by the parallel==sequential differential tests.  Only the
    {e schedule} of the [f] calls is nondeterministic; [f] must
    therefore be pure up to commutative effects (atomic {!Obs.Counter}
    increments qualify, interactive DDA questions do not).

    Sizing needs no setting: a call runs on at most
    [min (List.length xs) (Domain.recommended_domain_count ())]
    domains, the caller plus freshly spawned ones that claim indices
    from one atomic counter, and joins every spawned domain before it
    returns.  The spawned domains of all calls in flight, nested or
    concurrent, share that budget of [recommended_domain_count () - 1],
    so a call that finds it spent runs on its caller alone and the
    process never asks the runtime for more domains than the machine
    has cores.  A 0- or 1-element list, or a 1-core host, never spawns
    a domain.

    Exceptions raised by [f] are captured per element; when several
    elements fail, the exception of the {e lowest input index} is
    re-raised (on a fan-out, after every element has settled), so
    failure behaviour is deterministic too.

    Spans: a span entered on a spawned domain starts a fresh ancestry
    and lands at the root of the tree ({!Obs.Span}), so a map called
    with no span open keeps the paths and counts of a one-domain run.

    Observability: ["par.workers"] counts domains spawned,
    ["par.tasks"] counts the elements of calls that fanned out (zero
    when a call runs on its caller alone), and the ["par.pool_ms"]
    histogram records each fan-out's wall-clock milliseconds. *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** Ordered parallel map: same results as [List.map f xs], any
    schedule.  Reentrant: [f] may itself call {!map}. *)

module For_testing : sig
  val with_domains : int -> (unit -> 'a) -> 'a
  (** [with_domains n f] runs [f] with [max 1 n] in place of
      [Domain.recommended_domain_count ()], so tests can compare the
      sequential reference ([n = 1]) with fan-outs wider than the
      host, and restores the previous value afterwards (also on
      exceptions).  Not for concurrent use. *)
end
