(** A small LRU map for the rewrite-plan cache.

    Plain imperative structure — O(1) find/add via a hash table over an
    intrusive doubly-linked recency list.  {b Not} thread-safe: the
    server serialises access under its own cache mutex, so the
    structure stays free of locking policy. *)

module Make (K : Hashtbl.HashedType) : sig
  type 'v t

  val create : capacity:int -> 'v t
  (** [capacity <= 0] creates a disabled cache: {!add} is a no-op and
      {!find} always misses. *)

  val capacity : 'v t -> int
  val size : 'v t -> int

  val find : 'v t -> K.t -> 'v option
  (** On a hit the entry becomes most-recently used. *)

  val add : 'v t -> K.t -> 'v -> (K.t * 'v) option
  (** Inserts (or replaces) the binding as most-recently used and
      returns the evicted least-recently-used binding, if the insertion
      pushed the cache over capacity. *)

  val clear : 'v t -> unit
end
(** An LRU map whose keys are equal and hashed as [K] says. *)
