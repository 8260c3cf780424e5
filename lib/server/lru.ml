(* Hash table over an intrusive doubly-linked recency list.  The list
   has a permanent sentinel node; [sentinel.next] is the most recently
   used entry and [sentinel.prev] the least. *)

module Make (K : Hashtbl.HashedType) = struct
  module Table = Hashtbl.Make (K)

  type 'v node = {
    mutable key : K.t option;  (* [None] only on the sentinel *)
    mutable value : 'v option;
    mutable prev : 'v node;
    mutable next : 'v node;
  }

  type 'v t = {
    cap : int;
    table : 'v node Table.t;
    sentinel : 'v node;
  }

  let create ~capacity =
    let rec sentinel =
      { key = None; value = None; prev = sentinel; next = sentinel }
    in
    { cap = capacity; table = Table.create 64; sentinel }

  let capacity t = t.cap
  let size t = Table.length t.table

  let unlink n =
    n.prev.next <- n.next;
    n.next.prev <- n.prev

  let push_front t n =
    n.next <- t.sentinel.next;
    n.prev <- t.sentinel;
    t.sentinel.next.prev <- n;
    t.sentinel.next <- n

  let find t k =
    match Table.find_opt t.table k with
    | None -> None
    | Some n ->
        unlink n;
        push_front t n;
        n.value

  let add t k v =
    if t.cap <= 0 then None
    else begin
      (match Table.find_opt t.table k with
      | Some n ->
          unlink n;
          Table.remove t.table k
      | None -> ());
      let n = { key = Some k; value = Some v; prev = t.sentinel; next = t.sentinel } in
      push_front t n;
      Table.replace t.table k n;
      if Table.length t.table <= t.cap then None
      else begin
        let lru = t.sentinel.prev in
        unlink lru;
        match (lru.key, lru.value) with
        | Some k, Some v ->
            Table.remove t.table k;
            Some (k, v)
        | _ -> None (* sentinel: impossible while the table is non-empty *)
      end
    end

  let clear t =
    Table.reset t.table;
    t.sentinel.next <- t.sentinel;
    t.sentinel.prev <- t.sentinel
end
