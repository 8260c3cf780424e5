(* The reference model of the assertion matrix: cells in a
   [Qname.Pair.Map], relations composed by folding {!Rel.compose_basic}
   over set members.  It is the straightforward implementation the
   dense matrix in [Integrate.Assertions] replaced, kept here so the
   tests can check that the dense layout, its composition table and its
   copy-on-write rule change nothing observable: same cells, sources,
   explanations, conflicts and edges, in the same order. *)

open Ecr
open Integrate

type cell = { rel : Rel.t; src : Assertions.source; dj_integrable : bool }
type t = { nodes : Qname.t list; cells : cell Qname.Pair.Map.t }

exception Contradiction of Assertions.conflict

let compose r1 r2 =
  List.fold_left
    (fun acc b1 ->
      List.fold_left
        (fun acc b2 -> Rel.union acc (Rel.compose_basic b1 b2))
        acc (Rel.to_list r2))
    Rel.empty (Rel.to_list r1)

let converse r =
  Rel.of_list
    (List.map
       (function Rel.Lt -> Rel.Gt | Rel.Gt -> Rel.Lt | b -> b)
       (Rel.to_list r))

let nodes t = t.nodes
let find_cell t pair = Qname.Pair.Map.find_opt pair t.cells

let relation t a b =
  match find_cell t (Qname.Pair.make a b) with
  | None -> Rel.all
  | Some c -> if Qname.Pair.flipped a b then converse c.rel else c.rel

let source_between t a b =
  Option.map (fun c -> c.src) (find_cell t (Qname.Pair.make a b))

let set_cell t a b rel src ~dj_integrable:flag =
  let pair = Qname.Pair.make a b in
  let oriented = if Qname.Pair.flipped a b then converse rel else rel in
  let flag =
    flag || match find_cell t pair with Some c -> c.dj_integrable | None -> false
  in
  {
    t with
    cells =
      Qname.Pair.Map.add pair
        { rel = oriented; src; dj_integrable = flag }
        t.cells;
  }

let assertion_between t a b =
  let integrable =
    match find_cell t (Qname.Pair.make a b) with
    | Some c -> c.dj_integrable
    | None -> false
  in
  Rel.to_assertion ~integrable (relation t a b)

let explain t a b =
  let rec walk visited a b =
    let pair = Qname.Pair.make a b in
    if Qname.Pair.Set.mem pair visited then []
    else
      let visited = Qname.Pair.Set.add pair visited in
      match find_cell t pair with
      | None -> []
      | Some c -> (
          let lo = Qname.Pair.fst pair and hi = Qname.Pair.snd pair in
          match c.src with
          | Assertions.Asserted | Assertions.Structural -> (
              match
                Rel.to_assertion ~integrable:c.dj_integrable (relation t lo hi)
              with
              | Some a' -> [ (lo, hi, a') ]
              | None -> [])
          | Assertions.Derived via -> walk visited lo via @ walk visited via hi)
  in
  List.sort_uniq
    (fun (a1, b1, k1) (a2, b2, k2) ->
      match Qname.compare a1 a2 with
      | 0 -> (
          match Qname.compare b1 b2 with
          | 0 -> Assertion.compare k1 k2
          | c -> c)
      | c -> c)
    (walk Qname.Pair.Set.empty a b)

let conflict_of t a b attempted =
  {
    Assertions.left = a;
    right = b;
    current = relation t a b;
    current_source = source_between t a b;
    attempted;
    basis = explain t a b;
  }

let propagate t start =
  let t = ref t in
  let pending = Queue.create () in
  Queue.add start pending;
  let tighten x y via rel =
    let old = relation !t x y in
    let rel = Rel.inter old rel in
    if not (Rel.equal rel old) then begin
      if Rel.is_empty rel then
        raise
          (Contradiction { (conflict_of !t x y None) with current = rel });
      t := set_cell !t x y rel (Assertions.Derived via) ~dj_integrable:false;
      Queue.add (x, y) pending
    end
  in
  while not (Queue.is_empty pending) do
    let a, b = Queue.pop pending in
    let rel_ab = relation !t a b in
    List.iter
      (fun k ->
        if (not (Qname.equal k a)) && not (Qname.equal k b) then begin
          tighten a k b (compose rel_ab (relation !t b k));
          tighten k b a (compose (relation !t k a) rel_ab)
        end)
      !t.nodes
  done;
  !t

let apply_fact t (a, assertion, b) ~src =
  if not (List.exists (Qname.equal a) t.nodes) then
    raise (Assertions.Unknown_class a);
  if not (List.exists (Qname.equal b) t.nodes) then
    raise (Assertions.Unknown_class b);
  let old_rel = relation t a b in
  let new_rel = Rel.inter old_rel (Rel.of_assertion assertion) in
  if Rel.is_empty new_rel then Error (conflict_of t a b (Some assertion))
  else if Rel.equal new_rel old_rel then Ok t
  else
    let dj_integrable = assertion = Assertion.Disjoint_integrable in
    match propagate (set_cell t a b new_rel src ~dj_integrable) (a, b) with
    | t -> Ok t
    | exception Contradiction c -> Error c

let structural_facts schemas =
  List.concat_map
    (fun s ->
      let q n = Schema.qname s n in
      let rec disjoint = function
        | [] -> []
        | e :: rest ->
            List.map
              (fun e' ->
                ( q e.Object_class.name,
                  Assertion.Disjoint_nonintegrable,
                  q e'.Object_class.name ))
              rest
            @ disjoint rest
      in
      List.concat_map
        (fun oc ->
          List.map
            (fun p -> (q oc.Object_class.name, Assertion.Contained_in, q p))
            (Object_class.parents oc))
        (Schema.categories s)
      @ disjoint (Schema.entities s))
    schemas

let create schemas =
  let nodes =
    List.concat_map
      (fun s ->
        List.map (fun oc -> Schema.qname s oc.Object_class.name) (Schema.objects s))
      schemas
  in
  List.fold_left
    (fun t fact ->
      match apply_fact t fact ~src:Assertions.Structural with
      | Ok t -> t
      | Error _ | (exception Assertions.Unknown_class _) -> t)
    { nodes; cells = Qname.Pair.Map.empty }
    (structural_facts schemas)

let create_for_relationships schemas =
  {
    nodes =
      List.concat_map
        (fun s ->
          List.map
            (fun r -> Schema.qname s r.Relationship.name)
            (Schema.relationships s))
        schemas;
    cells = Qname.Pair.Map.empty;
  }

let add left assertion right t =
  apply_fact t (left, assertion, right) ~src:Assertions.Asserted

let constrained_pairs t =
  List.map
    (fun (pair, c) -> (Qname.Pair.fst pair, Qname.Pair.snd pair, c.rel, c.src))
    (Qname.Pair.Map.bindings t.cells)

let singletons t keep =
  List.filter_map
    (fun (pair, c) ->
      match Rel.to_assertion ~integrable:c.dj_integrable c.rel with
      | Some a when keep c.src a ->
          Some (Qname.Pair.fst pair, Qname.Pair.snd pair, a)
      | _ -> None)
    (Qname.Pair.Map.bindings t.cells)

let derived_assertions t =
  singletons t (fun src _ ->
      match src with Assertions.Derived _ -> true | _ -> false)

let derived_count t = List.length (derived_assertions t)

let asserted_count t =
  Qname.Pair.Map.fold
    (fun _ c n -> if c.src = Assertions.Asserted then n + 1 else n)
    t.cells 0

let integration_edges t = singletons t (fun _ a -> Assertion.integrable a)
