open Ecr

type source = Asserted | Structural | Derived of Qname.t

type conflict = {
  left : Qname.t;
  right : Qname.t;
  current : Rel.t;
  current_source : source option;
  attempted : Assertion.t option;
  basis : (Qname.t * Qname.t * Assertion.t) list;
}

exception Unknown_class of Qname.t

module Slots = Hashtbl.Make (struct
  type t = Qname.t

  let equal = Qname.equal

  (* a qname is two interned ids, so the structural hash agrees with
     [equal] *)
  let hash = Hashtbl.hash
end)

(* The matrix is dense: the distinct nodes hold slots 0..n-1 in
   [Qname] order, and cell (i, j) is [rows.(i).(j)], one int packing

   - bits 0-4: the relation oriented i -> j (a {!Rel.t});
   - bit 5: the pair's integrable flag (the DDA used code 4 on it);
   - bits 6 and up: the source — 0 nothing known, 1 asserted,
     2 structural, 3 + k derived via slot k.

   Both orientations of a pair are stored, so a lookup never converts;
   a cell is known exactly when its source is not 0 (a cell only ever
   tightens, so a known cell is never {!Rel.all}).

   Everything but [rows] is fixed by the node list and shared by every
   matrix [add] derives from one [create].  [rows] is copy-on-write by
   row: [add] copies the spine, and the closure copies a row the first
   time it writes to it, so the result shares every row it left alone
   with the matrix it came from.  No row is written once a matrix is
   returned, so a matrix a caller holds never changes and any domain
   may read it. *)
type t = {
  nodes : Qname.t list;
  names : Qname.t array;  (** slot -> node *)
  slots : int Slots.t;  (** node -> slot; never written after [make] *)
  order : int array;
      (** the slot of each entry of [nodes], in registration order: the
          order [propagate] visits third nodes in *)
  rows : int array array;
}

exception Contradiction of conflict

(* Observability: the matrix closure is the other superlinear hot path
   (path consistency is cubic in nodes in the worst case).  [derived]
   counts cells tightened by composition — the automation the paper
   credits to transitive derivation; [conflicts] counts rejections. *)
let c_facts = Obs.Counter.make "assertions.facts_applied"
let c_derived = Obs.Counter.make "assertions.derived"
let c_conflicts = Obs.Counter.make "assertions.conflicts"

let rel_mask = 31
let flag_bit = 32
let src_shift = 6
let src_asserted = 1
let src_structural = 2
let src_derived = 3
let src_via k = src_derived + k

(* [Rel.t] is private: this is the way back from a cell's low bits *)
let rel_of_bits =
  Array.init 32 (fun bits ->
      Rel.of_list
        (List.filter
           (fun b -> bits land (Rel.of_basic b :> int) <> 0)
           [ Rel.Eq; Rel.Lt; Rel.Gt; Rel.Ov; Rel.Dj ]))

let rel_of cell = rel_of_bits.(cell land rel_mask)

let make nodes =
  let names = Array.of_list (List.sort_uniq Qname.compare nodes) in
  let n = Array.length names in
  let slots = Slots.create n in
  Array.iteri (fun i q -> Slots.add slots q i) names;
  {
    nodes;
    names;
    slots;
    order = Array.of_list (List.map (Slots.find slots) nodes);
    rows = Array.init n (fun _ -> Array.make n (Rel.all :> int));
  }

let nodes t = t.nodes
let slot t q = Slots.find_opt t.slots q

let slot_exn t q =
  match Slots.find_opt t.slots q with
  | Some i -> i
  | None -> raise (Unknown_class q)

let dim t = Array.length t.names

let source_of t cell =
  match cell lsr src_shift with
  | 0 -> None
  | 1 -> Some Asserted
  | 2 -> Some Structural
  | s -> Some (Derived t.names.(s - src_derived))

let cell t a b =
  match (slot t a, slot t b) with
  | Some i, Some j -> Some t.rows.(i).(j)
  | _ -> None

let source_to_string = function
  | Asserted -> "asserted"
  | Structural -> "structural"
  | Derived via -> Printf.sprintf "derived via %s" (Qname.to_string via)

let conflict_to_string c =
  let b = Buffer.create 128 in
  Printf.bprintf b "(%s, %s): " (Qname.to_string c.left)
    (Qname.to_string c.right);
  (match c.attempted with
  | Some a -> Printf.bprintf b "assertion \"%s\" rejected" (Assertion.to_string a)
  | None -> Buffer.add_string b "contradiction found by propagation");
  Printf.bprintf b "; current knowledge %s" (Rel.to_string c.current);
  (match c.current_source with
  | Some s -> Printf.bprintf b " (%s)" (source_to_string s)
  | None -> ());
  (match c.basis with
  | [] -> ()
  | basis ->
      Buffer.add_string b "; derived from";
      List.iter
        (fun (l, r, a) ->
          Printf.bprintf b " [%s %s %s]" (Qname.to_string l)
            (Assertion.to_string a) (Qname.to_string r))
        basis);
  Buffer.contents b

let relation t a b =
  match cell t a b with Some c -> rel_of c | None -> Rel.all

let source_between t a b = Option.bind (cell t a b) (source_of t)

let assertion_between t a b =
  match cell t a b with
  | Some c -> Rel.to_assertion ~integrable:(c land flag_bit <> 0) (rel_of c)
  | None -> None

(* Row [i] of [t], ready to be written: a row [t] still shares with
   [base], the spine of the matrix it was derived from, is copied into
   [t] first.  The seed writes in place, with an empty [base]. *)
let own t base i =
  let row = t.rows.(i) in
  if i < Array.length base && row == base.(i) then begin
    let row = Array.copy row in
    t.rows.(i) <- row;
    row
  end
  else row

(* Store [rel] as the relation from slot [i] to slot [j].  No flag is
   lost: a flagged cell is a singleton, which only a conflict could
   tighten.  On the diagonal the second write wins, so a cell (i, i)
   holds [rel] as given. *)
let set t base i j rel src ~integrable =
  let tag = (if integrable then flag_bit else 0) lor (src lsl src_shift) in
  (own t base j).(i) <- (Rel.converse (rel_of rel) :> int) lor tag;
  (own t base i).(j) <- rel lor tag

(* The slots of a pair in [Qname.Pair] orientation. *)
let canonical i j = if i <= j then (i, j) else (j, i)

module Visited = Set.Make (Int)

(* Recursively unfold Derived sources down to asserted/structural leaves.
   Cycles cannot occur: a Derived cell's parents were set strictly
   earlier, but we keep a visited set for robustness. *)
let explain_slots t i j =
  let n = dim t in
  let rec walk visited i j =
    let lo, hi = canonical i j in
    let key = (lo * n) + hi in
    if Visited.mem key visited then []
    else
      let visited = Visited.add key visited in
      let c = t.rows.(lo).(hi) in
      match c lsr src_shift with
      | 0 -> []
      | s when s < src_derived -> (
          match Rel.to_assertion ~integrable:(c land flag_bit <> 0) (rel_of c) with
          | Some a -> [ (t.names.(lo), t.names.(hi), a) ]
          | None ->
              (* non-singleton asserted cell cannot happen via [add],
                 but report nothing rather than lie *)
              [])
      | s ->
          let via = s - src_derived in
          walk visited lo via @ walk visited via hi
  in
  (* explicit comparator: Qname order is the spelled-out-name order,
     which polymorphic compare no longer coincides with now that names
     are interned ints *)
  List.sort_uniq
    (fun (a1, b1, k1) (a2, b2, k2) ->
      match Qname.compare a1 a2 with
      | 0 -> (
          match Qname.compare b1 b2 with
          | 0 -> Assertion.compare k1 k2
          | c -> c)
      | c -> c)
    (walk Visited.empty i j)

let explain t a b =
  match (slot t a, slot t b) with
  | Some i, Some j -> explain_slots t i j
  | _ -> []

let conflict_of t i j attempted =
  let c = t.rows.(i).(j) in
  {
    left = t.names.(i);
    right = t.names.(j);
    current = rel_of c;
    current_source = source_of t c;
    attempted;
    basis = explain_slots t i j;
  }

let contradiction t i j =
  Obs.Counter.incr c_conflicts;
  raise (Contradiction { (conflict_of t i j None) with current = Rel.empty })

(* Incremental path consistency: starting from the tightened cell
   (a, b), queued as [a * n + b], push consequences until fixpoint,
   visiting the third node k in node order.  Writes go through [set],
   which may replace a row, so every read goes through [t.rows] afresh.
   Raises [Contradiction] when a cell empties. *)
let propagate t base ab =
  Obs.Span.run "assertions.propagate" @@ fun () ->
  let n = dim t and rows = t.rows and order = t.order in
  let pending = Queue.create () in
  Queue.add ab pending;
  while not (Queue.is_empty pending) do
    let ab = Queue.pop pending in
    let a = ab / n and b = ab mod n in
    let rel_ab = rel_of rows.(a).(b) in
    (* a loop, not [Array.iter]: the closure call per visit cost a
       tenth of the script's closing time *)
    for x = 0 to Array.length order - 1 do
      let k = order.(x) in
      if k <> a && k <> b then begin
        (* tighten (a,k) through b *)
        let old_ak = rows.(a).(k) land rel_mask in
        let new_ak =
          old_ak land (Rel.compose rel_ab (rel_of rows.(b).(k)) :> int)
        in
        if new_ak <> old_ak then begin
          if new_ak = 0 then contradiction t a k;
          Obs.Counter.incr c_derived;
          set t base a k new_ak (src_via b) ~integrable:false;
          Queue.add ((a * n) + k) pending
        end;
        (* tighten (k,b) through a *)
        let old_kb = rows.(k).(b) land rel_mask in
        let new_kb =
          old_kb land (Rel.compose (rel_of rows.(k).(a)) rel_ab :> int)
        in
        if new_kb <> old_kb then begin
          if new_kb = 0 then contradiction t k b;
          Obs.Counter.incr c_derived;
          set t base k b new_kb (src_via a) ~integrable:false;
          Queue.add ((k * n) + b) pending
        end
      end
    done
  done

(* Records "i ⟨assertion⟩ j" and closes the matrix: when [copy], on a
   new spine whose rows are copied as they are first written (so a
   rejection leaves [t] untouched), else on [t]'s own rows. *)
let apply_fact t i assertion j ~src ~copy =
  let old_rel = t.rows.(i).(j) land rel_mask in
  let new_rel = old_rel land (Rel.of_assertion assertion :> int) in
  if new_rel = 0 then begin
    Obs.Counter.incr c_conflicts;
    Error (conflict_of t i j (Some assertion))
  end
  else if new_rel = old_rel then Ok t
  else begin
    Obs.Counter.incr c_facts;
    let t', base =
      if copy then ({ t with rows = Array.copy t.rows }, t.rows) else (t, [||])
    in
    set t' base i j new_rel src
      ~integrable:(assertion = Assertion.Disjoint_integrable);
    match propagate t' base ((i * dim t) + j) with
    | () -> Ok t'
    | exception Contradiction c -> Error c
  end

let seed_structural schemas =
  List.concat_map
    (fun s ->
      let q n = Schema.qname s n in
      let category_edges =
        List.concat_map
          (fun oc ->
            List.map
              (fun parent -> (q oc.Object_class.name, Assertion.Contained_in, q parent))
              (Object_class.parents oc))
          (Schema.categories s)
      in
      let disjoint_entities =
        let rec pairs = function
          | [] -> []
          | e :: rest ->
              List.map
                (fun e' ->
                  ( q e.Object_class.name,
                    Assertion.Disjoint_nonintegrable,
                    q e'.Object_class.name ))
                rest
              @ pairs rest
        in
        pairs (Schema.entities s)
      in
      category_edges @ disjoint_entities)
    schemas

let create schemas =
  Obs.Span.run "assertions.seed" @@ fun () ->
  let object_nodes =
    List.concat_map
      (fun s ->
        List.map (fun oc -> Schema.qname s oc.Object_class.name) (Schema.objects s))
      schemas
  in
  (* The seed closes in place, on the rows [make] allocated.  A fact
     the schema itself contradicts (it would have failed validation) is
     dropped, and nothing of it stays behind: the facts are containments
     and disjointness, whose closure shows every contradiction at the
     contradicting fact's own cell before anything is written.  A
     category under two entities has already ruled out their
     disjointness; a cycle of categories has already turned its last
     edge around.  The oracle tests pin this on random schemas with
     shared and cyclic parents. *)
  List.fold_left
    (fun t (a, assertion, b) ->
      match (slot t a, slot t b) with
      | Some i, Some j -> (
          match apply_fact t i assertion j ~src:src_structural ~copy:false with
          | Ok t -> t
          | Error _ -> t)
      | _ ->
          (* a category naming a parent the schema lacks *)
          t)
    (make object_nodes) (seed_structural schemas)

let create_for_relationships schemas =
  make
    (List.concat_map
       (fun s ->
         List.map
           (fun r -> Schema.qname s r.Relationship.name)
           (Schema.relationships s))
       schemas)

let add left assertion right t =
  let i = slot_exn t left and j = slot_exn t right in
  apply_fact t i assertion j ~src:src_asserted ~copy:true

(* The known cells in [Qname.Pair] order: slot pairs (lo, hi) with
   lo <= hi, oriented lo -> hi.  [f] sees them last to first, so an [f]
   that conses builds the list in order. *)
let fold_known t f init =
  let n = dim t in
  let acc = ref init in
  for lo = n - 1 downto 0 do
    let row = t.rows.(lo) in
    for hi = n - 1 downto lo do
      let c = row.(hi) in
      if c lsr src_shift <> 0 then acc := f t.names.(lo) t.names.(hi) c !acc
    done
  done;
  !acc

let constrained_pairs t =
  fold_known t
    (fun lo hi c acc ->
      match source_of t c with
      | Some src -> (lo, hi, rel_of c, src) :: acc
      | None -> acc)
    []

let singletons t keep =
  fold_known t
    (fun lo hi c acc ->
      match Rel.to_assertion ~integrable:(c land flag_bit <> 0) (rel_of c) with
      | Some a when keep c a -> (lo, hi, a) :: acc
      | _ -> acc)
    []

let derived_assertions t =
  singletons t (fun c _ -> c lsr src_shift >= src_derived)

let asserted_count t =
  fold_known t
    (fun _ _ c n -> if c lsr src_shift = src_asserted then n + 1 else n)
    0

let derived_count t = List.length (derived_assertions t)

let integration_edges t = singletons t (fun _ a -> Assertion.integrable a)
