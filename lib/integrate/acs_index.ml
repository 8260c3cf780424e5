open Ecr

(* Owners order by intern id (integer compares) instead of the display
   order Qname exposes: nothing here iterates into user-visible output,
   and id order is a total order like any other. *)
module OMap = Map.Make (struct
  type t = Qname.t

  let compare (a : Qname.t) (b : Qname.t) =
    match Int.compare (Name.id a.Qname.schema) (Name.id b.Qname.schema) with
    | 0 -> Int.compare (Name.id a.Qname.obj) (Name.id b.Qname.obj)
    | c -> c
end)

(* Owners get dense slots in first-contribution order, and [counts]
   holds the number of covering classes per unordered slot pair: entry
   (i, j) with i >= j lives at i*(i+1)/2 + j, and the diagonal (i, i)
   is the owner's own class count. *)
type t = { slot : int OMap.t; counts : int array }

let c_builds = Obs.Counter.make "similarity.index_builds"

let tri i j = if i >= j then (i * (i + 1) / 2) + j else (j * (j + 1) / 2) + i

let build eq =
  Obs.Span.run "similarity.index_build" @@ fun () ->
  Obs.Counter.incr c_builds;
  (* First pass: slot every owner and list each class's distinct owner
     slots, so the array is sized once. *)
  let slot, n_slots, classes =
    List.fold_left
      (fun (slot, n, classes) cls ->
        let slot, n, ids =
          List.fold_left
            (fun ((slot, n, ids) as acc) a ->
              let o = a.Qname.Attr.owner in
              match OMap.find_opt o slot with
              | Some i -> if List.mem i ids then acc else (slot, n, i :: ids)
              | None -> (OMap.add o n slot, n + 1, n :: ids))
            (slot, n, []) cls
        in
        (slot, n, ids :: classes))
      (OMap.empty, 0, []) (Equivalence.classes eq)
  in
  (* Second pass: each class adds one to every owner it covers and to
     every unordered pair of distinct owners it covers. *)
  let counts = Array.make (n_slots * (n_slots + 1) / 2) 0 in
  let bump p = counts.(p) <- counts.(p) + 1 in
  let rec contribute = function
    | [] -> ()
    | i :: rest ->
        bump (tri i i);
        List.iter (fun j -> bump (tri i j)) rest;
        contribute rest
  in
  List.iter contribute classes;
  { slot; counts }

let shared o1 o2 t =
  match (OMap.find_opt o1 t.slot, OMap.find_opt o2 t.slot) with
  | Some i, Some j -> t.counts.(tri i j)
  | _ -> 0
