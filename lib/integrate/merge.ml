open Ecr

type placed = { attr : Attribute.t; components : Qname.Attr.t list }

let order structures =
  let index = Hashtbl.create (List.length structures) in
  List.iteri (fun i q -> Hashtbl.replace index q i) structures;
  fun q -> match Hashtbl.find index q with i -> i | exception Not_found -> max_int

let groups ~order structures edges =
  let parent = Hashtbl.create 16 in
  let rec root q =
    match Hashtbl.find parent q with p -> root p | exception Not_found -> q
  in
  List.iter
    (fun (a, b, assertion) ->
      if assertion = Assertion.Equal then begin
        let ra = root a and rb = root b in
        (* the earliest structure represents its group *)
        if not (Qname.equal ra rb) then
          if order ra <= order rb then Hashtbl.replace parent rb ra
          else Hashtbl.replace parent ra rb
      end)
    edges;
  let members = Hashtbl.create 16 in
  let firsts =
    List.filter
      (fun q ->
        let r = root q in
        match Hashtbl.find members r with
        | ms ->
            Hashtbl.replace members r (q :: ms);
            false
        | exception Not_found ->
            Hashtbl.replace members r [ q ];
            true)
      structures
  in
  List.map (fun q -> List.rev (Hashtbl.find members (root q))) firsts

type attributes = {
  owner_order : Qname.t -> int;
  defs : (Qname.Attr.t, Attribute.t * int) Hashtbl.t;
}

let attributes ~order structures =
  let defs = Hashtbl.create 64 in
  List.iter
    (fun (q, attrs) ->
      List.iteri
        (fun i a -> Hashtbl.replace defs (Qname.Attr.make q a.Attribute.name) (a, i))
        attrs)
    structures;
  { owner_order = order; defs }

let position t qa =
  match Hashtbl.find t.defs qa with
  | _, i -> (t.owner_order qa.Qname.Attr.owner, i)
  | exception Not_found -> (max_int, max_int)

let merged_attribute ~warn t comps =
  let comps = List.sort (fun a b -> compare (position t a) (position t b)) comps in
  let defs = List.filter_map (fun c -> Option.map fst (Hashtbl.find_opt t.defs c)) comps in
  match (comps, defs) with
  | [], _ | _, [] -> None
  | first :: rest, d0 :: drest ->
      let domain =
        List.fold_left
          (fun acc d ->
            match Domain.join acc d.Attribute.domain with
            | Some j -> j
            | None ->
                warn ("incompatible domains merged for " ^ Qname.Attr.to_string first);
                acc)
          d0.Attribute.domain drest
      in
      let key = List.for_all (fun d -> d.Attribute.key) defs in
      let name =
        if rest = [] then first.Qname.Attr.attr
        else Naming.merged_attribute_name first.Qname.Attr.attr
      in
      Some { attr = Attribute.make ~key name domain; components = comps }

type names = Name.Set.t ref

let names taken = ref taken

let claim names n =
  let n = Naming.uniquify !names n in
  names := Name.Set.add n !names;
  n

let group_name naming names = function
  | [ only ] ->
      claim names
        (if Name.Set.mem only.Qname.obj !names then Naming.qualified only
         else only.Qname.obj)
  | members -> claim names (Naming.equivalent_name naming members)

let unique_attributes placed =
  let taken = names Name.Set.empty in
  List.map
    (fun p -> { p with attr = Attribute.rename (claim taken p.attr.Attribute.name) p.attr })
    placed

let first_pairs groups_of items =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun item ->
      let a, b = groups_of item in
      let key = if Name.compare a b <= 0 then (a, b) else (b, a) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    items
