open Ecr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type pred =
  | Atom of Name.t * cmp * Instance.Value.t
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Const of bool

type join = {
  rel : Name.t;
  rel_select : Name.t list;
  target : Name.t;
  target_where : pred option;
  target_select : Name.t list;
}

type t = {
  from_class : Name.t;
  where : pred option;
  select : Name.t list;
  via : join option;
}

let atom attr cmp v = Atom (Name.v attr, cmp, v)
let ( &&& ) a b = And (a, b)
let ( ||| ) a b = Or (a, b)
let not_ p = Not p

let join ?where ?(target_select = []) ?(rel_select = []) rel target =
  {
    rel = Name.v rel;
    rel_select = List.map Name.v rel_select;
    target = Name.v target;
    target_where = where;
    target_select = List.map Name.v target_select;
  }

let query ?where ?(select = []) ?via from_class =
  { from_class = Name.v from_class; where; select = List.map Name.v select; via }

let rec rename_pred f = function
  | Atom (a, cmp, v) -> Atom (f a, cmp, v)
  | And (p, q) -> And (rename_pred f p, rename_pred f q)
  | Or (p, q) -> Or (rename_pred f p, rename_pred f q)
  | Not p -> Not (rename_pred f p)
  | Const b -> Const b

let attrs_of_pred p =
  let rec walk acc = function
    | Atom (a, _, _) -> a :: acc
    | And (p, q) | Or (p, q) -> walk (walk acc p) q
    | Not p -> walk acc p
    | Const _ -> acc
  in
  List.sort_uniq Name.compare (walk [] p)

let same_value a b =
  match (a, b) with
  | Instance.Value.Real x, Instance.Value.Real y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> a = b

let rec equal_pred p q =
  match (p, q) with
  | Atom (a, c, v), Atom (b, d, w) -> Name.equal a b && c = d && same_value v w
  | And (p1, p2), And (q1, q2) | Or (p1, p2), Or (q1, q2) ->
      equal_pred p1 q1 && equal_pred p2 q2
  | Not p, Not q -> equal_pred p q
  | Const b, Const c -> b = c
  | (Atom _ | And _ | Or _ | Not _ | Const _), _ -> false

let equal_names = List.equal Name.equal

let equal a b =
  Name.equal a.from_class b.from_class
  && equal_names a.select b.select
  && Option.equal equal_pred a.where b.where
  && Option.equal
       (fun j k ->
         Name.equal j.rel k.rel
         && equal_names j.rel_select k.rel_select
         && Name.equal j.target k.target
         && Option.equal equal_pred j.target_where k.target_where
         && equal_names j.target_select k.target_select)
       a.via b.via

(* [Hashtbl.hash] hashes [0.] and [-0.] alike, which {!equal} allows. *)
let hash (q : t) = Hashtbl.hash q

let cmp_to_string = function
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

(* One printer, into a buffer: the queries a rewrite answer echoes are
   printed without Format's formatter state. *)
let rec add_pred buf = function
  | Atom (a, cmp, v) ->
      Buffer.add_string buf (Name.to_string a);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (cmp_to_string cmp);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (Instance.Value.to_string v)
  | And (p, q) -> add_binary buf p " and " q
  | Or (p, q) -> add_binary buf p " or " q
  | Not p ->
      Buffer.add_string buf "(not ";
      add_pred buf p;
      Buffer.add_char buf ')'
  | Const b -> Buffer.add_string buf (string_of_bool b)

and add_binary buf p op q =
  Buffer.add_char buf '(';
  add_pred buf p;
  Buffer.add_string buf op;
  add_pred buf q;
  Buffer.add_char buf ')'

let add_names buf names =
  List.iteri
    (fun i n ->
      if i > 0 then Buffer.add_string buf ", ";
      Buffer.add_string buf (Name.to_string n))
    names

let to_string q =
  let buf = Buffer.create 64 in
  let add = Buffer.add_string buf in
  add "select ";
  (match q.select with [] -> add "*" | names -> add_names buf names);
  add " from ";
  add (Name.to_string q.from_class);
  (match q.via with
  | Some j ->
      add " via ";
      add (Name.to_string j.rel);
      if j.rel_select <> [] then begin
        add " with ";
        add_names buf j.rel_select
      end;
      add " to ";
      add (Name.to_string j.target);
      if j.target_select <> [] then begin
        add " select ";
        add_names buf j.target_select
      end;
      Option.iter
        (fun p ->
          add " target_where ";
          add_pred buf p)
        j.target_where
  | None -> ());
  Option.iter
    (fun p ->
      add " where ";
      add_pred buf p)
    q.where;
  Buffer.contents buf

let pp_pred fmt p =
  let buf = Buffer.create 32 in
  add_pred buf p;
  Format.pp_print_string fmt (Buffer.contents buf)

let pp fmt q = Format.pp_print_string fmt (to_string q)
