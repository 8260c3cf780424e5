type basic = Eq | Lt | Gt | Ov | Dj

type t = int

let bit = function Eq -> 1 | Lt -> 2 | Gt -> 4 | Ov -> 8 | Dj -> 16

let basics = [ Eq; Lt; Gt; Ov; Dj ]

let empty = 0
let all = 31
let of_basic b = bit b
let of_list bs = List.fold_left (fun acc b -> acc lor bit b) 0 bs
let mem b r = r land bit b <> 0
let to_list r = List.filter (fun b -> mem b r) basics
let is_empty r = r = 0

let is_singleton r =
  match to_list r with [ b ] -> Some b | _ -> None

let cardinal r = List.length (to_list r)
let inter a b = a land b
let union a b = a lor b
let subset a b = a land b = a
let equal a b = a = b

let converse_basic = function
  | Lt -> Gt
  | Gt -> Lt
  | (Eq | Ov | Dj) as b -> b

(* The composition table, derived set-theoretically for non-empty sets
   (soundness is property-tested against random finite extents). *)
let compose_basic a b =
  match (a, b) with
  | Eq, x -> of_basic x
  | x, Eq -> of_basic x
  | Lt, Lt -> of_basic Lt
  | Lt, Gt -> all
  | Lt, Ov -> of_list [ Lt; Ov; Dj ]
  | Lt, Dj -> of_basic Dj
  | Gt, Lt -> of_list [ Eq; Lt; Gt; Ov ]
  | Gt, Gt -> of_basic Gt
  | Gt, Ov -> of_list [ Gt; Ov ]
  | Gt, Dj -> of_list [ Gt; Ov; Dj ]
  | Ov, Lt -> of_list [ Lt; Ov ]
  | Ov, Gt -> of_list [ Gt; Ov; Dj ]
  | Ov, Ov -> all
  | Ov, Dj -> of_list [ Gt; Ov; Dj ]
  | Dj, Lt -> of_list [ Lt; Ov; Dj ]
  | Dj, Gt -> of_basic Dj
  | Dj, Ov -> of_list [ Lt; Ov; Dj ]
  | Dj, Dj -> all

(* [converse] and [compose] are table lookups: closing the assertion
   matrix of a 90-class federation composes about 900,000 times.  Both
   tables are filled in index order by peeling off a set's lowest member
   ([r land (r - 1)] is [r] without it), so each entry joins one or two
   earlier entries and [compose_basic] runs once per pair of basic
   relations: a few microseconds at start-up. *)
let basic_of_bit = function
  | 1 -> Eq
  | 2 -> Lt
  | 4 -> Gt
  | 8 -> Ov
  | _ -> Dj

let converse_table =
  let t = Array.make 32 empty in
  for r = 1 to 31 do
    let rest = r land (r - 1) in
    t.(r) <- t.(rest) lor bit (converse_basic (basic_of_bit (r - rest)))
  done;
  t

let converse r = converse_table.(r)

(* indexed [r1 lsl 5 lor r2] *)
let compose_table =
  let t = Array.make 1024 empty in
  for r1 = 1 to 31 do
    let rest1 = r1 land (r1 - 1) in
    for r2 = 1 to 31 do
      let rest2 = r2 land (r2 - 1) in
      t.((r1 lsl 5) lor r2) <-
        (if rest1 <> 0 then
           t.((rest1 lsl 5) lor r2) lor t.(((r1 - rest1) lsl 5) lor r2)
         else if rest2 <> 0 then
           t.((r1 lsl 5) lor rest2) lor t.((r1 lsl 5) lor (r2 - rest2))
         else compose_basic (basic_of_bit r1) (basic_of_bit r2))
    done
  done;
  t

let compose r1 r2 = compose_table.((r1 lsl 5) lor r2)

let of_assertion = function
  | Assertion.Equal -> of_basic Eq
  | Assertion.Contained_in -> of_basic Lt
  | Assertion.Contains -> of_basic Gt
  | Assertion.May_be -> of_basic Ov
  | Assertion.Disjoint_integrable | Assertion.Disjoint_nonintegrable ->
      of_basic Dj

let to_assertion ~integrable r =
  match is_singleton r with
  | Some Eq -> Some Assertion.Equal
  | Some Lt -> Some Assertion.Contained_in
  | Some Gt -> Some Assertion.Contains
  | Some Ov -> Some Assertion.May_be
  | Some Dj ->
      Some
        (if integrable then Assertion.Disjoint_integrable
         else Assertion.Disjoint_nonintegrable)
  | None -> None

let basic_of_extents eq xs ys =
  let mem x l = List.exists (eq x) l in
  let xs_in_ys = List.for_all (fun x -> mem x ys) xs
  and ys_in_xs = List.for_all (fun y -> mem y xs) ys
  and intersect = List.exists (fun x -> mem x ys) xs in
  if xs_in_ys && ys_in_xs then Eq
  else if xs_in_ys then Lt
  else if ys_in_xs then Gt
  else if intersect then Ov
  else Dj

let basic_to_string = function
  | Eq -> "="
  | Lt -> "<"
  | Gt -> ">"
  | Ov -> "o"
  | Dj -> "#"

let to_string r =
  "{" ^ String.concat "," (List.map basic_to_string (to_list r)) ^ "}"

let pp fmt r = Format.pp_print_string fmt (to_string r)
