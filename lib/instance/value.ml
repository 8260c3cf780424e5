type t =
  | Str of string
  | Int of int
  | Real of float
  | Bool of bool
  | Date of int * int * int
  | Null

let equal a b =
  match (a, b) with
  | Str x, Str y -> String.equal x y
  | Int x, Int y -> x = y
  | Real x, Real y -> Float.equal x y
  | Int x, Real y | Real y, Int x -> Float.equal (float_of_int x) y
  | Bool x, Bool y -> x = y
  | Date (y1, m1, d1), Date (y2, m2, d2) -> y1 = y2 && m1 = m2 && d1 = d2
  | Null, Null -> true
  | (Str _ | Int _ | Real _ | Bool _ | Date _ | Null), _ -> false

(* [equal] values hash alike: a whole number hashes as the [int] it
   truncates to, whether it is an [Int] or a [Real], and [Hashtbl.hash]
   hashes every NaN alike.  Neither number case allocates. *)
let hash = function
  | Null -> 0
  | Bool b -> Bool.to_int b + 1
  | Int x -> int_of_float (float_of_int x)
  | Real x -> if Float.is_integer x then int_of_float x else Hashtbl.hash x
  | Str s -> Hashtbl.hash s
  | Date (y, m, d) -> (((y * 16) + m) * 32) + d

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Real _ -> 2 (* Int and Real compare numerically *)
  | Str _ -> 3
  | Date _ -> 4

let compare a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Real x, Real y -> Float.compare x y
  | Int x, Real y -> Float.compare (float_of_int x) y
  | Real x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Date (y1, m1, d1), Date (y2, m2, d2) ->
      Stdlib.compare (y1, m1, d1) (y2, m2, d2)
  | Null, Null -> 0
  | _ -> Int.compare (rank a) (rank b)

let valid_date y m d =
  y >= 0 && m >= 1 && m <= 12 && d >= 1 && d <= 31

let conforms v dom =
  match (v, dom) with
  | Null, _ -> true
  | Str _, Ecr.Domain.Char_string -> true
  | Str s, Ecr.Domain.Enum values -> List.exists (String.equal s) values
  | Int _, (Ecr.Domain.Integer | Ecr.Domain.Real) -> true
  | Real _, Ecr.Domain.Real -> true
  | Bool _, Ecr.Domain.Boolean -> true
  | Date (y, m, d), Ecr.Domain.Date -> valid_date y m d
  | _, Ecr.Domain.Named _ -> true (* opaque domains accept anything *)
  | (Str _ | Int _ | Real _ | Bool _ | Date _), _ -> false

let coerce v dom =
  if conforms v dom then
    match (v, dom) with
    | Int x, Ecr.Domain.Real -> Some (Real (float_of_int x))
    | _ -> Some v
  else
    match (v, dom) with
    | Real x, Ecr.Domain.Integer when Float.is_integer x ->
        Some (Int (int_of_float x))
    | _ -> None

(* The primitive behind [Printf]'s [%g]: the same bytes, without the
   format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* The fewest of 15, 16 and 17 significant digits that read back as
   [x]; a [.0] marks a whole number as a real. *)
let real_to_string x =
  let s = format_float "%.15g" x in
  let s =
    if Float.equal (float_of_string s) x then s
    else
      let s = format_float "%.16g" x in
      if Float.equal (float_of_string s) x then s else format_float "%.17g" x
  in
  if Float.is_integer x && not (String.contains s 'e') then s ^ ".0" else s

(* [n] as [Printf]'s ["%0*d"] pads it to [width]. *)
let add_padded buf width n =
  let s = string_of_int n in
  let zeros = width - String.length s in
  if zeros <= 0 then Buffer.add_string buf s
  else begin
    let sign = if n < 0 then 1 else 0 in
    Buffer.add_substring buf s 0 sign;
    for _ = 1 to zeros do
      Buffer.add_char buf '0'
    done;
    Buffer.add_substring buf s sign (String.length s - sign)
  end

let date_to_string y m d =
  let buf = Buffer.create 10 in
  add_padded buf 4 y;
  Buffer.add_char buf '-';
  add_padded buf 2 m;
  Buffer.add_char buf '-';
  add_padded buf 2 d;
  Buffer.contents buf

(* Neither the loader nor the query language has escapes, so no string
   holds both quotes: one with a double quote is written in single
   quotes. *)
let to_string = function
  | Str s when String.contains s '"' -> "'" ^ s ^ "'"
  | Str s -> "\"" ^ s ^ "\""
  | Int n -> string_of_int n
  | Real x -> real_to_string x
  | Bool b -> string_of_bool b
  | Date (y, m, d) -> date_to_string y m d
  | Null -> "null"

let pp fmt v = Format.pp_print_string fmt (to_string v)

let str s = Str s
let int n = Int n
let real x = Real x
let bool b = Bool b
let date y m d = Date (y, m, d)
