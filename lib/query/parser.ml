open Ecr
module V = Instance.Value

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* ------------------------------------------------------------------ *)
(* Tokens.                                                             *)

type token =
  | Ident of string
  | Number of string
  | Str of string
  | Cmp of Ast.cmp
  | Star
  | Comma
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Assign  (** '=' doubles as comparison; disambiguated by context *)
  | Eof

let keywordish s = String.lowercase_ascii s

let tokenize src =
  let n = String.length src in
  let out = ref [] in
  let emit t = out := t :: !out in
  let is_ident_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let is_ident c = is_ident_start c || (c >= '0' && c <= '9') in
  let is_digit c = (c >= '0' && c <= '9') || c = '.' || c = '-' in
  let rec scan i =
    if i >= n then emit Eof
    else
      match src.[i] with
      | ' ' | '\t' | '\n' | '\r' -> scan (i + 1)
      | ',' ->
          emit Comma;
          scan (i + 1)
      | '*' ->
          emit Star;
          scan (i + 1)
      | '(' ->
          emit Lparen;
          scan (i + 1)
      | ')' ->
          emit Rparen;
          scan (i + 1)
      | '{' ->
          emit Lbrace;
          scan (i + 1)
      | '}' ->
          emit Rbrace;
          scan (i + 1)
      | '<' when i + 1 < n && src.[i + 1] = '>' ->
          emit (Cmp Ast.Ne);
          scan (i + 2)
      | '<' when i + 1 < n && src.[i + 1] = '=' ->
          emit (Cmp Ast.Le);
          scan (i + 2)
      | '>' when i + 1 < n && src.[i + 1] = '=' ->
          emit (Cmp Ast.Ge);
          scan (i + 2)
      | '<' ->
          emit (Cmp Ast.Lt);
          scan (i + 1)
      | '>' ->
          emit (Cmp Ast.Gt);
          scan (i + 1)
      | '=' ->
          emit Assign;
          scan (i + 1)
      | ('\'' | '"') as quote ->
          let rec stop j =
            if j >= n then error "unterminated string at offset %d" i
            else if src.[j] = quote then j
            else stop (j + 1)
          in
          let j = stop (i + 1) in
          emit (Str (String.sub src (i + 1) (j - i - 1)));
          scan (j + 1)
      | c when c = '-' || (c >= '0' && c <= '9') ->
          let rec stop j = if j < n && is_digit src.[j] then stop (j + 1) else j in
          let j = Instance.Loader.scan_exponent src (stop (i + 1)) in
          emit (Number (String.sub src i (j - i)));
          scan j
      | c when is_ident_start c ->
          let rec stop j = if j < n && is_ident src.[j] then stop (j + 1) else j in
          let j = stop i in
          emit (Ident (String.sub src i (j - i)));
          scan j
      | c -> error "illegal character %C at offset %d" c i
  in
  scan 0;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Values.                                                             *)

let date_of_string s =
  if String.length s <> 10 then None
  else
    match String.split_on_char '-' s with
    | [ y; m; d ] -> (
        let int = int_of_string_opt in
        match (int y, int m, int d) with
        | Some y, Some m, Some d when m >= 1 && m <= 12 && d >= 1 && d <= 31 ->
            Some (V.date y m d)
        | _ -> None)
    | _ -> None

let number s =
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then
    match float_of_string_opt s with
    | Some f when Float.is_finite f -> V.real f
    | Some _ -> error "number %s is out of range" s
    | None -> error "bad number %s" s
  else
    match int_of_string_opt s with
    | Some i -> V.int i
    | None -> error "bad number %s" s

let value_of_token = function
  | Number s -> ( match date_of_string s with Some d -> d | None -> number s)
  | Str s -> ( match date_of_string s with Some d -> d | None -> V.str s)
  | Ident s when keywordish s = "true" -> V.bool true
  | Ident s when keywordish s = "false" -> V.bool false
  | Ident s when keywordish s = "null" -> V.Null
  | _ -> error "expected a value"

let value_of_string s =
  match tokenize s with
  | [ t; Eof ] -> value_of_token t
  | _ -> error "expected exactly one value"

(* ------------------------------------------------------------------ *)
(* Recursive descent.                                                  *)

type state = { mutable rest : token list }

let peek st = match st.rest with [] -> Eof | t :: _ -> t
let advance st = match st.rest with [] -> () | _ :: r -> st.rest <- r

let ident st =
  match peek st with
  | Ident s ->
      advance st;
      s
  | _ -> error "expected an identifier"

let keyword st kw =
  match peek st with
  | Ident s when keywordish s = kw -> advance st
  | _ -> error "expected '%s'" kw

let at_keyword st kw =
  match peek st with Ident s -> keywordish s = kw | _ -> false

let name st =
  match Name.of_string_opt (ident st) with
  | Some n -> n
  | None -> error "invalid identifier"

(* A bare [true] or [false] is a constant predicate, unless it names
   the attribute of a comparison. *)
let comparison_follows st =
  match st.rest with _ :: (Cmp _ | Assign) :: _ -> true | _ -> false

(* pred ::= disjunction *)
let rec pred st = disjunction st

and disjunction st =
  let left = conjunction st in
  if at_keyword st "or" then begin
    advance st;
    Ast.Or (left, disjunction st)
  end
  else left

and conjunction st =
  let left = negation st in
  if at_keyword st "and" then begin
    advance st;
    Ast.And (left, conjunction st)
  end
  else left

and negation st =
  if at_keyword st "not" then begin
    advance st;
    Ast.Not (negation st)
  end
  else atom st

and atom st =
  match peek st with
  | Lparen ->
      advance st;
      let p = pred st in
      (match peek st with
      | Rparen -> advance st
      | _ -> error "expected ')'");
      p
  | Ident s
    when (keywordish s = "true" || keywordish s = "false")
         && not (comparison_follows st) ->
      advance st;
      Ast.Const (keywordish s = "true")
  | Ident _ ->
      let attr = name st in
      let cmp =
        match peek st with
        | Cmp c ->
            advance st;
            c
        | Assign ->
            advance st;
            Ast.Eq
        | _ -> error "expected a comparison operator"
      in
      let v = value_of_token (peek st) in
      advance st;
      Ast.Atom (attr, cmp, v)
  | _ -> error "expected a predicate"

let attr_list st =
  let rec more acc =
    let a = name st in
    if peek st = Comma then begin
      advance st;
      more (a :: acc)
    end
    else List.rev (a :: acc)
  in
  more []

let assignments st =
  let rec more acc =
    let a = name st in
    (match peek st with
    | Assign -> advance st
    | _ -> error "expected '=' in an assignment");
    let v = value_of_token (peek st) in
    advance st;
    if peek st = Comma then begin
      advance st;
      more ((a, v) :: acc)
    end
    else List.rev ((a, v) :: acc)
  in
  more []

let query_of_string src =
  let st = { rest = tokenize src } in
  keyword st "select";
  let select =
    match peek st with
    | Star ->
        advance st;
        []
    | _ -> attr_list st
  in
  keyword st "from";
  let from_class = name st in
  let via =
    if at_keyword st "via" then begin
      advance st;
      let rel = name st in
      let rel_select =
        if at_keyword st "with" then begin
          advance st;
          attr_list st
        end
        else []
      in
      keyword st "to";
      let target = name st in
      let target_select =
        if at_keyword st "select" then begin
          advance st;
          match peek st with
          | Star ->
              advance st;
              []
          | _ -> attr_list st
        end
        else []
      in
      let target_where =
        if at_keyword st "target" then begin
          advance st;
          keyword st "where";
          Some (pred st)
        end
        else None
      in
      Some { Ast.rel; rel_select; target; target_where; target_select }
    end
    else None
  in
  let where =
    if at_keyword st "where" then begin
      advance st;
      Some (pred st)
    end
    else None
  in
  (match peek st with
  | Eof -> ()
  | _ -> error "trailing input after the query");
  { Ast.from_class; where; select; via }

let update_of_string src =
  let st = { rest = tokenize src } in
  match peek st with
  | Ident s when keywordish s = "insert" ->
      advance st;
      keyword st "into";
      let cls = name st in
      (match peek st with
      | Lbrace -> advance st
      | _ -> error "expected '{'");
      let assigns = assignments st in
      (match peek st with
      | Rbrace -> advance st
      | _ -> error "expected '}'");
      Update.Insert
        ( cls,
          List.fold_left
            (fun m (k, v) -> Name.Map.add k v m)
            Name.Map.empty assigns )
  | Ident s when keywordish s = "delete" ->
      advance st;
      keyword st "from";
      let cls = name st in
      let where =
        if at_keyword st "where" then begin
          advance st;
          Some (pred st)
        end
        else None
      in
      Update.Delete (cls, where)
  | Ident s when keywordish s = "update" ->
      advance st;
      let cls = name st in
      keyword st "set";
      let assigns = assignments st in
      let where =
        if at_keyword st "where" then begin
          advance st;
          Some (pred st)
        end
        else None
      in
      Update.Modify (cls, where, assigns)
  | _ -> error "expected insert, delete or update"
