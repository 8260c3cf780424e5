open Ecr

exception Error of string * int * int

type state = { mutable rest : Lexer.located list }

let peek st =
  match st.rest with
  | [] -> { Lexer.token = Lexer.Eof; line = 0; col = 0 }
  | t :: _ -> t

let advance st = match st.rest with [] -> () | _ :: rest -> st.rest <- rest

let fail st expected =
  let t = peek st in
  raise
    (Error
       ( Printf.sprintf "expected %s but found %s" expected
           (Lexer.token_to_string t.Lexer.token),
         t.Lexer.line,
         t.Lexer.col ))

let expect st token expected =
  if (peek st).Lexer.token = token then advance st else fail st expected

let ident st =
  match (peek st).Lexer.token with
  | Lexer.Ident s ->
      advance st;
      s
  | _ -> fail st "an identifier"

let name st = Name.of_string (ident st)

(* cardinality ::= "(" INT "," (INT | "N") ")" *)
let cardinality st =
  let t = peek st in
  expect st Lexer.Lparen "'(' starting a cardinality";
  let min =
    match (peek st).Lexer.token with
    | Lexer.Int n ->
        advance st;
        n
    | _ -> fail st "an integer minimum cardinality"
  in
  expect st Lexer.Comma "',' in a cardinality";
  let max =
    match (peek st).Lexer.token with
    | Lexer.Int n ->
        advance st;
        Cardinality.Finite n
    | Lexer.Ident ("N" | "n" | "M" | "m") ->
        advance st;
        Cardinality.Many
    | _ -> fail st "an integer or N maximum cardinality"
  in
  expect st Lexer.Rparen "')' closing a cardinality";
  try Cardinality.make min max
  with Cardinality.Invalid msg -> raise (Error (msg, t.Lexer.line, t.Lexer.col))

(* domain ::= IDENT | IDENT "(" IDENT ("," IDENT)* ")" *)
let domain st =
  let t = peek st in
  let base = ident st in
  if (peek st).Lexer.token = Lexer.Lparen then begin
    advance st;
    let rec values acc =
      let v = ident st in
      if (peek st).Lexer.token = Lexer.Comma then begin
        advance st;
        values (v :: acc)
      end
      else List.rev (v :: acc)
    in
    let vs = values [] in
    expect st Lexer.Rparen "')' closing a domain value list";
    let text = base ^ "(" ^ String.concat "," vs ^ ")" in
    (* only enum takes a value list; anything else is not a domain name *)
    try Domain.of_string text
    with Name.Invalid _ ->
      raise
        (Error
           ( Printf.sprintf "unknown parameterised domain %s (only enum(...) \
                             takes values)"
               text,
             t.Lexer.line,
             t.Lexer.col ))
  end
  else Domain.of_string base

(* attribute ::= IDENT ":" domain ("key")? ";" *)
let attribute st =
  let n = name st in
  expect st Lexer.Colon "':' after an attribute name";
  let d = domain st in
  let key =
    if (peek st).Lexer.token = Lexer.Kw_key then begin
      advance st;
      true
    end
    else false
  in
  expect st Lexer.Semi "';' ending an attribute";
  Attribute.make ~key n d

(* body ::= "{" attribute* "}" | ";" *)
let body st =
  match (peek st).Lexer.token with
  | Lexer.Semi ->
      advance st;
      []
  | Lexer.Lbrace ->
      advance st;
      let rec attrs acc =
        if (peek st).Lexer.token = Lexer.Rbrace then begin
          advance st;
          List.rev acc
        end
        else attrs (attribute st :: acc)
      in
      attrs []
  | _ -> fail st "'{' or ';' after a structure header"

(* participant ::= (IDENT ":")? IDENT cardinality *)
let participant st =
  let first = name st in
  match (peek st).Lexer.token with
  | Lexer.Colon ->
      advance st;
      let obj = name st in
      let card = cardinality st in
      Relationship.participant ~role:first obj card
  | _ ->
      let card = cardinality st in
      Relationship.participant first card

let structure st =
  match (peek st).Lexer.token with
  | Lexer.Kw_entity ->
      advance st;
      let n = name st in
      let attrs = body st in
      Some (Schema.Obj (Object_class.entity ~attrs n))
  | Lexer.Kw_category ->
      advance st;
      let n = name st in
      expect st Lexer.Kw_of "'of' introducing category parents";
      let rec parents acc =
        let p = name st in
        if (peek st).Lexer.token = Lexer.Comma then begin
          advance st;
          parents (p :: acc)
        end
        else List.rev (p :: acc)
      in
      let ps = parents [] in
      let attrs = body st in
      Some (Schema.Obj (Object_class.category ~attrs ~parents:ps n))
  | Lexer.Kw_relationship ->
      advance st;
      let n = name st in
      expect st Lexer.Lparen "'(' starting the participant list";
      let rec participants acc =
        let p = participant st in
        if (peek st).Lexer.token = Lexer.Comma then begin
          advance st;
          participants (p :: acc)
        end
        else List.rev (p :: acc)
      in
      let ps = participants [] in
      expect st Lexer.Rparen "')' closing the participant list";
      let attrs = body st in
      Some (Schema.Rel (Relationship.make ~attrs n ps))
  | _ -> None

let schema st =
  let t = peek st in
  expect st Lexer.Kw_schema "'schema'";
  let n = name st in
  expect st Lexer.Lbrace "'{' opening the schema body";
  let rec structures acc =
    match structure st with
    | Some s -> structures (s :: acc)
    | None ->
        expect st Lexer.Rbrace "a structure or '}' closing the schema";
        List.rev acc
  in
  let ss = structures [] in
  let objects =
    List.filter_map (function Schema.Obj oc -> Some oc | Schema.Rel _ -> None) ss
  and relationships =
    List.filter_map (function Schema.Rel r -> Some r | Schema.Obj _ -> None) ss
  in
  try Schema.make n ~objects ~relationships
  with Invalid_argument msg -> raise (Error (msg, t.Lexer.line, t.Lexer.col))

let with_state src f =
  let st =
    try { rest = Lexer.tokenize src }
    with Lexer.Error (msg, line, col) -> raise (Error (msg, line, col))
  in
  f st

let schemas_of_string src =
  with_state src (fun st ->
      let rec loop acc =
        if (peek st).Lexer.token = Lexer.Eof then List.rev acc
        else loop (schema st :: acc)
      in
      loop [])

let schema_of_string src =
  match schemas_of_string src with
  | [ s ] -> s
  | ss ->
      raise
        (Error
           (Printf.sprintf "expected exactly one schema, found %d" (List.length ss), 0, 0))

let schemas_of_file path =
  schemas_of_string (In_channel.with_open_bin path In_channel.input_all)
