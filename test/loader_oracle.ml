(* The reference instance loader: the file is tokenized into a list of
   located tokens first, then parsed from that list.  It is the eager
   implementation the streaming cursor in [Instance.Loader] replaced,
   kept here so the tests can check that the cursor changes nothing
   observable: same stores, and the same [Instance.Loader.Error] on any
   input with one error and no newline inside a string.  (On inputs
   with several errors the two differ on purpose: here a lexical error
   anywhere wins; the cursor reports the first error in file order.) *)

open Ecr
module Store = Instance.Store
module Value = Instance.Value

let error ~file ~line fmt =
  Printf.ksprintf
    (fun message -> raise (Instance.Loader.Error { file; line; message }))
    fmt

type token =
  | Ident of string
  | Number of string
  | Str of string
  | DateTok of int * int * int
  | Lbrace
  | Rbrace
  | Lparen
  | Rparen
  | Comma
  | Colon
  | Assign
  | Eof

type located = { token : token; line : int }

let token_to_string = function
  | Ident s -> Printf.sprintf "identifier '%s'" s
  | Number s -> Printf.sprintf "number '%s'" s
  | Str s -> Printf.sprintf "string %S" s
  | DateTok (y, m, d) -> Printf.sprintf "date %04d-%02d-%02d" y m d
  | Lbrace -> "'{'"
  | Rbrace -> "'}'"
  | Lparen -> "'('"
  | Rparen -> "')'"
  | Comma -> "','"
  | Colon -> "':'"
  | Assign -> "'='"
  | Eof -> "end of input"

let tokenize ~file src =
  let n = String.length src in
  let out = ref [] in
  let line = ref 1 in
  let emit token = out := { token; line = !line } :: !out in
  let is_ident_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
  in
  let is_ident c = is_ident_start c || (c >= '0' && c <= '9') in
  let is_num c = (c >= '0' && c <= '9') || c = '.' || c = '-' in
  let rec scan i =
    if i >= n then emit Eof
    else
      match src.[i] with
      | '\n' ->
          incr line;
          scan (i + 1)
      | ' ' | '\t' | '\r' -> scan (i + 1)
      | '-' when i + 1 < n && src.[i + 1] = '-' ->
          let rec eol j = if j < n && src.[j] <> '\n' then eol (j + 1) else j in
          scan (eol i)
      | '{' ->
          emit Lbrace;
          scan (i + 1)
      | '}' ->
          emit Rbrace;
          scan (i + 1)
      | '(' ->
          emit Lparen;
          scan (i + 1)
      | ')' ->
          emit Rparen;
          scan (i + 1)
      | ',' ->
          emit Comma;
          scan (i + 1)
      | ':' ->
          emit Colon;
          scan (i + 1)
      | '=' ->
          emit Assign;
          scan (i + 1)
      | ('\'' | '"') as quote ->
          let rec stop j =
            if j >= n then
              error ~file ~line:!line "unterminated string (opened with %c)"
                quote
            else if src.[j] = quote then j
            else stop (j + 1)
          in
          let j = stop (i + 1) in
          emit (Str (String.sub src (i + 1) (j - i - 1)));
          scan (j + 1)
      | c when (c >= '0' && c <= '9') || c = '-' ->
          let rec stop j = if j < n && is_num src.[j] then stop (j + 1) else j in
          let j = stop i in
          let word = String.sub src i (j - i) in
          (match String.split_on_char '-' word with
          | [ y; m; d ]
            when String.length word = 10
                 && String.length y = 4
                 && int_of_string_opt y <> None
                 && int_of_string_opt m <> None
                 && int_of_string_opt d <> None ->
              emit
                (DateTok (int_of_string y, int_of_string m, int_of_string d))
          | _ -> emit (Number word));
          scan j
      | c when is_ident_start c ->
          let rec stop j = if j < n && is_ident src.[j] then stop (j + 1) else j in
          let j = stop i in
          emit (Ident (String.sub src i (j - i)));
          scan j
      | c -> error ~file ~line:!line "illegal character %C" c
  in
  scan 0;
  List.rev !out

type state = { file : string; mutable rest : located list }

let peek st =
  match st.rest with [] -> { token = Eof; line = 0 } | t :: _ -> t

let fail_at st t fmt = error ~file:st.file ~line:t.line fmt
let advance st = match st.rest with [] -> () | _ :: r -> st.rest <- r

let ident st =
  let t = peek st in
  match t.token with
  | Ident s ->
      advance st;
      s
  | _ -> fail_at st t "expected an identifier, found %s" (token_to_string t.token)

let expect st token what =
  let t = peek st in
  if t.token = token then advance st
  else fail_at st t "expected %s, found %s" what (token_to_string t.token)

let value st =
  let t = peek st in
  match t.token with
  | Number s -> (
      advance st;
      if String.contains s '.' then
        match float_of_string_opt s with
        | Some x -> Value.Real x
        | None -> fail_at st t "malformed number '%s'" s
      else
        match int_of_string_opt s with
        | Some n -> Value.Int n
        | None -> fail_at st t "malformed number '%s'" s)
  | Str s ->
      advance st;
      Value.Str s
  | DateTok (y, m, d) ->
      advance st;
      Value.Date (y, m, d)
  | Ident s when String.lowercase_ascii s = "true" ->
      advance st;
      Value.Bool true
  | Ident s when String.lowercase_ascii s = "false" ->
      advance st;
      Value.Bool false
  | Ident s when String.lowercase_ascii s = "null" ->
      advance st;
      Value.Null
  | _ -> fail_at st t "expected a value, found %s" (token_to_string t.token)

let tuple_block st =
  expect st Lbrace "'{'";
  if (peek st).token = Rbrace then begin
    advance st;
    Name.Map.empty
  end
  else begin
    let rec fields acc =
      let t = peek st in
      let field = ident st in
      let field_name =
        match Name.of_string_opt field with
        | Some n -> n
        | None -> fail_at st t "invalid attribute name '%s'" field
      in
      expect st Assign "'='";
      let v = value st in
      let acc = Name.Map.add field_name v acc in
      if (peek st).token = Comma then begin
        advance st;
        fields acc
      end
      else begin
        expect st Rbrace "'}'";
        acc
      end
    in
    fields Name.Map.empty
  end

let load_string ?(file = "<instance>") ~schemas src =
  let st = { file; rest = tokenize ~file src } in
  let stores = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace stores (Name.to_string (Schema.name s)) (s, Store.create s))
    schemas;
  let rec blocks () =
    match (peek st).token with
    | Eof -> ()
    | _ ->
        let t = peek st in
        (match (peek st).token with
        | Ident s when String.lowercase_ascii s = "instance" -> advance st
        | tok ->
            fail_at st t "expected 'instance', found %s" (token_to_string tok));
        let sname = ident st in
        let schema, store =
          match Hashtbl.find_opt stores sname with
          | Some pair -> pair
          | None -> fail_at st t "unknown schema %s" sname
        in
        expect st Lbrace "'{'";
        let labels = Hashtbl.create 32 in
        let store = ref store in
        let rec entries () =
          match (peek st).token with
          | Rbrace -> advance st
          | Ident "in" ->
              advance st;
              let t = peek st in
              let cat = ident st in
              expect st Colon "':'";
              let label = ident st in
              let cat_name =
                match Name.of_string_opt cat with
                | Some n when Schema.find_object n schema <> None -> n
                | _ -> fail_at st t "unknown class %s" cat
              in
              let oid =
                match Hashtbl.find_opt labels label with
                | Some oid -> oid
                | None -> fail_at st t "unknown label %s" label
              in
              store := Store.classify oid cat_name !store;
              entries ()
          | Ident _ -> (
              let t = peek st in
              let structure = ident st in
              let sname_n =
                match Name.of_string_opt structure with
                | Some n -> n
                | None -> fail_at st t "invalid name '%s'" structure
              in
              match Schema.find_structure sname_n schema with
              | Some (Schema.Obj _) ->
                  let tuple = tuple_block st in
                  let label =
                    match (peek st).token with
                    | Ident "as" ->
                        advance st;
                        Some (ident st)
                    | _ -> None
                  in
                  let st', oid = Store.insert sname_n tuple !store in
                  store := st';
                  Option.iter (fun l -> Hashtbl.replace labels l oid) label;
                  entries ()
              | Some (Schema.Rel _) ->
                  expect st Lparen "'('";
                  let rec participants acc =
                    let t = peek st in
                    let label = ident st in
                    let oid =
                      match Hashtbl.find_opt labels label with
                      | Some oid -> oid
                      | None -> fail_at st t "unknown label %s" label
                    in
                    if (peek st).token = Comma then begin
                      advance st;
                      participants (oid :: acc)
                    end
                    else begin
                      expect st Rparen "')'";
                      List.rev (oid :: acc)
                    end
                  in
                  let oids = participants [] in
                  let values =
                    if (peek st).token = Lbrace then tuple_block st
                    else Name.Map.empty
                  in
                  (try store := Store.relate sname_n oids values !store
                   with Store.Violation msg -> fail_at st t "%s" msg);
                  entries ()
              | None -> fail_at st t "unknown structure %s" structure)
          | _ ->
              let t = peek st in
              fail_at st t "expected an entry or '}', found %s"
                (token_to_string t.token)
        in
        entries ();
        Hashtbl.replace stores sname (schema, !store);
        blocks ()
  in
  blocks ();
  List.map
    (fun s -> Hashtbl.find stores (Name.to_string (Schema.name s)))
    schemas
