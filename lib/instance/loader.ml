open Ecr

exception Error of { file : string; line : int; message : string }

let error_to_string = function
  | Error { file; line; message } ->
      Printf.sprintf "%s:%d: %s" file line message
  | e -> Printexc.to_string e

let error ~file ~line fmt =
  Printf.ksprintf (fun message -> raise (Error { file; line; message })) fmt

(* ------------------------------------------------------------------ *)
(* Lexing: a cursor over the source with one token of lookahead.       *)

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

(* The next token is lexed only when the parser asks for it ([peek]),
   and [advance] merely drops it, so an error is raised at the first
   offending token in file order and the file is never held as a token
   list. *)
type state = {
  file : string;
  src : string;
  mutable pos : int;  (** first byte not yet lexed *)
  mutable line : int;  (** line of [pos] *)
  mutable tok : token;  (** the lookahead, when [ready] *)
  mutable tok_line : int;  (** the line [tok] starts on *)
  mutable ready : bool;
}

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || (c >= '0' && c <= '9')
let is_num c = (c >= '0' && c <= '9') || c = '.' || c = '-'

let rec scan_while p src j =
  if j < String.length src && p src.[j] then scan_while p src (j + 1) else j

(* Skips blanks and [--] comments from [i], counting newlines. *)
let rec skip_blank st i =
  let src = st.src in
  if i >= String.length src then i
  else
    match src.[i] with
    | '\n' ->
        st.line <- st.line + 1;
        skip_blank st (i + 1)
    | ' ' | '\t' | '\r' -> skip_blank st (i + 1)
    | '-' when i + 1 < String.length src && src.[i + 1] = '-' ->
        skip_blank st (scan_while (fun c -> c <> '\n') src i)
    | _ -> i

(* The closing quote at or after [j]; newlines inside the string count
   towards later lines, while the string itself (and an unterminated
   one) stays on the line it opened on, [st.tok_line]. *)
let rec string_end st quote j =
  let src = st.src in
  if j >= String.length src then
    error ~file:st.file ~line:st.tok_line "unterminated string (opened with %c)"
      quote
  else if src.[j] = quote then j
  else begin
    if src.[j] = '\n' then st.line <- st.line + 1;
    string_end st quote (j + 1)
  end

let emit st tok next =
  st.tok <- tok;
  st.pos <- next;
  st.ready <- true

let lex st =
  let src = st.src in
  let i = skip_blank st st.pos in
  st.tok_line <- st.line;
  if i >= String.length src then emit st Eof i
  else
    match src.[i] with
    | '{' -> emit st Lbrace (i + 1)
    | '}' -> emit st Rbrace (i + 1)
    | '(' -> emit st Lparen (i + 1)
    | ')' -> emit st Rparen (i + 1)
    | ',' -> emit st Comma (i + 1)
    | ':' -> emit st Colon (i + 1)
    | '=' -> emit st Assign (i + 1)
    | ('\'' | '"') as quote ->
        let j = string_end st quote (i + 1) in
        emit st (Str (String.sub src (i + 1) (j - i - 1))) (j + 1)
    | c when (c >= '0' && c <= '9') || c = '-' ->
        let j = scan_while is_num src i in
        let word = String.sub src i (j - i) in
        (* a bare date looks like 2020-09-01 *)
        let tok =
          match String.split_on_char '-' word with
          | [ y; m; d ]
            when String.length word = 10
                 && String.length y = 4
                 && int_of_string_opt y <> None
                 && int_of_string_opt m <> None
                 && int_of_string_opt d <> None ->
              DateTok (int_of_string y, int_of_string m, int_of_string d)
          | _ -> Number word
        in
        emit st tok j
    | c when is_ident_start c ->
        let j = scan_while is_ident src i in
        emit st (Ident (String.sub src i (j - i))) j
    | c -> error ~file:st.file ~line:st.line "illegal character %C" c

(* ------------------------------------------------------------------ *)
(* Parsing.                                                            *)

let peek st =
  if not st.ready then lex st;
  st.tok

(* The line of the lookahead token. *)
let peek_line st =
  ignore (peek st);
  st.tok_line

let advance st = st.ready <- false
let fail_at st line fmt = error ~file:st.file ~line fmt

let ident st =
  match peek st with
  | Ident s ->
      advance st;
      s
  | t ->
      fail_at st st.tok_line "expected an identifier, found %s"
        (token_to_string t)

let expect st token what =
  let t = peek st in
  if t = token then advance st
  else fail_at st st.tok_line "expected %s, found %s" what (token_to_string t)

let value st =
  let line = peek_line st in
  match peek st with
  | Number s -> (
      advance st;
      (* the lexer's number class also admits junk like "1.2.3" or
         a lone "-"; reject it here, positioned *)
      if String.contains s '.' then
        match float_of_string_opt s with
        | Some x -> Value.Real x
        | None -> fail_at st line "malformed number '%s'" s
      else
        match int_of_string_opt s with
        | Some n -> Value.Int n
        | None -> fail_at st line "malformed number '%s'" s)
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
  | t -> fail_at st line "expected a value, found %s" (token_to_string t)

let tuple_block st =
  expect st Lbrace "'{'";
  if peek st = Rbrace then begin
    advance st;
    Name.Map.empty
  end
  else begin
    let rec fields acc =
      let line = peek_line st in
      let field = ident st in
      let field_name =
        match Name.of_string_opt field with
        | Some n -> n
        | None -> fail_at st line "invalid attribute name '%s'" field
      in
      expect st Assign "'='";
      let v = value st in
      let acc = Name.Map.add field_name v acc in
      if peek st = Comma then begin
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
  Obs.Span.run "instance.load" @@ fun () ->
  let st =
    { file; src; pos = 0; line = 1; tok = Eof; tok_line = 1; ready = false }
  in
  let stores = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace stores (Name.to_string (Schema.name s)) (s, Store.create s))
    schemas;
  let rec blocks () =
    match peek st with
    | Eof -> ()
    | tok ->
        let line = st.tok_line in
        (match tok with
        | Ident s when String.lowercase_ascii s = "instance" -> advance st
        | tok ->
            fail_at st line "expected 'instance', found %s"
              (token_to_string tok));
        let sname = ident st in
        let schema, store =
          match Hashtbl.find_opt stores sname with
          | Some pair -> pair
          | None -> fail_at st line "unknown schema %s" sname
        in
        expect st Lbrace "'{'";
        let labels = Hashtbl.create 32 in
        let store = ref store in
        let rec entries () =
          match peek st with
          | Rbrace -> advance st
          | Ident "in" ->
              (* in Category: label *)
              advance st;
              let line = peek_line st in
              let cat = ident st in
              expect st Colon "':'";
              let label = ident st in
              let cat_name =
                match Name.of_string_opt cat with
                | Some n when Schema.find_object n schema <> None -> n
                | _ -> fail_at st line "unknown class %s" cat
              in
              let oid =
                match Hashtbl.find_opt labels label with
                | Some oid -> oid
                | None -> fail_at st line "unknown label %s" label
              in
              store := Store.classify oid cat_name !store;
              entries ()
          | Ident _ -> (
              let line = st.tok_line in
              let structure = ident st in
              let sname_n =
                match Name.of_string_opt structure with
                | Some n -> n
                | None -> fail_at st line "invalid name '%s'" structure
              in
              match Schema.find_structure sname_n schema with
              | Some (Schema.Obj _) ->
                  let tuple = tuple_block st in
                  let label =
                    match peek st with
                    | Ident "as" ->
                        advance st;
                        Some (ident st)
                    | _ -> None
                  in
                  let st', oid = Store.insert sname_n tuple !store in
                  store := st';
                  Option.iter (fun l -> Hashtbl.replace labels l oid) label;
                  entries ()
              | Some (Schema.Rel r) ->
                  expect st Lparen "'('";
                  let rec participants acc =
                    let line = peek_line st in
                    let label = ident st in
                    let oid =
                      match Hashtbl.find_opt labels label with
                      | Some oid -> oid
                      | None -> fail_at st line "unknown label %s" label
                    in
                    if peek st = Comma then begin
                      advance st;
                      participants (oid :: acc)
                    end
                    else begin
                      expect st Rparen "')'";
                      List.rev (oid :: acc)
                    end
                  in
                  let oids = participants [] in
                  (* checked before the value block is read, so an error
                     in the block cannot pre-empt it *)
                  if List.length oids <> Relationship.arity r then
                    fail_at st line
                      "relationship %s expects %d participants, got %d"
                      structure (Relationship.arity r) (List.length oids);
                  let values =
                    if peek st = Lbrace then tuple_block st else Name.Map.empty
                  in
                  store := Store.relate sname_n oids values !store;
                  entries ()
              | None -> fail_at st line "unknown structure %s" structure)
          | tok ->
              fail_at st st.tok_line "expected an entry or '}', found %s"
                (token_to_string tok)
        in
        entries ();
        Hashtbl.replace stores sname (schema, !store);
        blocks ()
  in
  blocks ();
  List.map
    (fun s -> Hashtbl.find stores (Name.to_string (Schema.name s)))
    schemas

let load_file ~schemas path =
  load_string ~file:path ~schemas
    (In_channel.with_open_bin path In_channel.input_all)

(* ------------------------------------------------------------------ *)
(* Serialisation.                                                      *)

let value_to_syntax = function
  | Value.Str s -> "\"" ^ s ^ "\""
  | Value.Int n -> string_of_int n
  | Value.Real x ->
      let s = Printf.sprintf "%g" x in
      if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  | Value.Bool b -> string_of_bool b
  | Value.Date (y, m, d) -> Printf.sprintf "%04d-%02d-%02d" y m d
  | Value.Null -> "null"

let tuple_to_syntax tuple =
  let fields =
    Name.Map.bindings tuple
    |> List.filter (fun (_, v) -> not (Value.equal v Value.Null))
    |> List.map (fun (k, v) -> Name.to_string k ^ " = " ^ value_to_syntax v)
  in
  "{ " ^ String.concat ", " fields ^ " }"

let to_string schema store =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "instance %s {\n" (Name.to_string (Schema.name schema));
  let label oid = Printf.sprintf "e%d" (Store.Oid.to_int oid) in
  (* entities at their most specific placements, then extra classifies *)
  List.iter
    (fun oid ->
      let classes = Store.classes_of oid store in
      let specific =
        List.filter
          (fun c ->
            not
              (List.exists
                 (fun c' ->
                   (not (Name.equal c c'))
                   && Schema.is_ancestor schema ~ancestor:c c')
                 classes))
          classes
      in
      match specific with
      | [] -> ()
      | first :: others ->
          out "  %s %s as %s\n" (Name.to_string first)
            (tuple_to_syntax (Store.tuple_of oid store))
            (label oid);
          List.iter
            (fun c -> out "  in %s: %s\n" (Name.to_string c) (label oid))
            others)
    (Store.entities store);
  List.iter
    (fun r ->
      let rel = r.Relationship.name in
      List.iter
        (fun { Store.participants; values } ->
          out "  %s (%s)%s\n" (Name.to_string rel)
            (String.concat ", " (List.map label participants))
            (if Name.Map.is_empty values then ""
             else " " ^ tuple_to_syntax values))
        (Store.links rel store))
    (Schema.relationships schema);
  out "}\n";
  Buffer.contents buf
