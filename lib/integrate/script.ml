exception Parse_error of { file : string; line : int; message : string }

let parse_error_to_string = function
  | Parse_error { file; line; message } ->
      Printf.sprintf "%s:%d: %s" file line message
  | e -> Printexc.to_string e

let parse_line ~file ~line text =
  let text =
    match String.index_opt text '#' with
    | Some i -> String.sub text 0 i
    | None -> text
  in
  match String.trim text with
  | "" -> None
  | text -> (
      match Op.of_string text with
      | Ok op -> Some op
      | Error message -> raise (Parse_error { file; line; message }))

let parse_file path =
  In_channel.with_open_text path @@ fun ic ->
  let rec lines line ops =
    match In_channel.input_line ic with
    | None -> List.rev ops
    | Some text -> (
        match parse_line ~file:path ~line text with
        | Some op -> lines (line + 1) (op :: ops)
        | None -> lines (line + 1) ops)
  in
  lines 1 []

let apply ops ws =
  List.fold_left
    (fun acc op -> Stdlib.Result.bind acc (Op.try_apply op))
    (Ok ws) ops

let apply_error_to_string = Op.error_to_string
