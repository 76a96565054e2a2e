type t =
  | Null
  | Bool of bool
  | Num of float
  | Fixed of int * float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let error fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Parsing: a plain recursive-descent reader over the string. Strings
   accept the full JSON escape set, including \uXXXX with surrogate pairs
   decoded to UTF-8 — baseline and series files are occasionally edited or
   produced by other tools, so "valid JSON" must not depend on which
   escapes those tools favour. *)

type state = { s : string; mutable i : int; mutable depth : int }

(* Arrays and objects nest at most this deep. The reader recurses once per
   level, so without a bound a frame of ['['] costs stack in proportion to
   its length, and time faster than that; every file and request the
   toolchain reads nests a handful of levels. *)
let max_depth = 512

let peek st = if st.i < String.length st.s then Some st.s.[st.i] else None

let advance st = st.i <- st.i + 1

let enter st =
  if st.depth >= max_depth then
    error "offset %d: nesting deeper than %d" st.i max_depth;
  st.depth <- st.depth + 1;
  advance st

let leave st =
  st.depth <- st.depth - 1;
  advance st

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let expect st c =
  match peek st with
  | Some d when d = c -> advance st
  | Some d -> error "offset %d: expected %c, found %c" st.i c d
  | None -> error "offset %d: expected %c, found end of input" st.i c

(* One \uXXXX unit; the caller pairs surrogates. *)
let hex4 st =
  if st.i + 4 > String.length st.s then
    error "truncated \\u escape at offset %d" st.i;
  let hex = String.sub st.s st.i 4 in
  st.i <- st.i + 4;
  let ok = String.for_all (function
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
    | _ -> false) hex
  in
  if not ok then error "bad \\u escape %S" hex;
  int_of_string ("0x" ^ hex)

let add_utf8 b cp =
  if cp < 0x80 then Buffer.add_char b (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error "unterminated string at offset %d" st.i
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | None -> error "unterminated escape at offset %d" st.i
        | Some c ->
            advance st;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                let code = hex4 st in
                if code >= 0xD800 && code <= 0xDBFF then begin
                  (* high surrogate: the low half must follow as \uXXXX *)
                  let at = st.i in
                  if
                    st.i + 2 > String.length st.s
                    || st.s.[st.i] <> '\\'
                    || st.s.[st.i + 1] <> 'u'
                  then error "unpaired surrogate \\u%04X at offset %d" code at;
                  st.i <- st.i + 2;
                  let low = hex4 st in
                  if low < 0xDC00 || low > 0xDFFF then
                    error "bad low surrogate \\u%04X at offset %d" low at;
                  add_utf8 b
                    (0x10000
                    + ((code - 0xD800) lsl 10)
                    + (low - 0xDC00))
                end
                else if code >= 0xDC00 && code <= 0xDFFF then
                  error "unpaired low surrogate \\u%04X at offset %d" code
                    (st.i - 4)
                else add_utf8 b code
            | c -> error "unknown escape \\%c" c);
            go ())
    | Some c ->
        advance st;
        Buffer.add_char b c;
        go ()
  in
  go ();
  Buffer.contents b

let parse_number st =
  let start = st.i in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek st with Some c -> is_num_char c | None -> false) do
    advance st
  done;
  let token = String.sub st.s start (st.i - start) in
  match float_of_string_opt token with
  | Some f -> f
  | None -> error "bad number %S at offset %d" token start

let parse_literal st word value =
  let n = String.length word in
  if st.i + n <= String.length st.s && String.sub st.s st.i n = word then begin
    st.i <- st.i + n;
    value
  end
  else error "offset %d: expected %s" st.i word

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error "unexpected end of input"
  | Some '"' -> Str (parse_string st)
  | Some '{' ->
      enter st;
      skip_ws st;
      if peek st = Some '}' then begin
        leave st;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws st;
          let key = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              members ((key, v) :: acc)
          | Some '}' ->
              leave st;
              List.rev ((key, v) :: acc)
          | _ -> error "offset %d: expected , or } in object" st.i
        in
        Obj (members [])
      end
  | Some '[' ->
      enter st;
      skip_ws st;
      if peek st = Some ']' then begin
        leave st;
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' ->
              advance st;
              elements (v :: acc)
          | Some ']' ->
              leave st;
              List.rev (v :: acc)
          | _ -> error "offset %d: expected , or ] in array" st.i
        in
        Arr (elements [])
      end
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some _ -> Num (parse_number st)

let parse s =
  let st = { s; i = 0; depth = 0 } in
  match parse_value st with
  | v ->
      skip_ws st;
      if st.i < String.length s then
        Error (Printf.sprintf "trailing content at offset %d" st.i)
      else Ok v
  | exception Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Printing: the only code in the toolchain that writes JSON syntax.    *)

let int n = Fixed (0, float_of_int n)

(* Mirrors the short escapes the parser accepts; remaining control
   characters fall back to \u00XX. Bytes >= 0x20 (including raw UTF-8
   sequences) pass through untouched. *)
let add_escaped b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* JSON has no spelling for nan or infinity; [null] keeps the file
   loadable by strict readers. *)
let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Num f | Fixed (_, f) when not (Float.is_finite f) -> Buffer.add_string b "null"
  | Num f ->
      if Float.is_integer f && Float.abs f < 1e15 then Printf.bprintf b "%.0f" f
      else Printf.bprintf b "%.9g" f
  | Fixed (decimals, f) -> Printf.bprintf b "%.*f" decimals f
  | Str s -> add_escaped b s
  | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          add b x)
        xs;
      Buffer.add_char b ']'
  | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          add_escaped b k;
          Buffer.add_char b ':';
          add b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_list = function Arr xs -> Some xs | _ -> None

let to_float = function Num f | Fixed (_, f) -> Some f | _ -> None

let to_str = function Str s -> Some s | _ -> None
