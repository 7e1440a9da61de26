type t =
  | Null
  | Bool of bool
  | Int of int64
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let fail pos msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg pos))

(* ------------------------------------------------------------------ *)
(* Emitter                                                             *)
(* ------------------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let of_int n = Int (Int64.of_int n)

let to_string v =
  let b = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Int i -> Buffer.add_string b (Int64.to_string i)
    | Float f ->
        if Float.is_integer f && Float.abs f < 1e15 then
          Buffer.add_string b (Printf.sprintf "%.1f" f)
        else Buffer.add_string b (Printf.sprintf "%.17g" f)
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | Arr xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            emit x)
          xs;
        Buffer.add_char b ']'
    | Obj ms ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            emit x)
          ms;
        Buffer.add_char b '}'
  in
  emit v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if !pos >= n || s.[!pos] <> c then fail !pos (Printf.sprintf "expected '%c'" c);
    advance ()
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail !pos ("expected " ^ word)
  in
  (* Decode a code point to UTF-8. *)
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
  in
  (* Strictly the four chars [0-9a-fA-F]{4}: [int_of_string "0x…"]
     would raise [Failure] (not [Parse_error]) on bad digits and
     accept OCaml underscore syntax. *)
  let hex4 () =
    if !pos + 4 > n then fail !pos "truncated \\u escape";
    let digit c =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail !pos "non-hex digit in \\u escape"
    in
    let v = ref 0 in
    for _ = 1 to 4 do
      v := (!v lsl 4) lor digit s.[!pos];
      advance ()
    done;
    !v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail !pos "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (if !pos >= n then fail !pos "unterminated escape";
           let c = s.[!pos] in
           advance ();
           match c with
           | '"' -> Buffer.add_char b '"'
           | '\\' -> Buffer.add_char b '\\'
           | '/' -> Buffer.add_char b '/'
           | 'b' -> Buffer.add_char b '\b'
           | 'f' -> Buffer.add_char b '\012'
           | 'n' -> Buffer.add_char b '\n'
           | 'r' -> Buffer.add_char b '\r'
           | 't' -> Buffer.add_char b '\t'
           | 'u' ->
               let cp = hex4 () in
               let cp =
                 (* high surrogate: require and fold the low half *)
                 if cp >= 0xD800 && cp <= 0xDBFF then begin
                   if
                     !pos + 2 <= n
                     && s.[!pos] = '\\'
                     && s.[!pos + 1] = 'u'
                   then begin
                     pos := !pos + 2;
                     let lo = hex4 () in
                     if lo < 0xDC00 || lo > 0xDFFF then
                       fail !pos "invalid low surrogate";
                     0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                   end
                   else fail !pos "lone high surrogate"
                 end
                 else cp
               in
               add_utf8 b cp
           | c -> fail (!pos - 1) (Printf.sprintf "bad escape '\\%c'" c));
          go ()
      | c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if String.contains tok '.' || String.contains tok 'e' || String.contains tok 'E'
    then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail start ("bad number " ^ tok)
    else
      match Int64.of_string_opt tok with
      | Some i -> Int i
      | None -> (
          (* out of int64 range: fall back to float *)
          match float_of_string_opt tok with
          | Some f -> Float f
          | None -> fail start ("bad number " ^ tok))
  in
  (* Containers recurse, so a line of a million '[' would otherwise
     blow the stack — an uncatchable-in-practice [Stack_overflow] no
     request deserves. Far deeper than any real request needs, far
     shallower than the stack. *)
  let max_depth = 512 in
  let rec parse_value depth =
    if depth > max_depth then fail !pos "nesting too deep";
    skip_ws ();
    match peek () with
    | None -> fail !pos "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let members = ref [] in
          let rec go () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            members := (k, v) :: !members;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                go ()
            | Some '}' -> advance ()
            | _ -> fail !pos "expected ',' or '}'"
          in
          go ();
          Obj (List.rev !members)
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let items = ref [] in
          let rec go () =
            let v = parse_value (depth + 1) in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                go ()
            | Some ']' -> advance ()
            | _ -> fail !pos "expected ',' or ']'"
          in
          go ();
          Arr (List.rev !items)
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail !pos (Printf.sprintf "unexpected '%c'" c)
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then fail !pos "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj ms -> List.assoc_opt k ms | _ -> None

let str ?default k v =
  match member k v with
  | Some (Str s) -> Some s
  | Some _ -> None
  | None -> default

let int ?default k v =
  match member k v with
  | Some (Int i) -> Some i
  | Some _ -> None
  | None -> default

let bool ?default k v =
  match member k v with
  | Some (Bool b) -> Some b
  | Some _ -> None
  | None -> default
