(** Hand-written lexer for MiniJ. Tracks line numbers for diagnostics;
    supports decimal and hex integer literals (with [L] suffix for longs),
    floating literals, [//] and [/* */] comments. *)

type token =
  | INT_LIT of int64
  | LONG_LIT of int64
  | FLOAT_LIT of float
  | IDENT of string
  | KW of string
  | PUNCT of string
  | EOF

type t = { src : string; mutable pos : int; mutable line : int }

exception Error of string * int (* message, line *)

let keywords =
  [
    "int"; "long"; "double"; "byte"; "short"; "void"; "if"; "else"; "while"; "do"; "for";
    "return"; "new"; "global"; "break"; "continue";
  ]

let create src = { src; pos = 0; line = 1 }

let peek_char t = if t.pos < String.length t.src then Some t.src.[t.pos] else None
let peek2 t = if t.pos + 1 < String.length t.src then Some t.src.[t.pos + 1] else None

let advance t =
  (match peek_char t with Some '\n' -> t.line <- t.line + 1 | _ -> ());
  t.pos <- t.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident c = is_ident_start c || is_digit c

let rec skip_ws t =
  match peek_char t with
  | Some (' ' | '\t' | '\r' | '\n') ->
      advance t;
      skip_ws t
  | Some '/' when peek2 t = Some '/' ->
      while peek_char t <> None && peek_char t <> Some '\n' do
        advance t
      done;
      skip_ws t
  | Some '/' when peek2 t = Some '*' ->
      advance t;
      advance t;
      let rec go () =
        match (peek_char t, peek2 t) with
        | Some '*', Some '/' ->
            advance t;
            advance t
        | Some _, _ ->
            advance t;
            go ()
        | None, _ -> raise (Error ("unterminated comment", t.line))
      in
      go ();
      skip_ws t
  | _ -> ()

let lex_number t =
  let start = t.pos in
  let hex =
    peek_char t = Some '0' && (peek2 t = Some 'x' || peek2 t = Some 'X')
  in
  if hex then begin
    advance t;
    advance t;
    while (match peek_char t with Some c -> is_hex c | None -> false) do
      advance t
    done;
    let digits = String.sub t.src (start + 2) (t.pos - start - 2) in
    if digits = "" then raise (Error ("bad hex literal", t.line));
    let v =
      try Int64.of_string ("0x" ^ digits)
      with _ -> raise (Error ("hex literal out of range", t.line))
    in
    match peek_char t with
    | Some ('L' | 'l') ->
        advance t;
        LONG_LIT v
    | _ ->
        if Int64.compare v 0xFFFFFFFFL > 0 then
          raise (Error ("int hex literal out of range", t.line));
        (* 0x80000000..0xffffffff denote negative ints, as in Java *)
        INT_LIT (Sxe_ir.Eval.sext32 v)
  end
  else begin
    while (match peek_char t with Some c -> is_digit c | None -> false) do
      advance t
    done;
    let is_float =
      match (peek_char t, peek2 t) with
      | Some '.', Some c when is_digit c -> true
      | Some ('e' | 'E'), _ -> true
      | _ -> false
    in
    if is_float then begin
      (match peek_char t with
      | Some '.' ->
          advance t;
          while (match peek_char t with Some c -> is_digit c | None -> false) do
            advance t
          done
      | _ -> ());
      (match peek_char t with
      | Some ('e' | 'E') ->
          advance t;
          (match peek_char t with Some ('+' | '-') -> advance t | _ -> ());
          while (match peek_char t with Some c -> is_digit c | None -> false) do
            advance t
          done
      | _ -> ());
      let s = String.sub t.src start (t.pos - start) in
      FLOAT_LIT (float_of_string s)
    end
    else begin
      let s = String.sub t.src start (t.pos - start) in
      let v =
        try Int64.of_string s with _ -> raise (Error ("integer literal out of range", t.line))
      in
      match peek_char t with
      | Some ('L' | 'l') ->
          advance t;
          LONG_LIT v
      | _ ->
          if Int64.compare v 0x80000000L > 0 then
            raise (Error ("int literal out of range", t.line));
          INT_LIT v
    end
  end

let punct3 = [ ">>>"; "<<="; ">>=" ]
let punct2 =
  [
    "=="; "!="; "<="; ">="; "&&"; "||"; "<<"; ">>"; "+="; "-="; "*="; "/="; "%="; "&=";
    "|="; "^="; "++"; "--";
  ]

let next t : token * int =
  skip_ws t;
  let line = t.line in
  match peek_char t with
  | None -> (EOF, line)
  | Some c when is_digit c -> (lex_number t, line)
  | Some c when is_ident_start c ->
      let start = t.pos in
      while (match peek_char t with Some c -> is_ident c | None -> false) do
        advance t
      done;
      let s = String.sub t.src start (t.pos - start) in
      ((if List.mem s keywords then KW s else IDENT s), line)
  | Some _ ->
      let try_str n =
        if t.pos + n <= String.length t.src then Some (String.sub t.src t.pos n) else None
      in
      let take n s =
        for _ = 1 to n do
          advance t
        done;
        (PUNCT s, line)
      in
      (match try_str 4 with
      | Some ">>>=" -> take 4 ">>>="
      | _ -> (
          match try_str 3 with
          | Some s when List.mem s punct3 -> take 3 s
          | _ -> (
              match try_str 2 with
              | Some s when List.mem s punct2 -> take 2 s
              | _ -> (
                  match try_str 1 with
                  | Some s when String.contains "+-*/%&|^~!<>=()[]{};,.?:" s.[0] -> take 1 s
                  | Some s -> raise (Error (Printf.sprintf "unexpected character %S" s, line))
                  | None -> (EOF, line)))))

(** Tokenize the whole input. The parser does not use it: it pulls
    tokens with {!next} as it needs them. *)
let tokenize src =
  let t = create src in
  let rec go acc =
    match next t with
    | EOF, line -> List.rev ((EOF, line) :: acc)
    | tok -> go (tok :: acc)
  in
  go []
