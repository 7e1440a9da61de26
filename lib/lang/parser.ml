(** Recursive-descent parser for MiniJ.

    Grammar (precedence low to high):
    [||] < [&&] < [|] < [^] < [&] < [== !=] < [< <= > >=] < [<< >> >>>]
    < [+ -] < [* / %] < unary < postfix ([\[i\]], [.length]) < primary.
    Compound assignments desugar to plain assignments. *)

open Ast

exception Error of string * int

(* Tokens are lexed on demand, so the first error in source order is the
   one reported, and a source that fails early is never lexed to its
   end. The parser looks at most two tokens past the current one. *)
type t = {
  lex : Lexer.t;
  look : (Lexer.token * int) array;  (** the current token and the next two *)
  mutable lexed : int;  (** how many of [look] hold tokens *)
  mutable depth : int;  (** current nesting, see [max_depth] *)
}

(* The token [n] places past the current one (at most 2), with its line.
   Past the end the lexer answers [EOF] again, so advancing over [EOF]
   stays there. *)
let token p n =
  while p.lexed <= n do
    p.look.(p.lexed) <- Lexer.next p.lex;
    p.lexed <- p.lexed + 1
  done;
  p.look.(n)

let peek p = fst (token p 0)
let peek_at p n = fst (token p n)
let line p = snd (token p 0)

let advance p =
  ignore (token p 0);
  Array.blit p.look 1 p.look 0 (Array.length p.look - 1);
  p.lexed <- p.lexed - 1

let err p msg = raise (Error (msg, line p))

(* Every recursive descent (parentheses, prefix operators, right-nested
   [||]/[&&]/[?:], nested statements) and every operator of a
   left-associative chain adds one level to the tree that lowering then
   walks recursively. Bounding it turns a hostile source into a parse
   error instead of a stack overflow. *)
let max_depth = 10_000

let deeper p =
  p.depth <- p.depth + 1;
  if p.depth > max_depth then
    err p (Printf.sprintf "nesting deeper than %d levels" max_depth)

(* Parse [f p] one level deeper. An error abandons the whole parse, so
   the level need not be restored on that path. *)
let nested p f =
  deeper p;
  let r = f p in
  p.depth <- p.depth - 1;
  r

let eat_punct p s =
  match peek p with
  | Lexer.PUNCT x when x = s -> advance p
  | _ -> err p (Printf.sprintf "expected %S" s)

let eat_kw p s =
  match peek p with
  | Lexer.KW x when x = s -> advance p
  | _ -> err p (Printf.sprintf "expected keyword %S" s)

let is_punct p s = match peek p with Lexer.PUNCT x -> x = s | _ -> false
let is_kw p s = match peek p with Lexer.KW x -> x = s | _ -> false

let ident p =
  match peek p with
  | Lexer.IDENT s ->
      advance p;
      s
  | _ -> err p "expected identifier"

let base_ty p =
  match peek p with
  | Lexer.KW "int" ->
      advance p;
      TInt
  | Lexer.KW "long" ->
      advance p;
      TLong
  | Lexer.KW "double" ->
      advance p;
      TDouble
  | Lexer.KW "byte" ->
      advance p;
      TByte
  | Lexer.KW "short" ->
      advance p;
      TShort
  | _ -> err p "expected a type"

let rec ty_suffix p t =
  if is_punct p "[" && peek_at p 1 = Lexer.PUNCT "]" then begin
    advance p;
    advance p;
    ty_suffix p (TArr t)
  end
  else t

let parse_ty p = ty_suffix p (base_ty p)

let looks_like_type p =
  match peek p with
  | Lexer.KW ("int" | "long" | "double" | "byte" | "short") -> true
  | _ -> false

(* -- expressions ----------------------------------------------------- *)

let mk line e = { e; line }

let rec expr p = nested p ternary

and ternary p =
  let c = or_or p in
  if is_punct p "?" then begin
    let ln = line p in
    advance p;
    let a = expr p in
    eat_punct p ":";
    let b = nested p ternary in
    mk ln (ETernary (c, a, b))
  end
  else c

and or_or p =
  let l = and_and p in
  if is_punct p "||" then begin
    let ln = line p in
    advance p;
    mk ln (EBin (OOrOr, l, nested p or_or))
  end
  else l

and and_and p =
  let l = bit_or p in
  if is_punct p "&&" then begin
    let ln = line p in
    advance p;
    mk ln (EBin (OAndAnd, l, nested p and_and))
  end
  else l

and left_assoc p sub ops =
  let base = p.depth in
  let l = ref (sub p) in
  let rec go () =
    match peek p with
    | Lexer.PUNCT s when List.mem_assoc s ops ->
        let ln = line p in
        advance p;
        deeper p;
        let r = sub p in
        l := mk ln (EBin (List.assoc s ops, !l, r));
        go ()
    | _ -> ()
  in
  go ();
  p.depth <- base;
  !l

and bit_or p = left_assoc p bit_xor [ ("|", OOr) ]
and bit_xor p = left_assoc p bit_and [ ("^", OXor) ]
and bit_and p = left_assoc p equality [ ("&", OAnd) ]
and equality p = left_assoc p relational [ ("==", OEq); ("!=", ONe) ]

and relational p =
  left_assoc p shift [ ("<", OLt); ("<=", OLe); (">", OGt); (">=", OGe) ]

and shift p = left_assoc p additive [ ("<<", OShl); (">>", OAShr); (">>>", OLShr) ]
and additive p = left_assoc p multiplicative [ ("+", OAdd); ("-", OSub) ]
and multiplicative p = left_assoc p unary [ ("*", OMul); ("/", ODiv); ("%", ORem) ]

and unary p =
  let ln = line p in
  match peek p with
  | Lexer.PUNCT "-" -> (
      advance p;
      (* fold the sign into integer literals so that -2147483648 is
         representable, as in Java *)
      match peek p with
      | Lexer.INT_LIT v ->
          advance p;
          mk ln (EInt (Int64.neg v))
      | Lexer.LONG_LIT v ->
          advance p;
          mk ln (ELong (Int64.neg v))
      | _ -> mk ln (EUn (ONeg, nested p unary)))
  | Lexer.PUNCT "~" ->
      advance p;
      mk ln (EUn (ONot, nested p unary))
  | Lexer.PUNCT "!" ->
      advance p;
      mk ln (EUn (OBang, nested p unary))
  | Lexer.PUNCT "(" when (match peek_at p 1 with
                          | Lexer.KW ("int" | "long" | "double" | "byte" | "short") ->
                              peek_at p 2 = Lexer.PUNCT ")"
                          | _ -> false) ->
      (* cast: "(" type ")" unary — array casts are not needed *)
      advance p;
      let t = base_ty p in
      eat_punct p ")";
      mk ln (ECast (t, nested p unary))
  | _ -> postfix p

and postfix p =
  let base = p.depth in
  let e = ref (primary p) in
  let rec go () =
    if is_punct p "[" then begin
      let ln = line p in
      advance p;
      deeper p;
      let i = expr p in
      eat_punct p "]";
      e := mk ln (EIndex (!e, i));
      go ()
    end
    else if is_punct p "." then begin
      let ln = line p in
      advance p;
      let f = ident p in
      if f <> "length" then err p "only .length is supported";
      deeper p;
      e := mk ln (ELength !e);
      go ()
    end
  in
  go ();
  p.depth <- base;
  !e

and primary p =
  let ln = line p in
  match peek p with
  | Lexer.INT_LIT v ->
      advance p;
      mk ln (EInt v)
  | Lexer.LONG_LIT v ->
      advance p;
      mk ln (ELong v)
  | Lexer.FLOAT_LIT v ->
      advance p;
      mk ln (EFloat v)
  | Lexer.IDENT name ->
      advance p;
      if is_punct p "(" then begin
        advance p;
        let args = ref [] in
        if not (is_punct p ")") then begin
          args := [ expr p ];
          while is_punct p "," do
            advance p;
            args := expr p :: !args
          done
        end;
        eat_punct p ")";
        mk ln (ECall (name, List.rev !args))
      end
      else mk ln (EVar name)
  | Lexer.KW "new" ->
      advance p;
      let base = base_ty p in
      eat_punct p "[";
      let n1 = expr p in
      eat_punct p "]";
      if is_punct p "[" && peek_at p 1 <> Lexer.PUNCT "]" then begin
        advance p;
        let n2 = expr p in
        eat_punct p "]";
        mk ln (ENew (base, [ n1; n2 ]))
      end
      else begin
        (* trailing empty brackets: new int[n][] — treat as 1-D of arrays *)
        let t = ty_suffix p base in
        mk ln (ENew (t, [ n1 ]))
      end
  | Lexer.PUNCT "(" ->
      advance p;
      let e = expr p in
      eat_punct p ")";
      e
  | _ -> err p "expected an expression"

(* -- statements ------------------------------------------------------ *)

let compound_ops =
  [
    ("+=", OAdd); ("-=", OSub); ("*=", OMul); ("/=", ODiv); ("%=", ORem); ("&=", OAnd);
    ("|=", OOr); ("^=", OXor); ("<<=", OShl); (">>=", OAShr); (">>>=", OLShr);
  ]

let mks sline s = { s; sline }

let rec stmt p : stmt = nested p stmt_body

and stmt_body p : stmt =
  let ln = line p in
  if is_punct p "{" then mks ln (SBlock (block p))
  else if looks_like_type p then begin
    let t = parse_ty p in
    let name = ident p in
    let init = if is_punct p "=" then begin advance p; Some (expr p) end else None in
    eat_punct p ";";
    mks ln (SDecl (t, name, init))
  end
  else if is_kw p "if" then begin
    advance p;
    eat_punct p "(";
    let c = expr p in
    eat_punct p ")";
    let thn = block_or_stmt p in
    let els =
      if is_kw p "else" then begin
        advance p;
        block_or_stmt p
      end
      else []
    in
    mks ln (SIf (c, thn, els))
  end
  else if is_kw p "while" then begin
    advance p;
    eat_punct p "(";
    let c = expr p in
    eat_punct p ")";
    mks ln (SWhile (c, block_or_stmt p))
  end
  else if is_kw p "do" then begin
    advance p;
    let body = block_or_stmt p in
    eat_kw p "while";
    eat_punct p "(";
    let c = expr p in
    eat_punct p ")";
    eat_punct p ";";
    mks ln (SDoWhile (body, c))
  end
  else if is_kw p "for" then begin
    advance p;
    eat_punct p "(";
    let init = if is_punct p ";" then None else Some (simple_stmt p) in
    eat_punct p ";";
    let cond = if is_punct p ";" then None else Some (expr p) in
    eat_punct p ";";
    let step = if is_punct p ")" then None else Some (simple_stmt p) in
    eat_punct p ")";
    mks ln (SFor (init, cond, step, block_or_stmt p))
  end
  else if is_kw p "return" then begin
    advance p;
    let v = if is_punct p ";" then None else Some (expr p) in
    eat_punct p ";";
    mks ln (SReturn v)
  end
  else if is_kw p "break" then begin
    advance p;
    eat_punct p ";";
    mks ln SBreak
  end
  else if is_kw p "continue" then begin
    advance p;
    eat_punct p ";";
    mks ln SContinue
  end
  else begin
    let s = simple_stmt p in
    eat_punct p ";";
    s
  end

(** assignment / compound assignment / expression statement, no trailing
    semicolon (shared between expression statements and for-headers) *)
and simple_stmt p : stmt =
  let ln = line p in
  (* declaration inside a for-init *)
  if looks_like_type p then begin
    let t = parse_ty p in
    let name = ident p in
    let init = if is_punct p "=" then begin advance p; Some (expr p) end else None in
    mks ln (SDecl (t, name, init))
  end
  else begin
    let e = expr p in
    let compound op rhs target =
      match target.e with
      | EVar x -> mks ln (SAssign (x, mk ln (EBin (op, target, rhs))))
      | EIndex (a, i) -> mks ln (SStore (a, i, mk ln (EBin (op, target, rhs))))
      | _ -> err p "bad assignment target"
    in
    match peek p with
    | Lexer.PUNCT "=" -> (
        advance p;
        let rhs = expr p in
        match e.e with
        | EVar x -> mks ln (SAssign (x, rhs))
        | EIndex (a, i) -> mks ln (SStore (a, i, rhs))
        | _ -> err p "bad assignment target")
    | Lexer.PUNCT ("++" | "--") ->
        let op = if is_punct p "++" then OAdd else OSub in
        advance p;
        compound op (mk ln (EInt 1L)) e
    | Lexer.PUNCT s when List.mem_assoc s compound_ops ->
        advance p;
        let rhs = expr p in
        compound (List.assoc s compound_ops) rhs e
    | _ -> mks ln (SExpr e)
  end

and block p : stmt list =
  eat_punct p "{";
  let out = ref [] in
  while not (is_punct p "}") do
    out := stmt p :: !out
  done;
  eat_punct p "}";
  List.rev !out

and block_or_stmt p : stmt list = if is_punct p "{" then block p else [ stmt p ]

(* -- top level ------------------------------------------------------- *)

let parse_program src : program =
  let p = { lex = Lexer.create src; look = Array.make 3 (Lexer.EOF, 1); lexed = 0; depth = 0 } in
  let globals = ref [] and funcs = ref [] in
  let rec go () =
    match peek p with
    | Lexer.EOF -> ()
    | Lexer.KW "global" ->
        advance p;
        let t = parse_ty p in
        let name = ident p in
        eat_punct p ";";
        globals := { gname = name; gty = t } :: !globals;
        go ()
    | _ ->
        let ret =
          if is_kw p "void" then begin
            advance p;
            None
          end
          else Some (parse_ty p)
        in
        let name = ident p in
        eat_punct p "(";
        let params = ref [] in
        if not (is_punct p ")") then begin
          let one () =
            let t = parse_ty p in
            let n = ident p in
            (n, t)
          in
          params := [ one () ];
          while is_punct p "," do
            advance p;
            params := one () :: !params
          done
        end;
        eat_punct p ")";
        let body = block p in
        funcs := { fname = name; fret = ret; fparams = List.rev !params; fbody = body } :: !funcs;
        go ()
  in
  go ();
  { globals = List.rev !globals; funcs = List.rev !funcs }
