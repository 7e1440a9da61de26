(** Frontend tests: lexer, parser, type checking, lowering semantics. *)

let run src =
  let prog = Sxe_lang.Frontend.compile src in
  Sxe_vm.Interp.run ~mode:`Canonical prog

let check_out src expected =
  let out = run src in
  Alcotest.(check (option string)) "no trap" None out.Sxe_vm.Interp.trap;
  Alcotest.(check string) "output" expected (String.trim out.Sxe_vm.Interp.output)

let check_trap src expected =
  let out = run src in
  Alcotest.(check (option string)) "trap" (Some expected) out.Sxe_vm.Interp.trap

let type_error src =
  match Sxe_lang.Frontend.compile src with
  | _ -> Alcotest.fail "expected a frontend error"
  | exception Sxe_lang.Frontend.Error _ -> ()

let test_lexer () =
  let toks = Sxe_lang.Lexer.tokenize "int x = 0x10L; // c\n x >>>= 2; /* b */ 1.5e3" in
  let kinds =
    List.map
      (function
        | Sxe_lang.Lexer.KW k, _ -> "kw:" ^ k
        | Sxe_lang.Lexer.IDENT i, _ -> "id:" ^ i
        | Sxe_lang.Lexer.INT_LIT v, _ -> "int:" ^ Int64.to_string v
        | Sxe_lang.Lexer.LONG_LIT v, _ -> "long:" ^ Int64.to_string v
        | Sxe_lang.Lexer.FLOAT_LIT v, _ -> "flt:" ^ string_of_float v
        | Sxe_lang.Lexer.PUNCT p, _ -> p
        | Sxe_lang.Lexer.EOF, _ -> "eof")
      toks
  in
  Alcotest.(check (list string)) "tokens"
    [ "kw:int"; "id:x"; "="; "long:16"; ";"; "id:x"; ">>>="; "int:2"; ";"; "flt:1500."; "eof" ]
    kinds

let test_arith_semantics () =
  check_out
    {|
void main() {
  int a = 2147483647;
  a = a + 1;                  /* wraps */
  print_int(a);
  int b = -2147483648;
  print_int(b / -1);          /* Java: wraps to itself */
  print_int(7 % -2);
  print_int(-7 % 2);
  print_int(1 << 33);         /* shift masked: == 1 << 1 */
  print_int(-8 >> 1);
  print_int(-8 >>> 28);
}
|}
    "-2147483648\n-2147483648\n1\n-1\n2\n-4\n15"

let test_byte_short_semantics () =
  check_out
    {|
void main() {
  byte b = (byte) 200;
  print_int(b);               /* -56 */
  short s = (short) 70000;
  print_int(s);               /* 4464 */
  byte[] a = new byte[3];
  a[0] = 130;
  print_int(a[0]);            /* -126: store truncates, load sign-extends */
  short[] t = new short[2];
  t[1] = 40000;
  print_int(t[1]);            /* -25536 */
}
|}
    "-56\n4464\n-126\n-25536"

let test_long_double () =
  check_out
    {|
void main() {
  long l = 4000000000L;
  print_long(l);
  int i = (int) l;            /* truncates */
  print_int(i);
  long m = (long) i;          /* sign extension */
  print_long(m);
  double d = (double) i;
  print_int((int) (d / 2.0));
  long big = 1L << 40;
  print_long(big + (long) 5);
}
|}
    "4000000000\n-294967296\n-294967296\n-147483648\n1099511627781"

let test_control_flow () =
  check_out
    {|
int collatz(int n) {
  int steps = 0;
  while (n != 1) {
    if ((n & 1) == 0) { n = n / 2; } else { n = 3 * n + 1; }
    steps = steps + 1;
  }
  return steps;
}
void main() {
  print_int(collatz(27));
  int s = 0;
  for (int i = 0; i < 10; i = i + 1) {
    if (i == 3) { continue; }
    if (i == 8) { break; }
    s = s + i;
  }
  print_int(s);
  int j = 0;
  do { j = j + 1; } while (j < 5 && j != 3);
  print_int(j);
  print_int(1 < 2 || 1 / 0 > 0);   /* short-circuit: no trap */
}
|}
    "111\n25\n3\n1"

let test_arrays_2d () =
  check_out
    {|
void main() {
  int[][] m = new int[3][4];
  for (int i = 0; i < 3; i = i + 1) {
    for (int j = 0; j < 4; j = j + 1) { m[i][j] = i * 10 + j; }
  }
  int t = 0;
  for (int i = 0; i < 3; i = i + 1) {
    t = t + m[i].length;
    for (int j = 0; j < 4; j = j + 1) { t = t + m[i][j]; }
  }
  print_int(t);
  print_int(m.length);
}
|}
    "150\n3"

let test_globals_and_calls () =
  check_out
    {|
global int counter;
global double scale;
int bump(int by) { counter = counter + by; return counter; }
void main() {
  scale = 2.5;
  print_int(bump(3));
  print_int(bump(4));
  print_int((int) ((double) counter * scale));
}
|}
    "3\n7\n17"

let test_exceptions () =
  check_trap {|void main() { int[] a = new int[3]; print_int(a[3]); }|}
    "array-index-out-of-bounds";
  check_trap {|void main() { int[] a = new int[2]; print_int(a[-1]); }|}
    "array-index-out-of-bounds";
  check_trap {|void main() { int n = 0 - 5; int[] a = new int[n]; print_int(a.length); }|}
    "negative-array-size";
  check_trap {|global int z; void main() { print_int(5 / z); }|} "division-by-zero";
  check_trap {|global int z; void main() { print_int(5 % z); }|} "division-by-zero"

let test_type_errors () =
  type_error {|void main() { int x = 1.5; }|};
  type_error {|void main() { long l = 1L; int x = l; }|};
  type_error {|void main() { double d = 0.0; if (d) { } }|};
  type_error {|void main() { unknown(3); }|};
  type_error {|void main() { print_int(1, 2); }|};
  type_error {|void main() { return 3; }|};
  type_error {|int f() { }  void main() { }|};
  type_error {|void main() { int[] a = new int[2]; a = 5; }|};
  type_error {|void main() { break; }|};
  type_error {|void f() {} void f() {} void main() {}|};
  type_error {|void main() { x = 3; }|}

let test_parse_errors () =
  type_error {|void main() { int x = ; }|};
  type_error {|void main() { if x { } }|};
  type_error {|void main() { int 3x = 1; }|}

let test_ternary_and_incdec () =
  check_out
    {|
void main() {
  int x = 5;
  print_int(x > 3 ? 10 : 20);
  print_int(x > 9 ? 10 : 20);
  double d = x > 3 ? 1.5 : 2;      /* arms promote to double */
  print_double(d);
  print_long(x > 3 ? 7L : 0L);
  print_int(1 == 1 ? (2 == 3 ? 4 : 5) : 6);   /* nesting */
  int[] a = new int[4];
  for (int i = 0; i < 4; i++) { a[i] = i * i; }
  a[2]++;
  a[3]--;
  int s = 0;
  int k = 4;
  while (k > 0) { k--; s += a[k]; }
  print_int(s);
}
|}
    "10
20
1.5
7
5
14";
  (* ternary arms keep side-effect order: only the taken arm runs *)
  check_out
    {|
global int n;
int bump() { n++; return n; }
void main() {
  int v = 1 == 2 ? bump() : 42;
  print_int(v);
  print_int(n);
}
|}
    "42
0"

let test_ternary_type_errors () =
  type_error {|void main() { int[] a = new int[2]; int x = 1 == 1 ? a : 3; }|};
  type_error {|void main() { int x = (1 == 1 ? 1.5 : 2.5); }|}

let test_scoping () =
  check_out
    {|
void main() {
  int x = 1;
  { int x = 2; print_int(x); }
  print_int(x);
  for (int x = 9; x < 10; x = x + 1) { print_int(x); }
  print_int(x);
}
|}
    "2\n1\n9\n1"

let test_lowering_validates =
 fun () ->
  (* every lowered program passes the IR validator (frontend already
     checks, but assert on a type-rich program) *)
  let src =
    {|
global long gl;
double mix(int i, long l, double d, byte b) {
  return (double) i + (double) l * d - (double) b;
}
void main() {
  gl = 5L;
  byte b = (byte) 3;
  print_double(mix(2, gl, 1.5, b));
}
|}
  in
  let prog = Sxe_lang.Frontend.compile src in
  Sxe_ir.Validate.check_prog prog;
  let out = Sxe_vm.Interp.run ~mode:`Canonical prog in
  Alcotest.(check string) "value" "6.5" (String.trim out.Sxe_vm.Interp.output)

(* Nesting past the parser's bound is a typed frontend error, whichever
   construct nests: parentheses, prefix operators, blocks, or a flat
   left-associative chain (a left-deep tree for lowering to walk). *)
let test_nesting_bound () =
  let deep_error what src =
    match Sxe_lang.Frontend.compile src with
    | _ -> Alcotest.failf "%s: expected a nesting error" what
    | exception Sxe_lang.Frontend.Error msg ->
        if not (String.ends_with ~suffix:"nesting deeper than 10000 levels" msg) then
          Alcotest.failf "%s: unexpected message %S" what msg
  in
  let rep n s = String.concat "" (List.init n (fun _ -> s)) in
  deep_error "parentheses"
    (Printf.sprintf "void main() { print_int(%s1%s); }" (rep 20_000 "(") (rep 20_000 ")"));
  deep_error "prefix operators" (Printf.sprintf "void main() { print_int(%s1); }" (rep 20_000 "- "));
  deep_error "blocks" (Printf.sprintf "void main() { %s %s }" (rep 20_000 "{") (rep 20_000 "}"));
  deep_error "flat sum" (Printf.sprintf "void main() { print_int(1%s); }" (rep 20_000 " + 1"));
  (* well inside the bound, deep nesting still compiles and runs *)
  check_out
    (Printf.sprintf "void main() { print_int(%s7%s); }" (rep 2_000 "(") (rep 2_000 ")"))
    "7";
  check_out (Printf.sprintf "void main() { print_int(0%s); }" (rep 2_000 " + 1")) "2000"

(* Tokens are lexed as the parser asks for them, so the nesting bound
   fires at the 10 001st parenthesis, before the lexer ever reaches the
   bad character at the end. *)
let test_nesting_before_lex_error () =
  let src = "void main() { print_int(" ^ String.make 100_000 '(' ^ "@" in
  match Sxe_lang.Frontend.compile src with
  | _ -> Alcotest.fail "expected a frontend error"
  | exception Sxe_lang.Frontend.Error msg ->
      Alcotest.(check string) "the first error in source order"
        "parse error (line 1): nesting deeper than 10000 levels" msg

let suite =
  [
    Alcotest.test_case "lexer" `Quick test_lexer;
    Alcotest.test_case "int arithmetic semantics" `Quick test_arith_semantics;
    Alcotest.test_case "byte/short semantics" `Quick test_byte_short_semantics;
    Alcotest.test_case "long/double semantics" `Quick test_long_double;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "2-D arrays" `Quick test_arrays_2d;
    Alcotest.test_case "globals and calls" `Quick test_globals_and_calls;
    Alcotest.test_case "exceptions" `Quick test_exceptions;
    Alcotest.test_case "type errors" `Quick test_type_errors;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "ternary and ++/--" `Quick test_ternary_and_incdec;
    Alcotest.test_case "ternary type errors" `Quick test_ternary_type_errors;
    Alcotest.test_case "scoping" `Quick test_scoping;
    Alcotest.test_case "lowering validates" `Quick test_lowering_validates;
    Alcotest.test_case "nesting bound" `Quick test_nesting_bound;
    Alcotest.test_case "nesting error before a later lex error" `Quick
      test_nesting_before_lex_error;
  ]
