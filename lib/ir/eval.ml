(** Shared 64-bit machine semantics for integer operations.

    Both the constant folder and the interpreter evaluate operations through
    this module, so the compiler can never disagree with the machine it
    targets. The model is the paper's: registers are 64 bits; "32-bit"
    ALU operations are executed with 64-bit instructions, so for the
    wrap-tolerant operators only the low 32 bits of the result are
    meaningful, while [Div]/[Rem]/[AShr] observe the full source registers
    (on real IA64 they are preceded by [sxt4] — exactly the extensions the
    optimization tries to prove redundant). *)

open Types

exception Division_by_zero

let low32 v = Int64.logand v 0xFFFF_FFFFL
let sext32 v = Int64.shift_right (Int64.shift_left v 32) 32
let zext32 = low32
let sext16 v = Int64.shift_right (Int64.shift_left v 48) 48
let zext16 v = Int64.logand v 0xFFFFL
let sext8 v = Int64.shift_right (Int64.shift_left v 56) 56
let zext8 v = Int64.logand v 0xFFL

let sext_from = function
  | W8 -> sext8
  | W16 -> sext16
  | W32 -> sext32
  | W64 -> fun v -> v

let zext_from = function
  | W8 -> zext8
  | W16 -> zext16
  | W32 -> zext32
  | W64 -> fun v -> v

(** [is_sign_extended_32 v]: does the full register equal the sign
    extension of its low 32 bits? *)
let is_sign_extended_32 v = Int64.equal v (sext32 v)

let is_upper_zero_32 v = Int64.equal v (zext32 v)

(** Full-register ALU semantics. The division-by-zero check models the
    JIT's explicit 32-bit-compare test: it inspects only the low 32 bits at
    [W32]. *)
let binop (op : binop) (w : width) (l : int64) (r : int64) : int64 =
  let shift_mask = match w with W64 -> 63 | _ -> 31 in
  let amt () = Int64.to_int (Int64.logand r (Int64.of_int shift_mask)) in
  match op with
  | Add -> Int64.add l r
  | Sub -> Int64.sub l r
  | Mul -> Int64.mul l r
  | Div ->
      let zero = match w with W64 -> Int64.equal r 0L | _ -> Int64.equal (low32 r) 0L in
      if zero then raise Division_by_zero;
      if Int64.equal r (-1L) then Int64.neg l (* avoid host Int64.min_int/-1 trap *)
      else Int64.div l r
  | Rem ->
      let zero = match w with W64 -> Int64.equal r 0L | _ -> Int64.equal (low32 r) 0L in
      if zero then raise Division_by_zero;
      if Int64.equal r (-1L) then 0L else Int64.rem l r
  | And -> Int64.logand l r
  | Or -> Int64.logor l r
  | Xor -> Int64.logxor l r
  | Shl -> Int64.shift_left l (amt ())
  | AShr -> Int64.shift_right l (amt ())
  | LShr -> (
      (* the reference 32-bit logical right shift: zero-extends its source
         internally, the way a real 32-bit [shr] instruction would. The
         faithful 64-bit machine has no such instruction — see
         {!binop_faithful}. *)
      match w with
      | W64 -> Int64.shift_right_logical l (amt ())
      | _ -> Int64.shift_right_logical (zext32 l) (amt ()))

(** Faithful-machine ALU semantics: identical to {!binop} except that a
    [W32] logical right shift is executed with the 64-bit [shr.u] and
    genuinely observes the upper 32 bits of its left register — shifting
    garbage into the low half when they are not zero. This is the
    zero-extension demand point: the frontend and Step 1 guard every such
    shift with an explicit [Zext] on a fresh temporary, which elimination
    removes exactly where the operand is provably upper-zero. The shift
    amount keeps the Java [land 31] mask (it never observes upper bits). *)
let binop_faithful (op : binop) (w : width) (l : int64) (r : int64) : int64 =
  match (op, w) with
  | LShr, (W8 | W16 | W32) ->
      Int64.shift_right_logical l (Int64.to_int (Int64.logand r 31L))
  | _ -> binop op w l r

let unop (op : unop) (_w : width) (v : int64) : int64 =
  match op with Neg -> Int64.neg v | Not -> Int64.lognot v

(** Comparison semantics: [W32] compares the (sign-extended) low 32 bits
    only — the IA64 [cmp4] behaviour that makes bounds checks free of sign
    extensions. *)
let cmp (cond : cond) (w : width) (l : int64) (r : int64) : bool =
  let l, r = match w with W64 -> (l, r) | _ -> (sext32 (low32 l), sext32 (low32 r)) in
  let c = Int64.compare l r in
  match cond with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let fcmp (cond : cond) (l : float) (r : float) : bool =
  (* Java semantics: NaN makes every ordered comparison false, Ne true *)
  match cond with
  | Eq -> l = r
  | Ne -> not (l = r)
  | Lt -> l < r
  | Le -> l <= r
  | Gt -> l > r
  | Ge -> l >= r

let fbinop (op : fbinop) (l : float) (r : float) : float =
  match op with FAdd -> l +. r | FSub -> l -. r | FMul -> l *. r | FDiv -> l /. r

(** Java [d2i]: NaN -> 0, saturate to int32 range, else truncate. *)
let d2i (v : float) : int64 =
  if Float.is_nan v then 0L
  else if v >= Int32.to_float Int32.max_int then Int64.of_int32 Int32.max_int
  else if v <= Int32.to_float Int32.min_int then Int64.of_int32 Int32.min_int
  else Int64.of_float v

(** Java [d2l]. *)
let d2l (v : float) : int64 =
  if Float.is_nan v then 0L
  else if v >= Int64.to_float Int64.max_int then Int64.max_int
  else if v <= Int64.to_float Int64.min_int then Int64.min_int
  else Int64.of_float v

(** int/long -> double conversion of the {e full} register contents. *)
let i2d (v : int64) : float = Int64.to_float v
