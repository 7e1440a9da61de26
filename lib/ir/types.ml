(** Core type vocabulary of the IR.

    The IR models a 64-bit register machine in the style of the paper's
    intermediate language: every register is 64 bits wide; *values* of the
    source language are 8/16/32/64-bit integers, 64-bit floats, or array
    references. Integer locals are always 32- or 64-bit (8/16-bit values only
    occur as array elements and as the operand width of sign extensions, as
    in Java). *)

(** Operand widths for integer operations and extensions. *)
type width = W8 | W16 | W32 | W64

(** Register (local variable) types. After lowering from the source
    language, integer registers are [I32] or [I64] only. *)
type ty = I32 | I64 | F64 | Ref

(** Array element types. [ARef] supports arrays of arrays (Java 2-D
    arrays). *)
type aelem = AI8 | AI16 | AI32 | AI64 | AF64 | ARef

(** Signed comparison conditions. *)
type cond = Eq | Ne | Lt | Le | Gt | Ge

(** Integer binary operators. [W32] division/remainder and arithmetic/logical
    right shifts observe the upper 32 bits of their (64-bit) source registers
    on a 64-bit machine; the other operators do not. *)
type binop = Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | AShr | LShr

(** Unary integer operators. *)
type unop = Neg | Not

(** Float binary operators. *)
type fbinop = FAdd | FSub | FMul | FDiv

(** How a sub-64-bit memory read fills the upper bits of the destination
    register. IA64 loads zero-extend ([LZero]); PPC64's [lwa]/[lha]
    sign-extend ([LSign]) — the paper's "implicit sign extension". *)
type lext = LZero | LSign

(** Extension kinds: the first component of the [(kind × width)] product
    the conversion-elimination machinery is keyed by. [Sign] is the
    paper's [extend()]; [Zero] is the sibling ([zxt]/[clrldi]) that
    dominates unsigned/char-heavy code. *)
type ekind = Sign | Zero

let bits_of_width = function W8 -> 8 | W16 -> 16 | W32 -> 32 | W64 -> 64

let width_of_aelem = function
  | AI8 -> W8
  | AI16 -> W16
  | AI32 -> W32
  | AI64 -> W64
  | AF64 | ARef -> W64

let string_of_width = function W8 -> "8" | W16 -> "16" | W32 -> "32" | W64 -> "64"

let string_of_ty = function I32 -> "i32" | I64 -> "i64" | F64 -> "f64" | Ref -> "ref"

let string_of_aelem = function
  | AI8 -> "i8"
  | AI16 -> "i16"
  | AI32 -> "i32"
  | AI64 -> "i64"
  | AF64 -> "f64"
  | ARef -> "ref"

let string_of_cond = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let string_of_binop = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | AShr -> "ashr"
  | LShr -> "lshr"

let string_of_unop = function Neg -> "neg" | Not -> "not"

let string_of_ekind = function Sign -> "sext" | Zero -> "zext"

(** The [lext] behaviour matching an extension kind (a [Sign]-kind load is
    [LSign], etc.) — the bridge between explicit extensions and the
    implicit ones memory reads perform. *)
let lext_of_ekind = function Sign -> LSign | Zero -> LZero

let ekind_of_lext = function LSign -> Sign | LZero -> Zero

(** [window kind w]: the values a register holds after a [kind]
    extension from [w] bits — the signed window for [Sign], the unsigned
    one for [Zero]. A truncating extension is the identity exactly on
    its window. *)
let window kind w =
  match (kind, w) with
  | Sign, W8 -> (-128L, 127L)
  | Sign, W16 -> (-32768L, 32767L)
  | Sign, W32 -> (-2147483648L, 2147483647L)
  | Sign, W64 -> (Int64.min_int, Int64.max_int)
  | Zero, W8 -> (0L, 255L)
  | Zero, W16 -> (0L, 65535L)
  | Zero, W32 -> (0L, 0xFFFF_FFFFL)
  | Zero, W64 -> (0L, Int64.max_int)

let string_of_fbinop = function
  | FAdd -> "fadd"
  | FSub -> "fsub"
  | FMul -> "fmul"
  | FDiv -> "fdiv"

(** [negate_cond c] is the condition holding exactly when [c] does not. *)
let negate_cond = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

(** [swap_cond c] is the condition [c'] with [l c r <-> r c' l]. *)
let swap_cond = function
  | Eq -> Eq
  | Ne -> Ne
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le

(** Maximum Java array length, [0x7fffffff]; the bound used by Theorem 4 and
    the [LS] predicate of Section 3 of the paper. *)
let max_array_length = 0x7fffffffL
