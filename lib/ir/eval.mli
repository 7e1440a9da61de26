(** Shared 64-bit machine semantics for integer operations — the single
    source of truth used by both the constant folder and the interpreter,
    so the compiler can never disagree with the machine it targets.

    The model is the paper's: registers are 64 bits; "32-bit" ALU
    operations are executed with 64-bit instructions, so for the
    wrap-tolerant operators only the low 32 bits of the result are
    meaningful, while division, remainder and arithmetic shifts observe
    the full source registers. *)

exception Division_by_zero

val low32 : int64 -> int64
val sext32 : int64 -> int64
val zext32 : int64 -> int64
val sext16 : int64 -> int64
val zext16 : int64 -> int64
val sext8 : int64 -> int64
val zext8 : int64 -> int64
val sext_from : Types.width -> int64 -> int64
val zext_from : Types.width -> int64 -> int64

val is_sign_extended_32 : int64 -> bool
(** Does the full register equal the sign extension of its low half? *)

val is_upper_zero_32 : int64 -> bool

val binop : Types.binop -> Types.width -> int64 -> int64 -> int64
(** Full-register ALU semantics; shift amounts masked; Java division
    corner cases ([min_int / -1] wraps); the division-by-zero check
    inspects only the low 32 bits at [W32] (the JIT's 32-bit-compare
    test). *)

val binop_faithful : Types.binop -> Types.width -> int64 -> int64 -> int64
(** Faithful-machine ALU semantics: like {!binop}, but a [W32] [LShr]
    runs on the 64-bit [shr.u] and observes the {e full} left register.
    The zero-extension demand point: such shifts are guarded with an
    explicit [Zext] that elimination removes where provably redundant. *)

val unop : Types.unop -> Types.width -> int64 -> int64

val cmp : Types.cond -> Types.width -> int64 -> int64 -> bool
(** [W32] compares only the (sign-extended) low halves — IA64 [cmp4]. *)

val fcmp : Types.cond -> float -> float -> bool
(** Java float semantics: NaN falsifies ordered comparisons. *)

val fbinop : Types.fbinop -> float -> float -> float

val d2i : float -> int64
(** Java [d2i]: NaN to 0, saturation to the int32 range, truncation. *)

val d2l : float -> int64
val i2d : int64 -> float
(** Conversion of the {e full} register contents, as the hardware does. *)
