(** Instructions and terminators of the non-SSA register IR.

    Registers are plain integers, typed by a per-function side table (see
    {!Func}). The machine model is a 64-bit register file: a 32-bit value
    occupies the low half of its register and the upper half holds whatever
    the defining instruction left there. Sign extensions are explicit
    [Sext] instructions with the paper's shape [r = extend(r)] (destination
    and source are the same register), which is what the insertion /
    elimination machinery of the paper manipulates. *)

open Types

type reg = int

type op =
  | Const of { dst : reg; ty : ty; v : int64 }
      (** Integer or reference constant ([v = 0] is the only [Ref] constant,
          null). A 32-bit constant is materialized sign-extended. *)
  | FConst of { dst : reg; v : float }
  | Mov of { dst : reg; src : reg; ty : ty }
      (** Register copy. [ty] is the type at which the copy is viewed; a
          64-to-32-bit truncation (Java [l2i]) is a [Mov] with [ty = I32]
          whose source is an [I64] register. *)
  | Unop of { dst : reg; op : unop; src : reg; w : width }
  | Binop of { dst : reg; op : binop; l : reg; r : reg; w : width }
      (** Integer arithmetic. [W32] operations are executed with 64-bit ALU
          instructions; for [Add], [Sub], [Mul], [And], [Or], [Xor], [Shl]
          the low 32 bits of the result are correct regardless of the upper
          source bits, while [Div], [Rem], [AShr] observe the full source
          registers (sign-demand points) and the faithful machine's [LShr]
          observes the full left register (the zero-demand point: a 64-bit
          [shr.u] shifts upper garbage into the low half, so conversion
          guards it with an explicit [Zext]). Shift amounts are masked
          ([land 31] at [W32], [land 63] at [W64]) and never observe upper
          bits. *)
  | Cmp of { dst : reg; cond : cond; l : reg; r : reg; w : width }
      (** Materialized comparison, result 0/1. [W32] compares only the low
          halves (IA64 [cmp4]). *)
  | Sext of { r : reg; from : width }
      (** The paper's [r = extend(r)]: sign-extend the low [from] bits of
          [r] into the full 64-bit register. Reads only the low [from]
          bits. This is the instruction the optimization eliminates. *)
  | Zext of { r : reg; from : width }
      (** [r = zero_extend(r)]: clears bits [from..63]. *)
  | JustExt of { r : reg }
      (** Dummy sign extension ("just extended", Section 2.1): an analysis
          marker asserting that [r] is sign-extended here; generates no
          code and is removed at the end of the elimination phase. *)
  | FBinop of { dst : reg; op : fbinop; l : reg; r : reg }
  | FNeg of { dst : reg; src : reg }
  | FCmp of { dst : reg; cond : cond; l : reg; r : reg }
  | I2D of { dst : reg; src : reg }
      (** int -> double. Converts the {e full 64-bit} register contents, as
          the hardware does; its source must be sign-extended. *)
  | L2D of { dst : reg; src : reg }
  | D2I of { dst : reg; src : reg }
      (** double -> int with Java saturating semantics; the result is a
          genuine int32 and hence arrives sign-extended. *)
  | D2L of { dst : reg; src : reg }
  | NewArr of { dst : reg; elem : aelem; len : reg }
      (** Array allocation. The length check ([len >= 0]) uses a 32-bit
          compare but the allocation consumes the full register, so [len]
          requires sign extension. Elements are zero-initialized. *)
  | ArrLoad of { dst : reg; arr : reg; idx : reg; elem : aelem; lext : lext }
      (** Bounds-checked array read. The bounds check compares only the low
          32 bits of [idx] (IA64/PPC64 32-bit compares, Section 3); the
          effective address consumes the full [idx] register. Sub-64-bit
          integer elements extend into the register per [lext]. *)
  | ArrStore of { arr : reg; idx : reg; src : reg; elem : aelem }
  | ArrLen of { dst : reg; arr : reg }
      (** Array length: in [0, 0x7fffffff], so sign- and zero-extended. *)
  | GLoad of { dst : reg; sym : string; ty : ty; lext : lext }
      (** Read of a global scalar. A 32-bit read extends per [lext] (IA64
          [ld4] zero-extends; PPC64 [lwa] sign-extends). *)
  | GStore of { sym : string; src : reg; ty : ty }
      (** Write of a global scalar; a 32-bit store writes only the low half
          of [src]. *)
  | Call of { dst : reg option; fn : string; args : (reg * ty) list; ret : ty option }
      (** Direct call. [I32] arguments must be sign-extended per the ABI;
          [I32] results arrive sign-extended from the callee's [Ret]. *)

type terminator =
  | Jmp of int
  | Br of { cond : cond; l : reg; r : reg; w : width; ifso : int; ifnot : int }
      (** Fused compare-and-branch. [W32] uses a 32-bit compare (IA64
          [cmp4]) and does not observe upper register bits. *)
  | Ret of (reg * ty) option

(** An instruction: a uniquely-identified, mutable holder of an [op].
    Analyses key side tables by [iid]; rewrites replace [op] in place so
    existing UD/DU chain entries remain valid. *)
type t = { iid : int; mutable op : op }

(* ------------------------------------------------------------------ *)
(* Defs and uses                                                       *)
(* ------------------------------------------------------------------ *)

(** [def op] is the register defined by [op], if any. [Sext]/[Zext]/
    [JustExt] define (and use) their single register. *)
let def = function
  | Const { dst; _ }
  | FConst { dst; _ }
  | Mov { dst; _ }
  | Unop { dst; _ }
  | Binop { dst; _ }
  | Cmp { dst; _ }
  | FBinop { dst; _ }
  | FNeg { dst; _ }
  | FCmp { dst; _ }
  | I2D { dst; _ }
  | L2D { dst; _ }
  | D2I { dst; _ }
  | D2L { dst; _ }
  | NewArr { dst; _ }
  | ArrLoad { dst; _ }
  | ArrLen { dst; _ }
  | GLoad { dst; _ } ->
      Some dst
  | Sext { r; _ } | Zext { r; _ } | JustExt { r } -> Some r
  | ArrStore _ | GStore _ -> None
  | Call { dst; _ } -> dst

(** [uses op] is the list of registers read by [op] (with multiplicity
    collapsed; order unspecified). *)
let uses = function
  | Const _ | FConst _ -> []
  | Mov { src; _ } | Unop { src; _ } | FNeg { src; _ }
  | I2D { src; _ } | L2D { src; _ } | D2I { src; _ } | D2L { src; _ } ->
      [ src ]
  | Binop { l; r; _ } | Cmp { l; r; _ } | FBinop { l; r; _ } | FCmp { l; r; _ } ->
      if l = r then [ l ] else [ l; r ]
  | Sext { r; _ } | Zext { r; _ } | JustExt { r } -> [ r ]
  | NewArr { len; _ } -> [ len ]
  | ArrLoad { arr; idx; _ } -> if arr = idx then [ arr ] else [ arr; idx ]
  | ArrStore { arr; idx; src; _ } ->
      List.sort_uniq compare [ arr; idx; src ]
  | ArrLen { arr; _ } -> [ arr ]
  | GLoad _ -> []
  | GStore { src; _ } -> [ src ]
  | Call { args; _ } -> List.sort_uniq compare (List.map fst args)

let term_uses = function
  | Jmp _ -> []
  | Br { l; r; _ } -> if l = r then [ l ] else [ l; r ]
  | Ret None -> []
  | Ret (Some (r, _)) -> [ r ]

let term_succs = function
  | Jmp l -> [ l ]
  | Br { ifso; ifnot; _ } -> if ifso = ifnot then [ ifso ] else [ ifso; ifnot ]
  | Ret _ -> []

(* ------------------------------------------------------------------ *)
(* Extension classification (Section 2.3 of the paper, generalized to   *)
(* the (kind × width) conversion family)                                *)
(* ------------------------------------------------------------------ *)

(** The kind-polymorphic view of the explicit extensions: [Sext] and
    [Zext] are the two instances of one conversion family keyed by
    [(ekind × width)]. Modules that used to pattern-match "is this a
    Sext?" go through this interface instead. *)
let ext_kind = function
  | Sext { r; from } -> Some (Sign, r, from)
  | Zext { r; from } -> Some (Zero, r, from)
  | _ -> None

(** [mk_ext kind ~r ~from] builds the explicit extension of [kind]. *)
let mk_ext kind ~r ~from =
  match kind with Sign -> Sext { r; from } | Zero -> Zext { r; from }

(** Is this the explicit 32-bit sign extension targeted by the tables? *)
let is_sext32 = function Sext { from = W32; _ } -> true | _ -> false

let is_sext = function Sext _ -> true | _ -> false

(** The zero-kind siblings of {!is_sext32}/{!is_sext}. *)
let is_zext32 = function Zext { from = W32; _ } -> true | _ -> false

let is_zext = function Zext _ -> true | _ -> false
let is_ext op = is_sext op || is_zext op

(** [is_ext32_of kind] selects {!is_sext32} or {!is_zext32}. *)
let is_ext32_of = function Sign -> is_sext32 | Zero -> is_zext32

let is_justext = function JustExt _ -> true | _ -> false

(** 32-bit integer sources whose {e full 64-bit} register contents the
    instruction observes, excluding array-subscript uses (those are handled
    by [AnalyzeARRAY]). [reg_ty] gives register types; only [I32] registers
    are reported — wider registers are maintained by construction.

    These are the "use points" of the paper: the places where step 1's
    gen-use strategy would place an extension and where phase (3)-1 inserts
    one. *)
let required_ext_uses ~reg_ty op =
  let i32 r = reg_ty r = I32 in
  match op with
  | I2D { src; _ } -> if i32 src then [ src ] else []
  | Binop { op = (Div | Rem | AShr) as bop; l; r; w = W32; _ } ->
      (* division, remainder, arithmetic right shift read full registers;
         the shift amount [r] of [AShr] is masked and exempt. *)
      let srcs = match bop with AShr -> [ l ] | _ -> [ l; r ] in
      List.sort_uniq compare (List.filter i32 srcs)
  | NewArr { len; _ } -> if i32 len then [ len ] else []
  | Call { args; _ } ->
      List.sort_uniq compare
        (List.filter_map (fun (r, ty) -> if ty = I32 && i32 r then Some r else None) args)
  | Mov { dst = _; src; ty = I64 } -> (* exhaustive fields *)
      (* widening copy int -> long (i2l): observes the full source. *)
      if i32 src then [ src ] else []
  | _ -> []

let required_ext_uses_term ~reg_ty term =
  let i32 r = reg_ty r = I32 in
  match term with
  | Ret (Some (r, I32)) when i32 r -> [ r ]
  | Ret _ | Jmp _ -> []
  | Br { w = W64; l; r; _ } ->
      (* a 64-bit compare of I32 registers would observe upper bits; the
         frontend only emits W64 compares on I64 registers, but be safe. *)
      List.sort_uniq compare (List.filter i32 [ l; r ])
  | Br { w = _; _ } -> []

(** 32-bit integer sources whose full 64-bit register contents the
    instruction observes under the {e zero}-extension discipline — the
    zero-kind sibling of {!required_ext_uses}. The logical right shift at
    [W32] is executed with the 64-bit [shr.u], so its left operand must
    have a clear upper half; the conversion pass guards every such use
    with an explicit [Zext] on a fresh temporary (the [zxt4] the
    hardware sequence needs), which elimination then proves redundant
    where the value is already upper-zero. The shift {e amount} is
    masked and exempt, as for [AShr]. *)
let required_zext_uses ~reg_ty op =
  let i32 r = reg_ty r = I32 in
  match op with
  | Binop { op = LShr; l; w = W32; _ } -> if i32 l then [ l ] else []
  | _ -> []

(** [required_uses_of_kind kind] selects the sign- or zero-demand use
    set: the places where step 1 must place an extension of [kind]. *)
let required_uses_of_kind = function
  | Sign -> required_ext_uses
  | Zero -> required_zext_uses

(** The array-subscript use of an instruction, if any: the register whose
    extension [AnalyzeARRAY] may prove redundant via Theorems 1-4. *)
let array_index_use = function
  | ArrLoad { arr; idx; _ } | ArrStore { arr; idx; _ } -> Some (arr, idx)
  | _ -> None

(** Case 2 of [AnalyzeUSE]: given that the upper 32 bits of this
    instruction's destination are not needed, the upper bits of which
    sources become unneeded? (The low 32 bits of the result of these
    operations depend only on the low 32 bits of these sources.) *)
let demand_propagates_to = function
  | Mov { src; ty = I32; _ } -> [ src ]
  | Unop { src; w = W32; _ } -> [ src ]
  | Binop { op = Add | Sub | Mul | And | Or | Xor; l; r; w = W32; _ } ->
      if l = r then [ l ] else [ l; r ]
  | Binop { op = Shl; l; w = W32; _ } -> [ l ]
  | _ -> []

(** Case 1 of [AnalyzeDEF], structural part: the destination register is
    known sign-extended whatever the inputs' upper bits are (given that
    inputs that {e require} extension have it, which the optimizer
    preserves). Value-range based facts are layered on top of this in
    [Sxe_core.Extfacts]. *)
let def_always_extended = function
  | Sext _ | JustExt _ -> true
  | Zext { from = W8 | W16; _ } -> true (* in [0, 65535]: non-negative int32 *)
  | Const { ty = I32; v; _ } ->
      v >= Int64.of_int32 Int32.min_int && v <= Int64.of_int32 Int32.max_int
  | Const _ -> true (* I64/Ref constants: trivially full-width *)
  | Cmp _ -> true (* 0/1 *)
  | D2I _ -> true (* saturated to int32 *)
  | ArrLen _ -> true (* in [0, 2^31-1] *)
  | ArrLoad { elem = AI8 | AI16 | AI32; lext = LSign; _ } -> true
  | GLoad { ty = I32; lext = LSign; _ } -> true
  | Binop { op = Rem; w = W32; _ } -> true
      (* inputs are (and stay) extended, so the remainder is a genuine
         int32; the quotient is too, except [min_int / -1], which the
         64-bit divide leaves as [2^31] *)
  | Binop { op = AShr; w = W32; _ } -> true (* shift of an extended value *)
  | _ -> false

(** The destination's upper 32 bits are known to be zero (used by Theorems
    1 and 3; on IA64 every sub-64-bit memory read qualifies). *)
let def_upper_zero = function
  | Zext { from = W32; _ } -> true
  | Zext { from = W8 | W16; _ } -> true
  | ArrLoad { elem = AI8 | AI16 | AI32; lext = LZero; _ } -> true
  | GLoad { ty = I32; lext = LZero; _ } -> true
  | Const { v; _ } -> v >= 0L && v < 0x1_0000_0000L
  | Cmp _ -> true
  | ArrLen _ -> true
  | _ -> false

(** Case 2 of [AnalyzeDEF]: the destination is sign-extended {e provided}
    the returned sources are. Copies and the sign-preserving bitwise
    operations qualify; additive operations do not (overflow escapes the
    32-bit range). *)
let extended_if_srcs_extended = function
  | Mov { src; ty = I32; _ } -> Some [ src ]
  | Binop { op = And | Or | Xor; l; r; w = W32; _ } ->
      Some (if l = r then [ l ] else [ l; r ])
  | Unop { op = Not; src; w = W32; _ } -> Some [ src ]
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Rewriting                                                           *)
(* ------------------------------------------------------------------ *)

(** [map_uses f op] replaces every used register [r] by [f r]. The
    destination is left unchanged (including the shared register of
    [Sext]/[Zext]/[JustExt], whose "use" side cannot be renamed
    independently — callers treating those must handle them specially). *)
let map_uses f op =
  match op with
  | Const _ | FConst _ | GLoad _ -> op
  | Mov c -> Mov { c with src = f c.src }
  | Unop c -> Unop { c with src = f c.src }
  | Binop c -> Binop { c with l = f c.l; r = f c.r }
  | Cmp c -> Cmp { c with l = f c.l; r = f c.r }
  | Sext _ | Zext _ | JustExt _ -> op
  | FBinop c -> FBinop { c with l = f c.l; r = f c.r }
  | FNeg c -> FNeg { c with src = f c.src }
  | FCmp c -> FCmp { c with l = f c.l; r = f c.r }
  | I2D c -> I2D { c with src = f c.src }
  | L2D c -> L2D { c with src = f c.src }
  | D2I c -> D2I { c with src = f c.src }
  | D2L c -> D2L { c with src = f c.src }
  | NewArr c -> NewArr { c with len = f c.len }
  | ArrLoad c -> ArrLoad { c with arr = f c.arr; idx = f c.idx }
  | ArrStore c -> ArrStore { c with arr = f c.arr; idx = f c.idx; src = f c.src }
  | ArrLen c -> ArrLen { c with arr = f c.arr }
  | GStore c -> GStore { c with src = f c.src }
  | Call c -> Call { c with args = List.map (fun (r, ty) -> (f r, ty)) c.args }

let map_uses_term f term =
  match term with
  | Jmp _ -> term
  | Br c -> Br { c with l = f c.l; r = f c.r }
  | Ret None -> term
  | Ret (Some (r, ty)) -> Ret (Some (f r, ty))

(** Side-effect / observability classification, used by DCE: instructions
    with [true] must not be removed even if their result is unused. *)
let has_side_effect = function
  | ArrStore _ | GStore _ | Call _ -> true
  | NewArr _ -> true (* may throw NegativeArraySizeException *)
  | ArrLoad _ -> true (* may throw ArrayIndexOutOfBoundsException *)
  | Binop { op = Div | Rem; _ } -> true (* may throw ArithmeticException *)
  | _ -> false
