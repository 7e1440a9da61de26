(** The extension-state lattice of the certifier.

    One abstract value per [I32] register: the [(kind × width)] product
    lattice, seven independent boolean facts packed as seven
    {!Sxe_util.Bitset} bits per register:

    - [s8]/[s16]/[ext] — the full 64-bit contents equal the sign
      extension of the low 8/16/32 bits (the invariants the [(Sign, w)]
      conversions establish; [ext] is the paper's [extend()]);
    - [z8]/[z16]/[zup] — the bits above the low 8/16/32 are zero (the
      [(Zero, w)] invariants; [zup] is Theorem 1's hypothesis);
    - [asafe] — the register may index a bounds-checked array access
      without a preceding extension (Theorems 1–4: either extended, or
      upper-zero, or an additive expression the theorems cover).

    The facts form a Horn lattice closed under single-antecedent
    implications:

    {v
        s8 → s16 → ext → asafe
        z8 → z16 → zup → asafe
        z8 → s16,   z16 → ext
    v}

    (a value in [0, 2{^8}) is its own 16-bit sign extension, a value in
    [0, 2{^16}) its own 32-bit one), and [ext ∧ zup] means the value is
    a non-negative int32 — the point where both extension kinds
    coincide and sext↔zext conversion is free. Because every implication
    has a single antecedent, the closure is preserved by set
    intersection, so packing keeps the meet of
    {!Sxe_analysis.Dataflow} with [Inter] computing the greatest
    fixpoint — the analogue of the eliminator's coinductive ("assume
    extended until refuted") memoization. All-bits-clear is "garbage
    upper half", the bottom element for precision and the safe default.

    Bits of non-[I32] registers are never consulted; wider registers are
    full-width by construction (the paper's machine model). *)

open Sxe_ir.Types

type t = {
  s8 : bool;
  s16 : bool;
  ext : bool;
  z8 : bool;
  z16 : bool;
  zup : bool;
  asafe : bool;
}

let garbage =
  { s8 = false; s16 = false; ext = false; z8 = false; z16 = false; zup = false; asafe = false }

let extended = { garbage with ext = true; asafe = true }

(** Sign- and zero-extended at once: a non-negative int32 (e.g. the
    zero a fresh VM register holds). *)
let nonneg = { garbage with ext = true; zup = true; asafe = true }

(** Close a value under the lattice's Horn implications. *)
let close v =
  let z8 = v.z8 in
  let z16 = v.z16 || z8 in
  let zup = v.zup || z16 in
  let s8 = v.s8 in
  let s16 = v.s16 || s8 || z8 in
  let ext = v.ext || s16 || z16 in
  let asafe = v.asafe || ext || zup in
  { s8; s16; ext; z8; z16; zup; asafe }

(** Pointwise disjunction — the lattice join. Used when an operation is
    known to be the identity on a register, so prior facts survive
    alongside the newly established ones. *)
let join a b =
  {
    s8 = a.s8 || b.s8;
    s16 = a.s16 || b.s16;
    ext = a.ext || b.ext;
    z8 = a.z8 || b.z8;
    z16 = a.z16 || b.z16;
    zup = a.zup || b.zup;
    asafe = a.asafe || b.asafe;
  }

(** The primary fact established by executing an extension of the given
    kind and width (closure supplies the implied ones). [W64] extensions
    are no-op forms the validator rejects; treat them as fact-free. *)
let of_ext kind w =
  close
    (match (kind, w) with
    | Sign, W8 -> { garbage with s8 = true }
    | Sign, W16 -> { garbage with s16 = true }
    | Sign, W32 -> { garbage with ext = true }
    | Zero, W8 -> { garbage with z8 = true }
    | Zero, W16 -> { garbage with z16 = true }
    | Zero, W32 -> { garbage with zup = true }
    | _, W64 -> garbage)

(** [fact kind w] projects the [(kind × width)] component a use demands. *)
let fact kind w (s : t) =
  match (kind, w) with
  | Sign, W8 -> s.s8
  | Sign, W16 -> s.s16
  | Sign, (W32 | W64) -> s.ext
  | Zero, W8 -> s.z8
  | Zero, W16 -> s.z16
  | Zero, (W32 | W64) -> s.zup

let bit_s8 r = 7 * r
let bit_s16 r = (7 * r) + 1
let bit_ext r = (7 * r) + 2
let bit_z8 r = (7 * r) + 3
let bit_z16 r = (7 * r) + 4
let bit_zup r = (7 * r) + 5
let bit_asafe r = (7 * r) + 6
let universe ~nregs = 7 * nregs

let get (s : Sxe_util.Bitset.t) r =
  {
    s8 = Sxe_util.Bitset.mem s (bit_s8 r);
    s16 = Sxe_util.Bitset.mem s (bit_s16 r);
    ext = Sxe_util.Bitset.mem s (bit_ext r);
    z8 = Sxe_util.Bitset.mem s (bit_z8 r);
    z16 = Sxe_util.Bitset.mem s (bit_z16 r);
    zup = Sxe_util.Bitset.mem s (bit_zup r);
    asafe = Sxe_util.Bitset.mem s (bit_asafe r);
  }

(** [set s r v] stores [close v], so the packed form stays canonical
    (the closure is preserved by intersection, hence by the meet). *)
let set (s : Sxe_util.Bitset.t) r v =
  let v = close v in
  let put b x = if x then Sxe_util.Bitset.add s b else Sxe_util.Bitset.remove s b in
  put (bit_s8 r) v.s8;
  put (bit_s16 r) v.s16;
  put (bit_ext r) v.ext;
  put (bit_z8 r) v.z8;
  put (bit_z16 r) v.z16;
  put (bit_zup r) v.zup;
  put (bit_asafe r) v.asafe

let describe s =
  if s.z8 then "an unsigned byte (upper 56 bits zero)"
  else if s.s8 && s.zup then "a non-negative signed byte"
  else if s.s8 then "a sign-extended byte"
  else if s.z16 then "an unsigned 16-bit value (upper 48 bits zero)"
  else if s.s16 && s.zup then "a non-negative signed 16-bit value"
  else if s.s16 then "a sign-extended 16-bit value"
  else if s.ext && s.zup then "a non-negative int32 (sign- and zero-extended)"
  else if s.ext then "sign-extended"
  else if s.zup then "zero in its upper half"
  else if s.asafe then "subscript-safe but not sign-extended"
  else "possibly garbage in its upper half"
