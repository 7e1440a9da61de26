(** Extension-state abstract values: the [(kind × width)] product
    lattice — seven boolean facts per [I32] register
    ([s8]/[s16]/[ext] sign-extended-from-{8,16,32},
    [z8]/[z16]/[zup] zero-extended-from-{8,16,32}, [asafe]
    subscript-safety) — packed seven bits per register into a
    {!Sxe_util.Bitset} so that set intersection is the lattice meet.
    See the implementation header for the lattice reading. *)

type t = {
  s8 : bool;
  s16 : bool;
  ext : bool;
  z8 : bool;
  z16 : bool;
  zup : bool;
  asafe : bool;
}

val garbage : t
val extended : t

val nonneg : t
(** Sign- and zero-extended at once: a non-negative int32. *)

val join : t -> t -> t
(** Pointwise disjunction — the lattice join. *)

val close : t -> t
(** Close a value under the lattice's Horn implications
    ([s8 → s16 → ext → asafe], [z8 → z16 → zup → asafe],
    [z8 → s16], [z16 → ext]). *)

val of_ext : Sxe_ir.Types.ekind -> Sxe_ir.Types.width -> t
(** The (closed) facts established by executing an extension of the
    given kind and width. *)

val fact : Sxe_ir.Types.ekind -> Sxe_ir.Types.width -> t -> bool
(** Project the [(kind × width)] component a use demands. *)

val universe : nregs:int -> int
(** Bitset universe size for a function with [nregs] registers. *)

val get : Sxe_util.Bitset.t -> Sxe_ir.Instr.reg -> t

val set : Sxe_util.Bitset.t -> Sxe_ir.Instr.reg -> t -> unit
(** Stores the value, closed under the lattice implications. *)

val describe : t -> string
(** Human-readable rendering for certification error messages. *)
