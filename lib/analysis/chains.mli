(** UD/DU chains (Aho–Sethi–Ullman) — the structure the paper's
    [EliminateOneExtend] traverses — with incremental maintenance under
    deletion of same-register extensions.

    [UD(use, r)] is the set of definitions of [r] that may reach [use];
    [DU(def)] the set of uses its value may reach. Deleting an extension
    [r = extend(r)] rewires both directions: every use the extension
    reached becomes reached by every definition that reached the
    extension. A qcheck property asserts incremental = full rebuild. *)

type use_site =
  | UIns of Sxe_ir.Instr.t  (** an instruction operand *)
  | UTerm of int  (** the terminator of block [bid] *)

type t

val build : Sxe_ir.Cfg.func -> t
(** Compute reaching definitions and record both chain directions. *)

val use_key : use_site -> int
(** Stable identity of a use site (terminators are negative). *)

val same_def : Reaching.def_site -> Reaching.def_site -> bool
val same_use : use_site -> use_site -> bool

val ud_at_instr : t -> Sxe_ir.Instr.t -> Sxe_ir.Instr.reg -> Reaching.def_site list
(** Definitions of the register that may reach this instruction's use of
    it; empty if the instruction does not use the register. *)

val ud_at_term : t -> int -> Sxe_ir.Instr.reg -> Reaching.def_site list

val du_of_site : t -> Reaching.def_site -> use_site list
val du_of_instr : t -> Sxe_ir.Instr.t -> use_site list

val block_of_instr : t -> Sxe_ir.Instr.t -> int
(** Containing block of an instruction currently tracked by the chains.
    Raises [Not_found] after the instruction was deleted. *)

val contains : t -> Sxe_ir.Instr.t -> bool
(** Is the instruction still present (not deleted through these chains)? *)

val delete_same_reg_def : t -> Sxe_ir.Instr.t -> unit
(** Remove a [Sext]/[Zext]/[JustExt] (destination = source register) from
    the chains {e and} from its block body, rewiring reached uses to the
    definitions that reached the deleted instruction. *)

val snapshot : t -> ((int * int) * int list) list * (int * int list) list
(** Canonical dump of both chain directions, for equality testing. *)
