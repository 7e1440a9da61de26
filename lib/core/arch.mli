(** Target-architecture models (Section 1): how sub-64-bit memory reads
    fill the upper register bits. IA64 zero-extends everything; PPC64 has
    implicit sign extension for 16/32-bit reads ([lha]/[lwa]) but not for
    bytes. *)

type t = {
  name : string;
  load_ext : Sxe_ir.Types.width -> Sxe_ir.Types.lext;
}

val ia64 : t
val ppc64 : t

val names : (string * t) list
(** The CLI/request name of each model: ["ia64"], ["ppc64"]. *)
