(** Reaching definitions: the forward union bit-vector problem over
    definition sites (function parameters and register-defining
    instructions). {!Chains} replays its solution to build UD/DU chains. *)

type def_site =
  | DParam of Sxe_ir.Instr.reg  (** parameter, reaching the entry *)
  | DIns of Sxe_ir.Instr.t

val def_site_reg : def_site -> Sxe_ir.Instr.reg
(** The register a definition site defines. *)

val def_key : def_site -> int
(** Stable identity (parameters are negative). *)

type t

val compute : Sxe_ir.Cfg.func -> t
val universe : t -> int
val def_of_id : t -> int -> def_site
val in_of_block : t -> int -> Sxe_util.Bitset.t
(** Definitions reaching the entry of a block, as def-id bits. *)
