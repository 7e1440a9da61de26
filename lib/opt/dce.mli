(** Dead code elimination over DU chains: removes definitions no use can
    observe, to a fixpoint, from one chain build and a worklist.
    Side-effecting (including potentially-throwing) instructions are
    kept. *)

val run : Sxe_ir.Cfg.func -> bool
