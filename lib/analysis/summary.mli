(** Interprocedural return-range summaries: per function, the join of
    its [I32] return-site intervals, computed by a bounded re-analysis
    fixpoint and reused across every call site via {!Range.compute}'s
    [call_ranges] hook. Every round of the fixpoint (including the
    published last one) is a sound over-approximation on its own — see
    the implementation header. *)

type t

val default_rounds : int

val compute : ?rounds:int -> Sxe_ir.Prog.t -> t
(** Analyse every [I32]-returning function for up to [rounds] rounds
    (default {!default_rounds}), feeding each round the previous round's
    summaries, and stop early once a round reproduces the previous
    table (the result is then the one the remaining rounds would give).
    Deterministic in program order. *)

val find : t -> string -> Range.interval option
(** The summarised return interval of a function, if it has a reachable
    [I32] return. Unknown names (builtins included) are [None]. *)

val call_ranges : t -> string -> Range.interval option
(** The table in the shape {!Range.compute} expects:
    [Range.compute ~call_ranges:(Summary.call_ranges t) f]. *)
