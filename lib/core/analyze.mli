(** The elimination analysis of Sections 2.3 and 3: [AnalyzeUSE],
    [AnalyzeDEF], [AnalyzeARRAY] (Theorems 1-4) and [EliminateOneExtend],
    over UD/DU chains with per-call memoized visit state. *)

type ctx

val create :
  f:Sxe_ir.Cfg.func ->
  chains:Sxe_analysis.Chains.t ->
  ranges:Sxe_analysis.Range.t ->
  maxlen:int64 ->
  array_enabled:bool ->
  stats:Stats.t ->
  ctx

val analyze_def : ctx -> Sxe_analysis.Reaching.def_site -> bool
(** AnalyzeDEF: [true] when a sign extension IS required — i.e. the
    definition is not proven to produce a sign-extended value. *)

val upper_zero : ctx -> Sxe_analysis.Reaching.def_site -> bool
(** Are the upper 32 bits of the defined register provably zero
    (Theorems 1 and 3)? *)

val subscript_ok : ctx -> maxlen:int64 -> Sxe_analysis.Reaching.def_site -> bool
(** May the subscript value defined here feed an effective-address
    computation without the candidate extension (Theorems 1-4)? *)

val analyze_array : ctx -> Sxe_ir.Instr.t -> bool
(** AnalyzeARRAY for one array access: [true] when the candidate
    extension is required for its address computation. *)

val analyze_use :
  ctx -> Sxe_analysis.Chains.use_site -> tracked:Sxe_ir.Instr.reg -> analyze_array:bool -> bool
(** AnalyzeUSE: does the use (directly or through Case-2 propagation)
    observe the upper 32 bits of the tracked register? *)

val maxlen_for : ctx -> Sxe_ir.Instr.t -> Sxe_ir.Instr.reg -> int64
(** Effective maximum length of the accessed array: the configured bound,
    sharpened when all reaching definitions of the reference are
    allocations with known length ranges. *)

val zero_extended_from :
  ctx -> from:Sxe_ir.Types.width -> Sxe_analysis.Reaching.def_site -> bool
(** Is the value already zero-extended from the width? Drives [Zext]
    elimination — an extension beyond the paper. *)

type verdict = Kept | Eliminated

val eliminate_one : ctx -> Sxe_ir.Instr.t -> verdict
(** The paper's [EliminateOneExtend], for a [Sext] or [Zext] at any
    width: analyze it and delete it if redundant, updating the chains
    incrementally. *)
