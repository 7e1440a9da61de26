(** Static extension-residue auditor: classify every extension that
    survives optimization as provably-redundant (with a witness chain
    naming the Theorem 1–4 fact), necessary (with a concrete
    counterexample from the range / extension-state lattice) or unknown
    (range-hostile — the speculation candidates). Redundancy claims are
    self-verified by deleting the extension and pushing the patched
    program through the certifier and the differential execution
    oracle; a verification failure is an auditor bug and raises
    {!Verification_failed}. *)

type fact =
  | Def_extended
  | Flow_extended
  | Range_nonneg
  | Range_window
  | Dead_upper

val fact_to_string : fact -> string

type verdict =
  | Redundant of { fact : fact; witness : (int * int) list }
      (** [witness]: [(bid, iid)] definition chain toward the origin of
          the proven fact, most recent first (empty when the proof is a
          deletion experiment or a range fact) *)
  | Necessary of { reason : string }
  | Unknown of { reason : string }

type kind =
  | Explicit of Sxe_ir.Types.ekind * Sxe_ir.Types.width
      (** a [Sext] ([Sign]) or [Zext] ([Zero]) instruction *)
  | Load_implied
      (** implicit sign extension of a 32-bit [LSign] load *)

type site = {
  fname : string;
  bid : int;
  iid : int;
  idx : int option;
  reg : Sxe_ir.Instr.reg;
  kind : kind;
  verdict : verdict;
}

val verdict_to_string : verdict -> string
val site_loc : site -> string
val site_to_string : site -> string
val is_redundant : site -> bool

val apply_patch : Sxe_ir.Cfg.func -> site -> unit
(** Apply the deletion a redundancy claim is about: remove the [Sext]
    or [Zext], or flip the load to [LZero]. The function must contain
    the site's instruction id (clones preserve ids). *)

val audit_func :
  ?maxlen:int64 ->
  ?call_ranges:(string -> Sxe_analysis.Range.interval option) ->
  ?assume_redundant:(fname:string -> bid:int -> iid:int -> bool) ->
  Sxe_ir.Cfg.func ->
  site list
(** Classify every residual extension of one function, in reverse
    postorder. [assume_redundant] forces a redundant verdict at
    matching sites — a test hook for exercising the self-verification
    hard-fail path. *)

exception Verification_failed of string
(** A provably-redundant finding did not survive deletion: the auditor
    itself is wrong. Hard failure by design. *)

type verification = {
  attempted : int;
  co_deleted : int;
      (** findings whose deletions compose into one patched program *)
  interacting : int;
      (** findings verified in isolation because another deletion
          invalidated the fact they rest on *)
}

val verify_redundant :
  ?maxlen:int64 ->
  ?fuel:int64 ->
  Sxe_ir.Prog.t ->
  site list ->
  verification
(** Prove every redundant finding in [sites] by deletion: greedy static
    composition per function, one differential run of the composed
    patch, isolated verification of the set-aside findings. Raises
    {!Verification_failed} on any individually-failing finding. *)

val audit_prog :
  ?maxlen:int64 ->
  ?fuel:int64 ->
  ?verify:bool ->
  ?rounds:int ->
  ?assume_redundant:(fname:string -> bid:int -> iid:int -> bool) ->
  Sxe_ir.Prog.t ->
  site list * verification option
(** Audit a fully optimized program with interprocedural return-range
    summaries ([rounds] forwarded to {!Sxe_analysis.Summary.compute}),
    then self-verify the redundancy claims unless [verify:false].
    Deterministic: functions in name order, blocks in reverse
    postorder. *)

val rule_redundant : string
val rule_speculation : string

val lint_rules : Sxe_check.Lint.rule list
(** The classifier as lint rules ([audit-redundant-ext] at warning,
    [audit-speculation-candidate] at info) — static only: no deletion
    oracle runs, no interprocedural summaries. *)
