(** Facade: certification entry points, the pipeline's paranoid-mode
    gate, and JSON rendering for tooling. *)

exception Certification_failed of string

val paranoid : unit -> bool
(** Is paranoid per-stage certification enabled ([SXE_CHECK] set to
    anything but empty/["0"])? Read per call. *)

val certify :
  ?maxlen:int64 ->
  ?call_ranges:(string -> Sxe_analysis.Range.interval option) ->
  Sxe_ir.Cfg.func ->
  Certify.error list

val certify_prog : ?maxlen:int64 -> Sxe_ir.Prog.t -> Certify.error list

val lint :
  ?maxlen:int64 ->
  ?call_ranges:(string -> Sxe_analysis.Range.interval option) ->
  ?rules:Lint.rule list ->
  Sxe_ir.Cfg.func ->
  Lint.finding list

val lint_prog :
  ?maxlen:int64 -> ?rules:Lint.rule list -> Sxe_ir.Prog.t -> Lint.finding list

val stage_gate :
  ?maxlen:int64 ->
  ?call_ranges:(string -> Sxe_analysis.Range.interval option) ->
  stage:string ->
  Sxe_ir.Cfg.func ->
  unit
(** Certify and raise {!Certification_failed} naming [stage] on error.
    Pass the [call_ranges] the optimizer ran with, or the gate may
    reject sound eliminations that used interprocedural ranges. *)

val error_to_json : Certify.error -> Sxe_util.Json.t
val errors_to_json : Certify.error list -> string
(** The compact rendering of the errors as a JSON array. *)

val finding_to_json : Lint.finding -> Sxe_util.Json.t
