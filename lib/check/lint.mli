(** Pluggable IR lint framework: lists of rules run over a solved
    certification instance. See the implementation header for
    the severity policy; the built-in rules are [redundant-sext],
    [dead-justext], [unreachable-block], [critical-edge], [mov-chain]
    and [const-cmp]. *)

type severity = Info | Warning | Error

val severity_to_string : severity -> string

type finding = {
  rule : string;
  severity : severity;
  fname : string;
  bid : int;
  iid : int option;  (** [None]: terminator- or block-level finding *)
  idx : int option;
      (** 0-based instruction index within the block body ([None] for
          terminator/block findings) — the positional half of the
          uniform (function, block label, instruction index) location
          SARIF regions are built from *)
  message : string;
}

type rule = {
  name : string;
  doc : string;
  severity : severity;  (** default severity of the rule's findings *)
  check : Certify.solution -> Sxe_ir.Cfg.func -> finding list;
}

val instr_index : Sxe_ir.Cfg.func -> bid:int -> iid:int option -> int option
(** Position of instruction [iid] within block [bid]'s body; [None] for
    [None] iid or an id not present in the block. *)

val builtins : rule list
(** The built-in rules, the drivers' default. *)

val run_func :
  ?maxlen:int64 ->
  ?call_ranges:(string -> Sxe_analysis.Range.interval option) ->
  ?rules:rule list ->
  Sxe_ir.Cfg.func ->
  finding list
(** Solve the certification instance once and run [rules] (default:
    {!builtins}) over it. *)

val run_prog :
  ?maxlen:int64 -> ?rules:rule list -> Sxe_ir.Prog.t -> finding list
(** Runs with interprocedural return-range summaries recomputed from
    the program, like {!Certify.certify_prog}. *)

val finding_to_string : finding -> string
val max_severity : finding list -> severity option
