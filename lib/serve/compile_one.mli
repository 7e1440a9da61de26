(** One source, one variant, one verdict: the shared
    optimize + certify + codegen path behind both the one-shot CLI
    subcommands and the daemon.

    This is the single place that strings the pipeline together —
    frontend, {!Sxe_core.Pass.compile}, {!Sxe_ir.Validate},
    {!Sxe_check.Check.certify_prog}, optional
    {!Sxe_codegen.Emit} — so a daemon response and a
    [sxopt certify] run of the same (source, variant, arch, maxlen)
    are the same computation, not two copies drifting apart. *)

val config_of :
  ?arch:Sxe_core.Arch.t -> ?maxlen:int64 -> Sxe_core.Config.variant ->
  Sxe_core.Config.t
(** {!Sxe_core.Config.of_variant}, kept under this name for sxbench/. *)

val arch_of_name : string -> Sxe_core.Arch.t option
(** Look a name up in {!Sxe_core.Arch.names}. *)

val pipeline_rev : string
(** Revision tag of the whole optimize+certify+codegen pipeline, mixed
    into the daemon's content-hash cache keys so a rebuilt daemon with
    a changed pipeline never serves stale verdicts. Bump on any change
    that can alter compiled output, certificates or emitted assembly. *)

type outcome = {
  prog : Sxe_ir.Prog.t;  (** the optimized program (caller owns it) *)
  config : Sxe_core.Config.t;
  stats : Sxe_core.Stats.t;
  errors : Sxe_check.Certify.error list;  (** certification verdict *)
  asm : string option;  (** pseudo-assembly, when [emit] was requested *)
}

val run_prog :
  ?emit:bool -> config:Sxe_core.Config.t -> maxlen:int64 ->
  Sxe_ir.Prog.t -> outcome
(** Clone, compile, validate, certify (and emit when [emit]). The input
    program is not mutated. Compiler/validator exceptions propagate. *)

val run_source :
  ?emit:bool -> config:Sxe_core.Config.t -> maxlen:int64 ->
  string -> (outcome, string) result
(** [run_source] parses MiniJ source first; frontend errors come back
    as [Error msg] rather than exceptions (they are request errors, not
    tool crashes). *)
