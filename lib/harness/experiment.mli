(** Experiment runner: compile each workload under each variant, execute
    on the faithful machine, and collect the paper's quantities — dynamic
    extension counts (Tables 1/2, Figures 11/12), cost-model cycles
    (Figures 13/14) and compile-time breakdowns (Table 3). *)

type measurement = {
  workload : string;
  variant : string;
  dyn_sext32 : int64;
  dyn_zext32 : int64;  (** dynamic 32-bit zero extensions remaining *)
  static_remaining : int;
  static_remaining_zext : int;  (** static 32-bit zero extensions left *)
  cycles : int64;
  executed : int64;
  equivalent : bool;  (** observably equal to the canonical reference *)
  stats : Sxe_core.Stats.t;
}

val default_variants :
  ?arch:Sxe_core.Arch.t -> ?maxlen:int64 -> unit -> Sxe_core.Config.t list
(** {!Sxe_core.Config.all}, kept under this name for sxbench/. *)

val base_of : Sxe_workloads.Registry.t -> Sxe_ir.Prog.t
(** The freshly-lowered, frozen base program for a workload, memoized per
    domain ({!Sxe_par.Dcache}). Treat it as immutable: clone before
    compiling or running. *)

val reference_of : Sxe_workloads.Registry.t -> Sxe_vm.Interp.outcome
(** The canonical (32-bit reference semantics) outcome, memoized per
    domain; the [equivalent] bit of every measurement compares against
    it. *)

val collect_profile :
  Sxe_workloads.Registry.t ->
  ?arch:Sxe_core.Arch.t ->
  unit ->
  string ->
  src:int ->
  dst:int ->
  float option
(** Branch profile from a baseline-compiled run — valid for every gen-def
    variant because Steps 1+2 produce the same CFG for all of them.
    Memoized per domain. *)

val run_one :
  ?profile:(string -> src:int -> dst:int -> float option) ->
  reference:Sxe_vm.Interp.outcome ->
  Sxe_core.Config.t ->
  Sxe_workloads.Registry.t ->
  measurement

val run_workload :
  ?use_profile:bool ->
  ?arch:Sxe_core.Arch.t ->
  ?maxlen:int64 ->
  Sxe_workloads.Registry.t ->
  measurement list

val run_suite :
  ?scale:int ->
  ?use_profile:bool ->
  ?arch:Sxe_core.Arch.t ->
  ?jobs:int ->
  ?stats:(Sxe_par.Pool.stats -> unit) ->
  Sxe_workloads.Registry.suite ->
  (string * measurement list) list
(** [jobs] (default 1) spreads (workload x variant) cells over that many
    domains in pool-sized chunks; the result is identical to a
    sequential run, in registry order. [stats] receives the pool's
    scheduling counters just before the pool is torn down. *)

type breakdown = {
  bench : string;
  signext_pct : float;
  chains_pct : float;
  others_pct : float;
}

val compile_time_breakdown :
  ?repeat:int -> ?arch:Sxe_core.Arch.t -> Sxe_workloads.Registry.t -> breakdown
