(** Generic iterative bit-vector dataflow solver.

    Solves forward or backward problems over {!Sxe_util.Bitset} facts with
    a worklist seeded in reverse postorder (forward) or postorder
    (backward). Used by reaching definitions, liveness, the demand
    analysis of the paper's first algorithm, and the four systems of lazy
    code motion. *)

exception No_convergence of { analysis : string; func : string }
(** An iterative analysis hit its iteration bound on function [func]
    without reaching a fixpoint. Every fixpoint loop of the optimizer
    ({!solve}, [Range.compute], lazy code motion) raises this one
    exception, so a caller can tell an analysis failure from a crash. *)

type direction = Forward | Backward
type meet = Union | Inter

type result = {
  inb : Sxe_util.Bitset.t array;  (** fact at block entry, program order *)
  outb : Sxe_util.Bitset.t array;  (** fact at block exit, program order *)
}

val solve :
  f:Sxe_ir.Cfg.func ->
  dir:direction ->
  meet:meet ->
  universe:int ->
  transfer:(int -> Sxe_util.Bitset.t -> Sxe_util.Bitset.t) ->
  boundary:Sxe_util.Bitset.t ->
  result
(** [solve ~f ~dir ~meet ~universe ~transfer ~boundary] iterates to a
    fixpoint. [transfer bid input] maps the block's input fact (entry fact
    for [Forward], exit fact for [Backward]) to its output fact and must
    be monotone; [boundary] seeds the entry (forward) or every exit block
    (backward). With [Inter] meet, interior facts start at top. Raises
    {!No_convergence} if no fixpoint is reached within the
    lattice-derived bound (only possible for a non-monotone transfer). *)

val solve_gen_kill :
  f:Sxe_ir.Cfg.func ->
  dir:direction ->
  meet:meet ->
  universe:int ->
  gen:(int -> Sxe_util.Bitset.t) ->
  kill:(int -> Sxe_util.Bitset.t) ->
  boundary:Sxe_util.Bitset.t ->
  result
(** Classic [out = gen ∪ (in \ kill)] form (or its backward mirror). *)
