(** Generic iterative bit-vector dataflow solver: the one fixpoint
    driver of the monotone bit-vector problems.

    Solves forward or backward problems over {!Sxe_util.Bitset} facts by
    sweeping the reachable blocks in reverse postorder (forward) or
    postorder (backward) and visiting the ones marked dirty; a block
    marked later in the order during a sweep is visited in that same
    sweep. Used by reaching definitions, liveness, the demand analysis
    of the paper's first algorithm, the certifier, and the four systems
    of lazy code motion (anticipability, availability and laterness
    through {!solve}, earliestness from their results).

    Two fixpoint loops stay outside it. [Range.compute] widens by the
    number of times a block has been visited, so its result, unlike a
    bit-vector result, depends on the visit order. [Validate]'s
    definite-assignment check lives in [sxe_ir], which this library
    depends on. *)

exception No_convergence of { analysis : string; func : string }
(** An iterative analysis hit its iteration bound on function [func]
    without reaching a fixpoint. Both fixpoint loops of the optimizer
    ({!solve} and [Range.compute]) raise this one exception, so a
    caller can tell an analysis failure from a crash. *)

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
