(** Interval value-range analysis for 32-bit registers — the compile-time
    range knowledge Theorems 2–4 of the paper rest on.

    Ranges describe the signed low 32 bits of a register (well-defined
    whatever the upper half holds). Conditional branches refine ranges on
    their out-edges; array accesses refine their index (the paper's [LS]
    predicate); loops converge by threshold widening plus narrowing.

    Block states are sparse: each block's entry state holds only the
    tracked registers live into it ({!Liveness}), and its exit state
    those live out of it plus the terminator's operands. The fixpoint
    allocates them once and updates them in place, skipping blocks whose
    predecessors' exits have not changed since their last visit (exact;
    see the implementation header). Queries replay the containing block
    from its entry state into a buffer owned by the {!t}, so they
    allocate no state: a {!t} must not be queried from two domains at
    once.

    Two consequences of sparse states:
    - a register not live into a block answers [top] there until the
      block defines it, where a dense analysis would answer the join of
      the predecessors. Registers live at the query point (an
      instruction's operands and destination, a returned register)
      answer as before;
    - a block's visit counter, which schedules widening, grows only when
      a register live into the block grows. *)

type interval = int64 * int64

val i32_min : int64
val i32_max : int64
val top : interval
val join : interval -> interval -> interval
val meet : interval -> interval -> interval

val binop_interval : Sxe_ir.Types.binop -> interval -> interval -> interval
(** Abstract transfer of a W32 integer operation (wrap-checked: an
    overflowing bound collapses to [top]). *)

val unop_interval : Sxe_ir.Types.unop -> interval -> interval

type state = int array
(** A dense state, as {!transfer} reads and writes it: the interval of
    register [r] is stored as native ints, [lo] at [2r] and [hi] at
    [2r + 1]. (Block states are compact: the same layout over positions
    in the block's live registers.) *)

val transfer :
  ?call_ranges:(string -> interval option) ->
  tracked:bool array ->
  state ->
  Sxe_ir.Instr.t ->
  unit
(** Apply one instruction to a state in place; only registers marked in
    [tracked] are read or written. Exposed, with {!refine1}, so tests can
    run a reference fixpoint over exactly the same transfer functions. *)

val refine1 : interval -> Sxe_ir.Types.cond -> interval -> interval
(** [refine1 x c y] narrows [x] by the fact [x c y]. *)

type t

val compute : ?call_ranges:(string -> interval option) -> Sxe_ir.Cfg.func -> t
(** [call_ranges] is the interprocedural hook: when it returns a summary
    interval for a callee name, [I32] call results take that interval
    instead of [top] ({!Summary} builds such summaries once per program
    and reuses them across every call site). Omitted, the analysis is
    purely intraprocedural — the behaviour every existing client keeps. *)

val before : t -> bid:int -> iid:int -> Sxe_ir.Instr.reg -> interval
(** Range of a register immediately before instruction [iid] of block
    [bid]; [top] for untracked (non-I32) registers, and for registers
    neither live into the block nor defined by it before [iid]. *)

val after : t -> bid:int -> iid:int -> Sxe_ir.Instr.reg -> interval
(** Range immediately after the instruction. *)

val at_exit : t -> bid:int -> Sxe_ir.Instr.reg -> interval
(** Range at the end of the block, just before the terminator. *)

val within : t -> bid:int -> iid:int -> Sxe_ir.Instr.reg -> lo:int64 -> hi:int64 -> bool
(** Is the register provably within [lo, hi] just before the instruction? *)
