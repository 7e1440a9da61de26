(** Pre-decoded execution engine.

    Flattens each function into arrays of decoded instructions (fields
    pulled out of the IR records, jump targets resolved to flat offsets,
    canonical-mode re-extension and static costs baked in) and executes
    them with a tight program-counter loop over native-int counters.
    Decoded code is cached per function, keyed by the {!Sxe_ir.Cfg}
    generation counter, and per mode.

    Observable behaviour — output, checksum, trap, return value and the
    dynamic counters — is bit-identical to the structural {!Interp}
    engine. [trace]/[watch] hooks are not supported here; {!Interp.run}
    routes runs that use them to the structural engine. See [docs/VM.md]
    for the format and the invalidation rules. *)

exception Trap of string

(** Heap cells, shared with the structural engine. *)
type cell =
  | IArr of { elem : Sxe_ir.Types.aelem; data : int64 array }
  | FArr of float array
  | RArr of int array

type outcome = {
  output : string;
  checksum : int64;
  trap : string option;
  ret : int64 option;
  executed : int64;
  sext32 : int64;
  sext_sub : int64;
  zext32 : int64;
  zext_sub : int64;
  cycles : int64;
}

val max_alloc : int
val max_depth : int

val builtin_names : string list

val elem_load : Sxe_ir.Types.aelem -> Sxe_ir.Types.lext -> int64 -> int64
val elem_store : Sxe_ir.Types.aelem -> int64 -> int64
val checksum_mix : int64 -> int64 -> int64

(** Which fusion rules a decode applies; {!Fuse} re-exports it. *)
type selection = All | Off | Rules of string list

val selection_key : selection -> string

val rule_names : string list
(** The fusion rules of the shape table, in table order. *)

val shape_names : string list
(** The superinstructions, one per row of the shape table, in table
    (opcode id) order. *)

type pfunc
(** A function decoded for one (mode, fusion selection). *)

val fusion_stats : pfunc -> (string * int) list
(** Fused superinstruction groups per rule name, in rule order; empty
    when the image was decoded without fusion. *)

val fused_total : pfunc -> int
(** Total fused groups in the image. *)

val enable_dispatch : Profile.t -> unit
(** Enable dispatch-pair collection on a profile with this engine's
    opcode id space; runs passing that profile then count consecutive
    straight-line opcode pairs. *)

val dispatch_counts : Profile.t -> ((string * string) * int) list
(** The collected histogram as [((first, second), count)], count
    descending (deterministic tie order). *)

val dispatch_ops : Profile.t -> (string * int * int) list
(** Dispatches per opcode as [(name, width, count)], count descending
    (deterministic tie order); [width] is the number of instructions one
    dispatch of the opcode executes (1 for plain opcodes, the constituent
    count for a fused superinstruction). The counts sum to the run's
    dispatches, and [width × count] sums to its [executed] counter unless
    fuel ran out inside a fused group. *)

val disasm : pfunc -> string
(** Flat-code listing, one line per slot: offset, a [B<bid>:] marker on
    block starts, and the opcode name; slots shadowed by a preceding
    fused superinstruction are marked [.]. Debugging and test aid. *)

val decode : ?fuse:selection -> canonical:bool -> Sxe_ir.Cfg.func -> pfunc
(** Decode unconditionally (no cache), applying the selected fusion
    rules (default [Off]). Exposed for tests and benchmarks. *)

val get_decoded : ?fuse:selection -> canonical:bool -> Sxe_ir.Cfg.func -> pfunc
(** Decode through the per-function cache: at most one decode per
    (generation, mode, fusion selection); any mutation through the
    {!Sxe_ir.Cfg} API invalidates every image. *)

val run :
  ?mode:[ `Faithful | `Canonical ] ->
  ?fuel:int64 ->
  ?count_cycles:bool ->
  ?profile:Profile.t ->
  fuse:selection ->
  Sxe_ir.Prog.t ->
  outcome
(** Execute the program's [main]; same contract as {!Interp.run} minus the
    [trace]/[watch] hooks. [fuse] selects which superinstruction-fusion
    rules the decoder applies ({!Interp.run} defaults it to the ambient
    [SXE_FUSE] selection); every selection produces bit-identical
    outcomes, counters included. *)
