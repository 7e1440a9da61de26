(** Pre-decoded execution engine for the 64-bit machine.

    The structural interpreter ({!Interp}) re-traverses the linked CFG on
    every run: each tick pattern-matches a boxed {!Sxe_ir.Instr.op} record,
    chases the block list, consults the mode/trace/watch/profile
    configuration, and pays an [Int64] box per counter bump. This module
    flattens each {!Sxe_ir.Cfg.func} once into arrays of decoded
    instructions — fields pulled out of the [op] records, jump targets
    resolved to flat code offsets, the canonical-mode re-extension decision
    and the static cost-model weights baked in at decode time — and
    executes them with a tight program-counter loop over native-int
    counters.

    Per-run decisions are hoisted out of the per-instruction path:
    - [mode] selects which decoded image to use (the two modes decode to
      different [ext] flags, cached separately);
    - [count_cycles] always accumulates (a native-int add) and the report
      is zeroed afterwards when disabled;
    - [trace]/[watch] are not supported here — {!Interp.run} routes runs
      with hooks to the structural engine;
    - [profile] is consulted only at control-flow ops, never per
      instruction.

    Decoded code is cached on the function itself (the {!Sxe_ir.Cfg}
    [vm_cache] slot) keyed by the function's generation counter, so the
    12-variant evaluation matrix, profile collection and reference runs
    re-decode only after the optimizer actually mutates a function.

    Observable behaviour — output, checksum, trap, return value {e and}
    the [executed]/[sext32]/[sext_sub]/[cycles] counters — is bit-identical
    to the structural engine; the differential-fuzz oracle cross-checks
    the two engines on every generated case. *)

open Sxe_util
open Sxe_ir
open Sxe_ir.Types

exception Trap of string

type cell =
  | IArr of { elem : aelem; data : int64 array }
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

let max_alloc = 1 lsl 26
let max_depth = 2_500

let elem_load elem lext (raw : int64) =
  match (elem, lext) with
  | AI8, LZero -> Eval.zext8 raw
  | AI8, LSign -> Eval.sext8 raw
  | AI16, LZero -> Eval.zext16 raw
  | AI16, LSign -> Eval.sext16 raw
  | AI32, LZero -> Eval.zext32 raw
  | AI32, LSign -> Eval.sext32 raw
  | (AI64 | AF64 | ARef), _ -> raw

let elem_store elem (v : int64) =
  match elem with
  | AI8 -> Eval.zext8 v
  | AI16 -> Eval.zext16 v
  | AI32 -> Eval.zext32 v
  | AI64 | AF64 | ARef -> v

let checksum_mix c v = Int64.add (Int64.mul c 0x100000001b3L) v

(* Allocation-free comparison kit for the fused superinstruction
   handlers. [sx32] sign-extends the low 32 bits of a register into a
   native int: [Int64.to_int] keeps the low 62 bits, then bit 31 is
   shifted onto the native sign bit and back. Comparing two [sx32]
   images is exactly [Int64.compare (Eval.sext32 a) (Eval.sext32 b)] —
   without boxing a single intermediate. *)
let sx32 (v : int64) : int = (Int64.to_int v lsl 31) asr 31

let holds cond c =
  match cond with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let iholds cond (a : int) (b : int) =
  match cond with
  | Eq -> a = b
  | Ne -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b

(* The integer binop kernel shared by every fused const+binop handler
   ([cbin.k] selects the operation, [kw] the shift/div width). Division
   traps exactly where the plain [PDiv]/[PRem] handlers do — the caller
   evaluates at the constituent's own slot, after its tick and charge.
   [zx] is the canonical flag: the canonical machine's 32-bit [LShr]
   zero-extends its left operand internally; the faithful machine shifts
   the full register ({!Eval.binop_faithful}) and relies on an explicit
   [Zext] guard for the canonical result. *)
let[@inline] bin_eval zx k kw lv rv =
  match k with
  | 0 -> Int64.add lv rv
  | 1 -> Int64.sub lv rv
  | 2 -> Int64.mul lv rv
  | 3 -> Int64.logand lv rv
  | 4 -> Int64.logor lv rv
  | 5 -> Int64.logxor lv rv
  | 6 ->
      Int64.shift_left lv
        (Int64.to_int (Int64.logand rv (if kw then 63L else 31L)))
  | 7 ->
      Int64.shift_right lv
        (Int64.to_int (Int64.logand rv (if kw then 63L else 31L)))
  | 8 ->
      let amt = Int64.to_int (Int64.logand rv (if kw then 63L else 31L)) in
      if kw || not zx then Int64.shift_right_logical lv amt
      else Int64.shift_right_logical (Eval.zext32 lv) amt
  | 9 ->
      if if kw then Int64.equal rv 0L else Int64.equal (Eval.low32 rv) 0L then
        raise (Trap "division-by-zero");
      if Int64.equal rv (-1L) then Int64.neg lv else Int64.div lv rv
  | _ ->
      if if kw then Int64.equal rv 0L else Int64.equal (Eval.low32 rv) 0L then
        raise (Trap "division-by-zero");
      if Int64.equal rv (-1L) then 0L else Int64.rem lv rv

let builtin_names =
  [ "print_int"; "print_long"; "print_double"; "checksum"; "checksum_double" ]

(* ------------------------------------------------------------------ *)
(* Decoded instructions                                                *)
(* ------------------------------------------------------------------ *)

(** Shared decoded payloads. Control transfers and array accesses appear
    both as plain opcodes and as constituents of fused superinstructions,
    so their fields live in named records. Where no value is forwarded,
    the plain and the fused handlers run the same helper ([arr_load],
    [arr_store], [jump_to], [branch_to]), so they cannot drift apart. *)
type jm = {
  joff : int;  (** flat target offset; -1 = outside the function *)
  jsrc : int;  (** source bid, for the profile edge *)
  jdst : int;  (** target bid: profile edge + lazy fetch failure *)
}

type br = {
  bcond : cond;
  bw64 : bool;
  bl : int;
  brx : int;
  bso : int;  (** flat offset if taken; -1 = outside the function *)
  bno : int;  (** flat offset if not taken *)
  bsrc : int;
  bsob : int;
  bnob : int;
}

type ald = {
  ldst : int;
  larr : int;
  lidx : int;
  lelem : aelem;
  llext : lext;
  lsx : bool;  (** canonical re-extension of the destination *)
}

type ast = { sarr : int; sidx : int; ssrc : int; selem : aelem }

(** Fused const+binop payload ([k]: 0 Add, 1 Sub, 2 Mul, 3 And, 4 Or,
    5 Xor, 6 Shl, 7 AShr, 8 LShr, 9 Div, 10 Rem — [kw] is the shift/div
    width flag for [k >= 6]); [wd1] elides the constant's register write
    when liveness proved it dead, [c2] is the binop's static cost. Named
    so the chaining pass can embed it in a larger group. *)
type cbin = {
  d1 : int;
  v : int64;
  wd1 : bool;
  k : int;
  kw : bool;
  dst : int;
  l : int;
  r : int;
  ext : bool;
  c2 : int;
}

(** Fused mov+jmp payload; [mw] elides a dead mov. *)
type mvj = {
  mdst : int;
  msrc : int;
  mext : bool;
  mw : bool;
  mc2 : int;
  mj : jm;
}

(** Fused mov+br payload; [vw] elides a dead mov, [vc2] is the branch's
    static cost. *)
type mvb = {
  vdst : int;
  vsrc : int;
  vext : bool;
  vw : bool;
  vc2 : int;
  vb : br;
}

(** Chained const-binop pair with fuse-time operand forwarding. The
    second binop's operand sources [s2l]/[s2r] are resolved when the
    chain is built: 0 = register file, 1 = first binop's result,
    3 = first constant, 4 = second constant (the codes are shared with
    the [sbl]/[sbr]/[smv] fields of the longer chains, where 2 = second
    binop's result and 5 = the mov's value). [xw1]/[xw2] elide result
    writes that liveness proved dead after the whole group. *)
type bb = {
  a : cbin;
  hb : int;
  b2 : cbin;
  s2l : int;
  s2r : int;
  xw1 : bool;
  xw2 : bool;
}

(** One decoded instruction. [ext] marks destinations that the canonical
    "32-bit machine" re-extends ([I32] destination registers); faithful
    decodes always carry [ext = false]. Register fields are plain array
    indices; jump targets are flat code offsets ([-1] for a target outside
    the function, which reproduces the structural engine's fetch failure
    lazily). *)
type pi =
  | PNop  (** [JustExt]: ticks, costs 0, no effect *)
  | PConstI of { dst : int; v : int64 }  (** canonical sext pre-applied *)
  | PConstF of { dst : int; v : float }
  | PMovI of { dst : int; src : int; ext : bool }
  | PMovF of { dst : int; src : int }
  | PNegI of { dst : int; src : int; ext : bool }
  | PNotI of { dst : int; src : int; ext : bool }
  | PAdd of { dst : int; l : int; r : int; ext : bool }
  | PSub of { dst : int; l : int; r : int; ext : bool }
  | PMul of { dst : int; l : int; r : int; ext : bool }
  | PAnd of { dst : int; l : int; r : int; ext : bool }
  | POr of { dst : int; l : int; r : int; ext : bool }
  | PXor of { dst : int; l : int; r : int; ext : bool }
  | PShl of { dst : int; l : int; r : int; w64 : bool; ext : bool }
  | PAShr of { dst : int; l : int; r : int; w64 : bool; ext : bool }
  | PLShr of { dst : int; l : int; r : int; w64 : bool; ext : bool }
  | PDiv of { dst : int; l : int; r : int; w64 : bool; ext : bool }
  | PRem of { dst : int; l : int; r : int; w64 : bool; ext : bool }
  | PCmp of { dst : int; cond : cond; w64 : bool; l : int; r : int }
  | PSext32 of { r : int }
  | PSextSub of { r : int; sh : int }  (** shift-in/out amount: 56, 48 or 0 *)
  | PZext of { r : int; mask : int64; ext : bool }
      (** [ext]: canonical re-extension, as for every I32 definition *)
  | PFAdd of { dst : int; l : int; r : int }
  | PFSub of { dst : int; l : int; r : int }
  | PFMul of { dst : int; l : int; r : int }
  | PFDiv of { dst : int; l : int; r : int }
  | PFNeg of { dst : int; src : int }
  | PFCmp of { dst : int; cond : cond; l : int; r : int }
  | PItoF of { dst : int; src : int }  (** I2D and L2D: full-register convert *)
  | PD2I of { dst : int; src : int }
  | PD2L of { dst : int; src : int; ext : bool }
  | PNewArr of { dst : int; elem : aelem; len : int; ext : bool }
  | PArrLoad of ald
  | PArrStore of ast
  | PArrLen of { dst : int; arr : int }
  | PGLoadF of { dst : int; slot : int }
      (** global symbols are interned to dense process-wide slots at
          decode time; the per-access path is an array index, not a
          string-keyed hash lookup *)
  | PGLoadI32 of { dst : int; slot : int; sign : bool; ext : bool }
  | PGLoadI of { dst : int; slot : int; ext : bool }
  | PGStoreF of { slot : int; src : int }
  | PGStoreI32 of { slot : int; src : int }
  | PGStoreI of { slot : int; src : int }
  | PPrintI of { r : int; post_trap : bool }
      (** [post_trap]: the call named a destination; the builtin's effect
          happens, then ["missing-return"] (structural order) *)
  | PPrintF of { r : int; post_trap : bool }
  | PCheckI of { r : int; post_trap : bool }
  | PCheckF of { r : int; post_trap : bool }
  | PTrapOp of { msg : string }  (** statically-doomed op, e.g. bad builtin arity *)
  | PCallUser of {
      dst : int;
      expect : int;
      ext : bool;
      fn : string;
      fid : int;
      argv : int array;
    }
      (** [argv]/callee params pack [(reg lsl 1) lor is_f64]; [expect]:
          0 = no destination, 1 = int, 2 = float, 3 = always bad-return.
          [fid] is the callee's interned slot ([fslot fn]): per-call
          resolution indexes the run's decoded-image cache directly
          instead of hashing the name *)
  | PJmp of jm
  | PBr of br
  | PRet0
  | PRetI of { r : int }
  | PRetF of { r : int }
  (* Fused superinstructions (see [fuse_code]). Each constructor holds
     the decoded fields of the adjacent pair it replaces; [c2] is the
     second constituent's static cost, captured from the decoder's cost
     table, so the fused handlers tick, check fuel and charge per
     constituent exactly as the plain opcodes do.

     The [w*] flags are liveness facts computed at fuse time: [wdst]
     (resp. [wd1], [wsr]) is false when the intermediate register
     written by that constituent is dead after the group — overwritten
     within it, or not live out of the block — in which case the handler
     skips the write and forwards the value locally. Registers are not
     observable in a precode outcome (no trace/watch here; traps carry no
     register state), so eliding a dead intermediate write is invisible. *)
  | PConstBr of { d1 : int; v : int64; wd1 : bool; c2 : int; b : br }
  | PLoadBr of { ld : ald; wdst : bool; c2 : int; b : br }
  | PMovJmp of mvj
  | PStoreJmp of { s : ast; c2 : int; j : jm }
      (** loop-tail store: no data-dependency condition, the fused pair
          only saves the dispatch between store and jump *)
  | PConstJmp of { dst : int; v : int64; wd1 : bool; c2 : int; j : jm }
  | PSextLoad of { sr : int; wsr : bool; c2 : int; ld : ald }
  | PLoadSext of { ld : ald; c2 : int; xr : int; sh : int }
      (** [sh = -1]: 32-bit re-extension (counts [sext32]); otherwise the
          [SextSub] shift amount (counts [sext_sub]) *)
  | PConstBin of cbin
  | PLoadLoad of { l1 : ald; c2 : int; l2 : ald }
  | PLoadStore of { ld : ald; c2 : int; s : ast }
  | PStoreStore of { s1 : ast; c2 : int; s2 : ast }
  (* Chained superinstructions: a second fusion pass merges a fused
     group with the group (or terminator) that follows it. The embedded
     payloads keep the write-elision flags computed for their original
     positions — a skipped write is dead downstream, so the chained tail
     never reads it; [hb]/[hm]/[cb] is the second group's head cost. *)
  | PBinBin of bb
  | PBinMovJmp of { a : cbin; xw : bool; hm : int; smv : int; m : mvj }
  | PStoreMovJmp of { s : ast; hm : int; m : mvj }
  (* Block-shaped superinstructions: a chained group covering a whole
     hot basic block (Numeric Sort's sift loop), built by iterating the
     chain pass to a fixpoint. Every register read of a value produced
     earlier in the group is forwarded through a local (the [s*]/[z*]
     source codes, resolved at fuse time), so the write flags can be
     computed against liveness at the *end* of the group: a dead
     intermediate never touches the register file at all. The groups
     guarantee (fuse-time guards) that their written registers are
     pairwise distinct, so a float-typed cell at run time — where the
     loaded local keeps the stale integer register, as the structural
     engine would — cannot alias a forwarded integer value. *)
  | PMovBr of mvb
  | PBinBinBr of { bb : bb; cb : int; sbl : int; sbr : int; b : br }
  | PBinBinMovBr of { bb : bb; hm : int; smv : int; m : mvb; sbl : int; sbr : int }
  | PLoadSxLoad of {
      l1 : ald;
      w1 : bool;
      cs : int;  (** the Sext32 constituent's cost *)
      sr : int;
      wsr : bool;
      f1 : bool;  (** the sext reads the first load's value *)
      cl : int;  (** the second load's cost *)
      l2 : ald;  (** [l2.lidx = sr]: indexed by the just-extended value *)
    }
  | PLoadSxLoadBr of {
      l1 : ald;
      w1 : bool;
      cs : int;
      sr : int;
      wsr : bool;
      f1 : bool;
      cl : int;
      l2 : ald;
      w2 : bool;
      cb : int;
      sbl : int;  (** branch sources: 0 reg file, 1 load1, 2 sext, 3 load2 *)
      sbr : int;
      b : br;
    }
  | PSxLoadBin of {
      sr : int;
      wsr : bool;
      cl : int;
      ld : ald;  (** [ld.lidx = sr] *)
      w1 : bool;
      hb : int;
      a : cbin;
      s2l : int;  (** binop sources: 0 reg file, 1 load, 2 sext, 4 const *)
      s2r : int;
      xw : bool;
    }
  | PSxLoadBinLoadBr of {
      sr : int;
      wsr : bool;
      cl : int;
      ld : ald;
      w1 : bool;
      hb : int;
      a : cbin;
      s2l : int;
      s2r : int;
      xw : bool;
      hl : int;
      ld2 : ald;
      w2 : bool;
      si : int;  (** load2's index source: 0 reg file, 1 load1, 2 sext, 3 bin *)
      cb : int;
      sbl : int;  (** branch: 0 reg file, 1 load1, 2 sext, 3 bin, 5 load2 *)
      sbr : int;
      b : br;
    }
  | PLoad2Store2 of {
      l1 : ald;
      w1 : bool;
      c2 : int;
      l2 : ald;
      w2 : bool;
      c3 : int;
      s1 : ast;
      z1 : int;  (** store source: 0 reg file, 1 load1, 2 load2 *)
      zr1 : bool;  (** same element kind: store the raw cell value back *)
      c4 : int;
      s2 : ast;
      z2 : int;
      zr2 : bool;
    }
  | PSwapJmp of {
      l1 : ald;
      w1 : bool;
      c2 : int;
      l2 : ald;
      w2 : bool;
      c3 : int;
      s1 : ast;
      z1 : int;
      zr1 : bool;
      c4 : int;
      s2 : ast;
      z2 : int;
      zr2 : bool;
      hm : int;
      smv : int;  (** mov source: 0 reg file, 1 load1, 2 load2 *)
      m : mvj;
    }
  | PBinSext of { a : cbin; cs : int; xw : bool }
      (** const+binop whose result register is immediately re-extended
          ([Sext32 a.dst]): the pre-extension write is overwritten in the
          same slot, so only the extended value ([xw]) can reach the
          register file *)
  | PBinSextMovJmp of {
      a : cbin;
      cs : int;
      xw : bool;
      hm : int;
      smv : int;  (** mov source: 0 reg file, 1 sext result, 3 const *)
      m : mvj;
    }
  | PSextMovJmp of { xr : int; xw : bool; hm : int; smv : int; m : mvj }
  | PGStoreGLoad of {
      sslot : int;
      src : int;
      c2 : int;
      ldst : int;
      lslot : int;
      lsign : bool;
      lext : bool;
      wl : bool;
    }  (** 32-bit global store followed by a 32-bit global load (the
           seed-update idiom in Numeric Sort's PRNG); executed verbatim *)
  | PGLoadBinBin of {
      gdst : int;
      gslot : int;
      gsign : bool;
      gext : bool;
      wg : bool;
      hb : int;  (** the first const's head cost, charged by the handler *)
      sal : int;  (** bin1 operand sources: 0 reg file, 6 loaded global *)
      sar : int;
      bb : bb;  (** [bb]'s 0-source codes may be upgraded to 6 as well *)
    }

type pfunc = {
  fname : string;
  nregs : int;
  params : int array;  (** packed [(reg lsl 1) lor is_f64], in order *)
  code : pi array;  (** blocks laid out in bid order; empty for 0 blocks *)
  costs : int array;  (** static cycle weight per slot; 0 for [PNewArr] *)
  fstats : (string * int) list;  (** fused groups per rule, rule order *)
  src : Cfg.func;
}

let fusion_stats p = p.fstats
let fused_total p = List.fold_left (fun a (_, n) -> a + n) 0 p.fstats

(* ------------------------------------------------------------------ *)
(* Opcode ids: the dispatch-pair histogram's key space                  *)
(* ------------------------------------------------------------------ *)

(* Small dense ids for every decoded opcode, fused superinstructions
   included. The histogram ([Profile.pairs]) is a flat [nops * nops]
   array indexed by [first * nops + second], the per-opcode dispatch
   counts ([Profile.ops]) an [nops] array; [op_name] is the reporting
   side. Keep [op_id] and the two name tables in sync when adding an
   opcode. *)

let op_id = function
  | PNop -> 0
  | PConstI _ -> 1
  | PConstF _ -> 2
  | PMovI _ -> 3
  | PMovF _ -> 4
  | PNegI _ -> 5
  | PNotI _ -> 6
  | PAdd _ -> 7
  | PSub _ -> 8
  | PMul _ -> 9
  | PAnd _ -> 10
  | POr _ -> 11
  | PXor _ -> 12
  | PShl _ -> 13
  | PAShr _ -> 14
  | PLShr _ -> 15
  | PDiv _ -> 16
  | PRem _ -> 17
  | PCmp _ -> 18
  | PSext32 _ -> 19
  | PSextSub _ -> 20
  | PZext _ -> 21
  | PFAdd _ -> 22
  | PFSub _ -> 23
  | PFMul _ -> 24
  | PFDiv _ -> 25
  | PFNeg _ -> 26
  | PFCmp _ -> 27
  | PItoF _ -> 28
  | PD2I _ -> 29
  | PD2L _ -> 30
  | PNewArr _ -> 31
  | PArrLoad _ -> 32
  | PArrStore _ -> 33
  | PArrLen _ -> 34
  | PGLoadF _ -> 35
  | PGLoadI32 _ -> 36
  | PGLoadI _ -> 37
  | PGStoreF _ -> 38
  | PGStoreI32 _ -> 39
  | PGStoreI _ -> 40
  | PPrintI _ -> 41
  | PPrintF _ -> 42
  | PCheckI _ -> 43
  | PCheckF _ -> 44
  | PTrapOp _ -> 45
  | PCallUser _ -> 46
  | PJmp _ -> 47
  | PBr _ -> 48
  | PRet0 -> 49
  | PRetI _ -> 50
  | PRetF _ -> 51
  | PConstBr _ -> 52
  | PLoadBr _ -> 53
  | PMovJmp _ -> 54
  | PStoreJmp _ -> 55
  | PSextLoad _ -> 56
  | PLoadSext _ -> 57
  | PConstBin _ -> 58
  | PLoadLoad _ -> 59
  | PLoadStore _ -> 60
  | PStoreStore _ -> 61
  | PBinBin _ -> 62
  | PBinMovJmp _ -> 63
  | PStoreMovJmp _ -> 64
  | PMovBr _ -> 65
  | PBinBinBr _ -> 66
  | PBinBinMovBr _ -> 67
  | PLoadSxLoad _ -> 68
  | PLoadSxLoadBr _ -> 69
  | PSxLoadBin _ -> 70
  | PSxLoadBinLoadBr _ -> 71
  | PLoad2Store2 _ -> 72
  | PSwapJmp _ -> 73
  | PBinSext _ -> 74
  | PBinSextMovJmp _ -> 75
  | PSextMovJmp _ -> 76
  | PGStoreGLoad _ -> 77
  | PGLoadBinBin _ -> 78
  | PConstJmp _ -> 79

(* Plain opcodes, ids [0 .. 51]: each covers one flat slot. *)
let plain_names =
  [|
    "Nop"; "ConstI"; "ConstF"; "MovI"; "MovF"; "NegI"; "NotI"; "Add"; "Sub";
    "Mul"; "And"; "Or"; "Xor"; "Shl"; "AShr"; "LShr"; "Div"; "Rem"; "Cmp";
    "Sext32"; "SextSub"; "Zext"; "FAdd"; "FSub"; "FMul"; "FDiv"; "FNeg";
    "FCmp"; "ItoF"; "D2I"; "D2L"; "NewArr"; "ArrLoad"; "ArrStore"; "ArrLen";
    "GLoadF"; "GLoadI32"; "GLoadI"; "GStoreF"; "GStoreI32"; "GStoreI";
    "PrintI"; "PrintF"; "CheckI"; "CheckF"; "TrapOp"; "CallUser"; "Jmp";
    "Br"; "Ret0"; "RetI"; "RetF";
  |]

(* Fused superinstructions, ids from 52 on, with the number of flat
   slots each covers (its constituent count; the handler steps [pc] by
   this much). *)
let fused_ops =
  [|
    ("ConstBr", 2); ("LoadBr", 2); ("MovJmp", 2); ("StoreJmp", 2);
    ("SextLoad", 2); ("LoadSext", 2); ("ConstBin", 2); ("LoadLoad", 2);
    ("LoadStore", 2); ("StoreStore", 2); ("BinBin", 4); ("BinMovJmp", 4);
    ("StoreMovJmp", 3); ("MovBr", 2); ("BinBinBr", 5); ("BinBinMovBr", 6);
    ("LoadSxLoad", 3); ("LoadSxLoadBr", 4); ("SxLoadBin", 4);
    ("SxLoadBinLoadBr", 6); ("Load2Store2", 4); ("SwapJmp", 6);
    ("BinSext", 3); ("BinSextMovJmp", 5); ("SextMovJmp", 3);
    ("GStoreGLoad", 2); ("GLoadBinBin", 5); ("ConstJmp", 2);
  |]

let nplain = Array.length plain_names
let nops = nplain + Array.length fused_ops

let op_name id =
  if id >= 0 && id < nplain then plain_names.(id)
  else if id >= nplain && id < nops then fst fused_ops.(id - nplain)
  else "?"

let op_width id = if id >= nplain && id < nops then snd fused_ops.(id - nplain) else 1

(** How many flat slots a decoded op covers: 1 for plain ops, the
    constituent count for fused superinstructions. *)
let group_width op = op_width (op_id op)

(** Enable dispatch-pair collection on [prof] with this engine's opcode
    id space. *)
let enable_dispatch prof = Profile.enable_pairs prof ~nops

(** The histogram as [((first_name, second_name), count)], count
    descending. Pairs are only recorded for straight-line adjacency
    (control transfers reset the chain), so every reported pair is a
    fusion candidate. *)
let dispatch_counts (prof : Profile.t) : ((string * string) * int) list =
  List.map (fun ((a, b), c) -> ((op_name a, op_name b), c)) (Profile.pair_counts prof)

(** Dispatches per opcode as [(name, width, count)], count descending:
    every dispatch is counted, control transfers included, so the counts
    sum to the run's dispatches and [Σ width × count] to its [executed]
    counter (unless fuel ran out inside a fused group). *)
let dispatch_ops (prof : Profile.t) : (string * int * int) list =
  List.map (fun (id, c) -> (op_name id, op_width id, c)) (Profile.op_counts prof)

(* ------------------------------------------------------------------ *)
(* Superinstruction fusion                                             *)
(* ------------------------------------------------------------------ *)

(* Peephole pass over the freshly laid-out [code]/[costs] arrays: rewrite
   hot adjacent pairs into fused opcodes. The rewrite is in-place and
   head-anchored — slot [i] becomes the fused opcode and
   the constituent slots [i+1 ..] keep their original contents, which
   simply become unreachable (the fused handler jumps past them), so
   every flat jump offset in the function stays valid. A group never
   includes a slot that starts a basic block: block starts are the only
   possible branch targets, so a target can land on a fused head (fine —
   that is where the group's first constituent lives) but never in the
   middle of a group. Constituent costs are taken from the [costs] array
   the decoder just filled from the shared {!Cost} table — the fused
   handlers charge the identical weights in the identical order, so the
   [cycles] counter cannot drift from the structural engine's.

   [la.(k)] is the set of registers live {e after} flat slot [k]
   (terminator slots carry the block's live-out); it decides the [w*]
   dead-intermediate-write flags on the fused records. *)
(* An integer binop's [cbin] encoding ([k], width flag, operands), for
   the const-arith rule; [None] for anything that is not a two-operand
   integer binop. *)
let bin_fields = function
  | PAdd { dst; l; r; ext } -> Some (0, false, dst, l, r, ext)
  | PSub { dst; l; r; ext } -> Some (1, false, dst, l, r, ext)
  | PMul { dst; l; r; ext } -> Some (2, false, dst, l, r, ext)
  | PAnd { dst; l; r; ext } -> Some (3, false, dst, l, r, ext)
  | POr { dst; l; r; ext } -> Some (4, false, dst, l, r, ext)
  | PXor { dst; l; r; ext } -> Some (5, false, dst, l, r, ext)
  | PShl { dst; l; r; w64; ext } -> Some (6, w64, dst, l, r, ext)
  | PAShr { dst; l; r; w64; ext } -> Some (7, w64, dst, l, r, ext)
  | PLShr { dst; l; r; w64; ext } -> Some (8, w64, dst, l, r, ext)
  | PDiv { dst; l; r; w64; ext } -> Some (9, w64, dst, l, r, ext)
  | PRem { dst; l; r; w64; ext } -> Some (10, w64, dst, l, r, ext)
  | _ -> None

(* [bin_fields op] when the binop reads the just-written constant [d1]. *)
let cbin_candidate d1 op =
  match bin_fields op with
  | Some (_, _, _, l, r, _) as s when l = d1 || r = d1 -> s
  | _ -> None

let fuse_code ~(fuse : Fuse.selection) ~(is_start : bool array)
    ~(la : Bitset.t array) (code : pi array) (costs : int array) :
    (string * int) list =
  let n = Array.length code in
  let counts = Hashtbl.create 8 in
  let hit rule =
    Hashtbl.replace counts rule
      (1 + Option.value ~default:0 (Hashtbl.find_opt counts rule))
  in
  let on = Fuse.enables fuse in
  (* a slot may join a group only if it exists and no branch target lands
     on it; the group head itself may be a target (execution starts at
     the first constituent either way) *)
  let free k = k < n && not is_start.(k) in
  let i = ref 0 in
  while !i < n do
    let i1 = !i + 1 in
    let w =
      if not (free i1) then 1
      else
        match (code.(!i), code.(i1)) with
        | PConstI { dst = d1; v }, PBr b
          when on "const-br" && (b.bl = d1 || b.brx = d1) ->
            code.(!i) <-
              PConstBr
                {
                  d1;
                  v;
                  wd1 = Bitset.mem la.(i1) d1;
                  c2 = costs.(i1);
                  b;
                };
            hit "const-br";
            2
        | PConstI { dst = d1; v }, op2
          when on "const-arith" && cbin_candidate d1 op2 <> None -> (
            match cbin_candidate d1 op2 with
            | Some (k, kw, dst, l, r, ext) ->
                code.(!i) <-
                  PConstBin
                    {
                      d1;
                      v;
                      wd1 = d1 <> dst && Bitset.mem la.(i1) d1;
                      k;
                      kw;
                      dst;
                      l;
                      r;
                      ext;
                      c2 = costs.(i1);
                    };
                hit "const-arith";
                2
            | None -> assert false)
        | PArrLoad ld, PBr b
          when on "load-br" && (b.bl = ld.ldst || b.brx = ld.ldst) ->
            code.(!i) <-
              PLoadBr
                { ld; wdst = Bitset.mem la.(i1) ld.ldst; c2 = costs.(i1); b };
            hit "load-br";
            2
        | PArrLoad ld, PSext32 { r }
          when on "load-sext" && r = ld.ldst ->
            code.(!i) <- PLoadSext { ld; c2 = costs.(i1); xr = r; sh = -1 };
            hit "load-sext";
            2
        | PArrLoad ld, PSextSub { r; sh }
          when on "load-sext" && r = ld.ldst ->
            code.(!i) <- PLoadSext { ld; c2 = costs.(i1); xr = r; sh };
            hit "load-sext";
            2
        | PMovI { dst; src; ext }, PJmp j when on "mov-jmp" ->
            code.(!i) <-
              PMovJmp
                {
                  mdst = dst;
                  msrc = src;
                  mext = ext;
                  mw = Bitset.mem la.(i1) dst;
                  mc2 = costs.(i1);
                  mj = j;
                };
            hit "mov-jmp";
            2
        | PMovI { dst; src; ext }, PBr b when on "mov-br" ->
            (* [la.(!i)] (live after the mov) includes the branch's own
               reads, so a mov the branch observes is always written *)
            code.(!i) <-
              PMovBr
                {
                  vdst = dst;
                  vsrc = src;
                  vext = ext;
                  vw = Bitset.mem la.(!i) dst;
                  vc2 = costs.(i1);
                  vb = b;
                };
            hit "mov-br";
            2
        | PArrStore s, PJmp j when on "store-jmp" ->
            code.(!i) <- PStoreJmp { s; c2 = costs.(i1); j };
            hit "store-jmp";
            2
        | PConstI { dst; v }, PJmp j when on "const-jmp" ->
            code.(!i) <-
              PConstJmp
                { dst; v; wd1 = Bitset.mem la.(i1) dst; c2 = costs.(i1); j };
            hit "const-jmp";
            2
        | PGStoreI32 { slot = sslot; src }, PGLoadI32 { dst; slot; sign; ext }
          when on "gstore-gload" ->
            code.(!i) <-
              PGStoreGLoad
                {
                  sslot;
                  src;
                  c2 = costs.(i1);
                  ldst = dst;
                  lslot = slot;
                  lsign = sign;
                  lext = ext;
                  wl = Bitset.mem la.(i1) dst;
                };
            hit "gstore-gload";
            2
        | PSext32 { r }, PArrLoad ld
          when on "sext-load" && ld.lidx = r && ld.larr <> r ->
            (* [larr <> r]: the handler substitutes the extended index
               locally and must not have the array handle alias it *)
            code.(!i) <-
              PSextLoad
                {
                  sr = r;
                  wsr = r <> ld.ldst && Bitset.mem la.(i1) r;
                  c2 = costs.(i1);
                  ld;
                };
            hit "sext-load";
            2
        | PArrLoad l1, PArrLoad l2 when on "load-load" ->
            code.(!i) <- PLoadLoad { l1; c2 = costs.(i1); l2 };
            hit "load-load";
            2
        | PArrLoad ld, PArrStore s when on "load-store" ->
            code.(!i) <- PLoadStore { ld; c2 = costs.(i1); s };
            hit "load-store";
            2
        | PArrStore s1, PArrStore s2 when on "store-store" ->
            code.(!i) <- PStoreStore { s1; c2 = costs.(i1); s2 };
            hit "store-store";
            2
        | _ -> 1
    in
    i := !i + w
  done;
  (* Second pass: chain a fused group with the group (or lone
     terminator) that follows it, iterated to a fixpoint so a whole hot
     basic block can collapse into one superinstruction. In-place and
     head-anchored like the first pass; the second group's head slot
     must not be a branch target (its shadowed op would still execute
     correctly on entry, but fusion never crosses a target by contract).
     The embedded payloads carry their own internal costs; only the
     second head's cost needs capturing here.

     Chaining re-resolves forwarding: every in-group read of an
     in-group-written register gets a fuse-time source code pointing at
     the producing constituent's local, and the write-elision flags are
     recomputed against liveness at the *end* of the merged group
     ([la.(e)]) minus registers some later constituent overwrites — so
     a temporary that only feeds the next instruction never touches the
     register file. *)
  if on "chain" then begin
    let live e q = Bitset.mem la.(e) q in
    (* chained const-binop pair: source codes 0 reg file / 1 bin1 /
       2 bin2 / 3 const1 / 4 const2 (5 = mov value, in the longer
       chains); [ovr] lists registers a tail constituent overwrites *)
    let mk_bb a hb b2 e ovr =
      let later q = List.mem q ovr in
      let src q =
        if q = b2.d1 then 4
        else if q = a.dst then 1
        else if q = a.d1 then 3
        else 0
      in
      {
        a =
          {
            a with
            wd1 =
              a.d1 <> a.dst && a.d1 <> b2.d1 && a.d1 <> b2.dst
              && (not (later a.d1))
              && live e a.d1;
          };
        hb;
        b2 =
          {
            b2 with
            wd1 = b2.d1 <> b2.dst && (not (later b2.d1)) && live e b2.d1;
          };
        s2l = src b2.l;
        s2r = src b2.r;
        xw1 =
          a.dst <> b2.d1 && a.dst <> b2.dst
          && (not (later a.dst))
          && live e a.dst;
        xw2 = (not (later b2.dst)) && live e b2.dst;
      }
    in
    let again = ref true in
    while !again do
      again := false;
      let i = ref 0 in
      while !i < n do
        let w1 = group_width code.(!i) in
        let ih2 = !i + w1 in
        let w =
          if not (free ih2) then w1
          else
            match (code.(!i), code.(ih2)) with
            | PConstBin a, PConstBin b2 ->
                code.(!i) <- PBinBin (mk_bb a costs.(ih2) b2 (ih2 + 1) []);
                hit "chain";
                4
            | PConstBin a, PMovJmp m ->
                let e = ih2 + 1 in
                code.(!i) <-
                  PBinMovJmp
                    {
                      a =
                        {
                          a with
                          wd1 =
                            a.d1 <> a.dst && a.d1 <> m.mdst && live e a.d1;
                        };
                      xw = a.dst <> m.mdst && live e a.dst;
                      hm = costs.(ih2);
                      smv =
                        (if m.msrc = a.dst then 1
                         else if m.msrc = a.d1 then 3
                         else 0);
                      m = { m with mw = live e m.mdst };
                    };
                hit "chain";
                4
            | PArrStore s, PMovJmp m ->
                code.(!i) <- PStoreMovJmp { s; hm = costs.(ih2); m };
                hit "chain";
                3
            | PBinBin bb0, PBr b ->
                let e = ih2 in
                let a = bb0.a and b2 = bb0.b2 in
                let sb q =
                  if q = b2.dst then 2
                  else if q = b2.d1 then 4
                  else if q = a.dst then 1
                  else if q = a.d1 then 3
                  else 0
                in
                code.(!i) <-
                  PBinBinBr
                    {
                      bb = mk_bb a bb0.hb b2 e [];
                      cb = costs.(ih2);
                      sbl = sb b.bl;
                      sbr = sb b.brx;
                      b;
                    };
                hit "chain";
                5
            | PBinBin bb0, PMovBr m ->
                let e = ih2 + 1 in
                let a = bb0.a and b2 = bb0.b2 in
                let smv_of q =
                  if q = b2.dst then 2
                  else if q = b2.d1 then 4
                  else if q = a.dst then 1
                  else if q = a.d1 then 3
                  else 0
                in
                let sb q = if q = m.vdst then 5 else smv_of q in
                code.(!i) <-
                  PBinBinMovBr
                    {
                      bb = mk_bb a bb0.hb b2 e [ m.vdst ];
                      hm = costs.(ih2);
                      smv = smv_of m.vsrc;
                      m = { m with vw = live e m.vdst };
                      sbl = sb m.vb.bl;
                      sbr = sb m.vb.brx;
                    };
                hit "chain";
                6
            | PArrLoad l1, PSextLoad sx
              when sx.sr <> sx.ld.ldst && l1.ldst <> sx.ld.ldst
                   && sx.ld.larr <> l1.ldst ->
                let e = ih2 + 1 in
                code.(!i) <-
                  PLoadSxLoad
                    {
                      l1;
                      w1 = l1.ldst <> sx.sr && live e l1.ldst;
                      cs = costs.(ih2);
                      sr = sx.sr;
                      wsr = live e sx.sr;
                      f1 = sx.sr = l1.ldst;
                      cl = sx.c2;
                      l2 = sx.ld;
                    };
                hit "chain";
                3
            | PLoadSxLoad z, PBr b when z.l1.ldst <> z.l2.ldst ->
                let e = ih2 in
                let sb q =
                  if q = z.l2.ldst then 3
                  else if q = z.sr then 2
                  else if q = z.l1.ldst then 1
                  else 0
                in
                code.(!i) <-
                  PLoadSxLoadBr
                    {
                      l1 = z.l1;
                      w1 = z.l1.ldst <> z.sr && live e z.l1.ldst;
                      cs = z.cs;
                      sr = z.sr;
                      wsr = live e z.sr;
                      f1 = z.f1;
                      cl = z.cl;
                      l2 = z.l2;
                      w2 = live e z.l2.ldst;
                      cb = costs.(ih2);
                      sbl = sb b.bl;
                      sbr = sb b.brx;
                      b;
                    };
                hit "chain";
                4
            | PSextLoad sx, PConstBin cb when sx.sr <> sx.ld.ldst ->
                let e = ih2 + 1 in
                let src q =
                  if q = cb.d1 then 4
                  else if q = sx.ld.ldst then 1
                  else if q = sx.sr then 2
                  else 0
                in
                code.(!i) <-
                  PSxLoadBin
                    {
                      sr = sx.sr;
                      wsr =
                        sx.sr <> cb.d1 && sx.sr <> cb.dst && live e sx.sr;
                      cl = sx.c2;
                      ld = sx.ld;
                      w1 =
                        sx.ld.ldst <> cb.d1 && sx.ld.ldst <> cb.dst
                        && live e sx.ld.ldst;
                      hb = costs.(ih2);
                      a = { cb with wd1 = cb.d1 <> cb.dst && live e cb.d1 };
                      s2l = src cb.l;
                      s2r = src cb.r;
                      xw = live e cb.dst;
                    };
                hit "chain";
                4
            | PSxLoadBin y, PLoadBr lb
              when lb.ld.ldst <> y.sr && lb.ld.ldst <> y.ld.ldst
                   && lb.ld.ldst <> y.a.d1 && lb.ld.ldst <> y.a.dst
                   && lb.ld.larr <> y.sr && lb.ld.larr <> y.ld.ldst
                   && lb.ld.larr <> y.a.d1 && lb.ld.larr <> y.a.dst ->
                let e = ih2 + 1 in
                let src q =
                  if q = y.a.dst then 3
                  else if q = y.a.d1 then 4
                  else if q = y.ld.ldst then 1
                  else if q = y.sr then 2
                  else 0
                in
                let sb q = if q = lb.ld.ldst then 5 else src q in
                code.(!i) <-
                  PSxLoadBinLoadBr
                    {
                      sr = y.sr;
                      wsr =
                        y.sr <> y.a.d1 && y.sr <> y.a.dst && live e y.sr;
                      cl = y.cl;
                      ld = y.ld;
                      w1 =
                        y.ld.ldst <> y.a.d1 && y.ld.ldst <> y.a.dst
                        && live e y.ld.ldst;
                      hb = y.hb;
                      a = { y.a with wd1 = y.a.d1 <> y.a.dst && live e y.a.d1 };
                      s2l = y.s2l;
                      s2r = y.s2r;
                      xw = live e y.a.dst;
                      hl = costs.(ih2);
                      ld2 = lb.ld;
                      w2 = live e lb.ld.ldst;
                      si = src lb.ld.lidx;
                      cb = lb.c2;
                      sbl = sb lb.b.bl;
                      sbr = sb lb.b.brx;
                      b = lb.b;
                    };
                hit "chain";
                6
            | PLoadLoad ll, PStoreStore ss when ll.l1.ldst <> ll.l2.ldst ->
                let e = ih2 + 1 in
                let d1 = ll.l1.ldst and d2 = ll.l2.ldst in
                let unf1 =
                  d1 = ll.l2.larr || d1 = ll.l2.lidx || d1 = ss.s1.sarr
                  || d1 = ss.s1.sidx || d1 = ss.s2.sarr || d1 = ss.s2.sidx
                in
                let unf2 =
                  d2 = ss.s1.sarr || d2 = ss.s1.sidx || d2 = ss.s2.sarr
                  || d2 = ss.s2.sidx
                in
                let zc q = if q = d2 then 2 else if q = d1 then 1 else 0 in
                let zr (s : ast) z =
                  (z = 1 && s.selem = ll.l1.lelem)
                  || (z = 2 && s.selem = ll.l2.lelem)
                in
                let z1 = zc ss.s1.ssrc and z2 = zc ss.s2.ssrc in
                code.(!i) <-
                  PLoad2Store2
                    {
                      l1 = ll.l1;
                      w1 = unf1 || live e d1;
                      c2 = ll.c2;
                      l2 = ll.l2;
                      w2 = unf2 || live e d2;
                      c3 = costs.(ih2);
                      s1 = ss.s1;
                      z1;
                      zr1 = zr ss.s1 z1;
                      c4 = ss.c2;
                      s2 = ss.s2;
                      z2;
                      zr2 = zr ss.s2 z2;
                    };
                hit "chain";
                4
            | PLoad2Store2 t, PMovJmp m ->
                let e = ih2 + 1 in
                let d1 = t.l1.ldst and d2 = t.l2.ldst in
                let unf1 =
                  d1 = t.l2.larr || d1 = t.l2.lidx || d1 = t.s1.sarr
                  || d1 = t.s1.sidx || d1 = t.s2.sarr || d1 = t.s2.sidx
                in
                let unf2 =
                  d2 = t.s1.sarr || d2 = t.s1.sidx || d2 = t.s2.sarr
                  || d2 = t.s2.sidx
                in
                code.(!i) <-
                  PSwapJmp
                    {
                      l1 = t.l1;
                      w1 = unf1 || (d1 <> m.mdst && live e d1);
                      c2 = t.c2;
                      l2 = t.l2;
                      w2 = unf2 || (d2 <> m.mdst && live e d2);
                      c3 = t.c3;
                      s1 = t.s1;
                      z1 = t.z1;
                      zr1 = t.zr1;
                      c4 = t.c4;
                      s2 = t.s2;
                      z2 = t.z2;
                      zr2 = t.zr2;
                      hm = costs.(ih2);
                      smv =
                        (if m.msrc = d2 then 2
                         else if m.msrc = d1 then 1
                         else 0);
                      m = { m with mw = live e m.mdst };
                    };
                hit "chain";
                6
            | PConstBin a, PSext32 { r } when r = a.dst ->
                code.(!i) <-
                  PBinSext
                    {
                      a = { a with wd1 = a.d1 <> a.dst && live ih2 a.d1 };
                      cs = costs.(ih2);
                      xw = live ih2 a.dst;
                    };
                hit "chain";
                3
            | PBinSext { a; cs; xw = _ }, PMovJmp m ->
                let e = ih2 + 1 in
                code.(!i) <-
                  PBinSextMovJmp
                    {
                      a =
                        {
                          a with
                          wd1 =
                            a.d1 <> a.dst && a.d1 <> m.mdst && live e a.d1;
                        };
                      cs;
                      xw = a.dst <> m.mdst && live e a.dst;
                      hm = costs.(ih2);
                      smv =
                        (if m.msrc = a.dst then 1
                         else if m.msrc = a.d1 then 3
                         else 0);
                      m = { m with mw = live e m.mdst };
                    };
                hit "chain";
                5
            | PSext32 { r }, PMovJmp m ->
                let e = ih2 + 1 in
                code.(!i) <-
                  PSextMovJmp
                    {
                      xr = r;
                      xw = r <> m.mdst && live e r;
                      hm = costs.(ih2);
                      smv = (if m.msrc = r then 1 else 0);
                      m = { m with mw = live e m.mdst };
                    };
                hit "chain";
                3
            | PGLoadI32 { dst = gdst; slot; sign; ext }, PBinBin bb ->
                let e = ih2 + 3 in
                let a = bb.a and b2 = bb.b2 in
                let up c q = if c = 0 && q = gdst then 6 else c in
                code.(!i) <-
                  PGLoadBinBin
                    {
                      gdst;
                      gslot = slot;
                      gsign = sign;
                      gext = ext;
                      wg =
                        gdst <> a.d1 && gdst <> a.dst && gdst <> b2.d1
                        && gdst <> b2.dst && live e gdst;
                      hb = costs.(ih2);
                      sal = (if a.l = gdst then 6 else 0);
                      sar = (if a.r = gdst then 6 else 0);
                      bb = { bb with s2l = up bb.s2l b2.l; s2r = up bb.s2r b2.r };
                    };
                hit "chain";
                5
            | _ -> w1
        in
        if w <> w1 then again := true;
        i := !i + w
      done
    done
  end;
  List.filter_map
    (fun rule ->
      match Hashtbl.find_opt counts rule with
      | Some c -> Some (rule, c)
      | None -> None)
    Fuse.rule_names

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

(* Global-variable symbol interning: append-only, process-wide,
   mutex-guarded. Only decode touches it (cold path); the execution
   state sizes its dense slot arrays from [gslot_count] and the hot
   global-access handlers index those directly. Slot numbers can vary
   with decode order across processes/domains — they are never
   observable in an outcome. *)
let gslot_mu = Mutex.create ()
let gslot_tbl : (string, int) Hashtbl.t = Hashtbl.create 32
let gslot_n = ref 0

let gslot sym =
  Mutex.lock gslot_mu;
  let s =
    match Hashtbl.find_opt gslot_tbl sym with
    | Some s -> s
    | None ->
        let s = !gslot_n in
        incr gslot_n;
        Hashtbl.add gslot_tbl sym s;
        s
  in
  Mutex.unlock gslot_mu;
  s

let gslot_count () =
  Mutex.lock gslot_mu;
  let n = !gslot_n in
  Mutex.unlock gslot_mu;
  n

(* Function names get the same treatment: [PCallUser] carries the
   callee's slot, and each run caches decoded images in a dense array
   indexed by it — call resolution is an array read, not a string hash,
   on the path of every user call. *)
let fslot_mu = Mutex.create ()
let fslot_tbl : (string, int) Hashtbl.t = Hashtbl.create 32
let fslot_n = ref 0

let fslot fn =
  Mutex.lock fslot_mu;
  let s =
    match Hashtbl.find_opt fslot_tbl fn with
    | Some s -> s
    | None ->
        let s = !fslot_n in
        incr fslot_n;
        Hashtbl.add fslot_tbl fn s;
        s
  in
  Mutex.unlock fslot_mu;
  s

let fslot_count () =
  Mutex.lock fslot_mu;
  let n = !fslot_n in
  Mutex.unlock fslot_mu;
  n

let pack_reg (r, ty) = (r lsl 1) lor (match ty with F64 -> 1 | _ -> 0)

let decode ?(fuse = Fuse.Off) ~(canonical : bool) (f : Cfg.func) : pfunc =
  let nregs = Cfg.num_regs f in
  (* the canonical machine re-extends I32 destinations ([Interp]'s
     [set_i]); out-of-range destinations keep [ext = false] so the
     register write itself raises, as the faithful structural engine
     does on malformed IR *)
  let ext dst = canonical && dst >= 0 && dst < nregs && Cfg.reg_ty f dst = I32 in
  let decode_op (op : Instr.op) : pi =
    match op with
    | Instr.Const { dst; ty; v } -> (
        match ty with
        | F64 -> PConstF { dst; v = Int64.float_of_bits v }
        | _ -> PConstI { dst; v = (if ext dst then Eval.sext32 v else v) })
    | Instr.FConst { dst; v } -> PConstF { dst; v }
    | Instr.Mov { dst; src; ty } -> (
        match ty with
        | F64 -> PMovF { dst; src }
        | _ -> PMovI { dst; src; ext = ext dst })
    | Instr.Unop { dst; op; src; w = _ } -> (
        match op with
        | Neg -> PNegI { dst; src; ext = ext dst }
        | Not -> PNotI { dst; src; ext = ext dst })
    | Instr.Binop { dst; op; l; r; w } -> (
        let e = ext dst and w64 = w = W64 in
        match op with
        | Add -> PAdd { dst; l; r; ext = e }
        | Sub -> PSub { dst; l; r; ext = e }
        | Mul -> PMul { dst; l; r; ext = e }
        | And -> PAnd { dst; l; r; ext = e }
        | Or -> POr { dst; l; r; ext = e }
        | Xor -> PXor { dst; l; r; ext = e }
        | Shl -> PShl { dst; l; r; w64; ext = e }
        | AShr -> PAShr { dst; l; r; w64; ext = e }
        | LShr -> PLShr { dst; l; r; w64; ext = e }
        | Div -> PDiv { dst; l; r; w64; ext = e }
        | Rem -> PRem { dst; l; r; w64; ext = e })
    | Instr.Cmp { dst; cond; l; r; w } ->
        (* 0/1 results are their own sign extension: no [ext] needed *)
        PCmp { dst; cond; w64 = w = W64; l; r }
    | Instr.Sext { r; from } -> (
        match from with
        | W32 -> PSext32 { r }
        | W8 -> PSextSub { r; sh = 56 }
        | W16 -> PSextSub { r; sh = 48 }
        | W64 -> PSextSub { r; sh = 0 })
    | Instr.Zext { r; from } ->
        PZext
          {
            r;
            mask =
              (match from with
              | W8 -> 0xFFL
              | W16 -> 0xFFFFL
              | W32 -> 0xFFFF_FFFFL
              | W64 -> -1L);
            ext = ext r;
          }
    | Instr.JustExt _ -> PNop
    | Instr.FBinop { dst; op; l; r } -> (
        match op with
        | FAdd -> PFAdd { dst; l; r }
        | FSub -> PFSub { dst; l; r }
        | FMul -> PFMul { dst; l; r }
        | FDiv -> PFDiv { dst; l; r })
    | Instr.FNeg { dst; src } -> PFNeg { dst; src }
    | Instr.FCmp { dst; cond; l; r } -> PFCmp { dst; cond; l; r }
    | Instr.I2D { dst; src } | Instr.L2D { dst; src } -> PItoF { dst; src }
    | Instr.D2I { dst; src } ->
        (* saturated to int32: arrives sign-extended, no [ext] needed *)
        PD2I { dst; src }
    | Instr.D2L { dst; src } -> PD2L { dst; src; ext = ext dst }
    | Instr.NewArr { dst; elem; len } -> PNewArr { dst; elem; len; ext = ext dst }
    | Instr.ArrLoad { dst; arr; idx; elem; lext } ->
        PArrLoad
          { ldst = dst; larr = arr; lidx = idx; lelem = elem; llext = lext; lsx = ext dst }
    | Instr.ArrStore { arr; idx; src; elem } ->
        PArrStore { sarr = arr; sidx = idx; ssrc = src; selem = elem }
    | Instr.ArrLen { dst; arr } ->
        (* length is in [0, 2^31-1]: already extended *)
        PArrLen { dst; arr }
    | Instr.GLoad { dst; sym; ty; lext } -> (
        let slot = gslot sym in
        match ty with
        | F64 -> PGLoadF { dst; slot }
        | I32 -> PGLoadI32 { dst; slot; sign = lext = LSign; ext = ext dst }
        | _ -> PGLoadI { dst; slot; ext = ext dst })
    | Instr.GStore { sym; src; ty } -> (
        let slot = gslot sym in
        match ty with
        | F64 -> PGStoreF { slot; src }
        | I32 -> PGStoreI32 { slot; src }
        | _ -> PGStoreI { slot; src })
    | Instr.Call { dst; fn; args; ret } ->
        if List.mem fn builtin_names then begin
          (* builtins shadow user functions; arity and argument kinds are
             static, so the mismatch trap is decided here and the op only
             performs (or refuses) the effect at run time *)
          let post_trap = dst <> None in
          match (fn, args) with
          | ("print_int" | "print_long"), [ (r, (I32 | I64 | Ref)) ] ->
              PPrintI { r; post_trap }
          | "print_double", [ (r, F64) ] -> PPrintF { r; post_trap }
          | "checksum", [ (r, (I32 | I64 | Ref)) ] -> PCheckI { r; post_trap }
          | "checksum_double", [ (r, F64) ] -> PCheckF { r; post_trap }
          | _ -> PTrapOp { msg = "bad-builtin-arity" }
        end
        else
          let argv = Array.of_list (List.map pack_reg args) in
          let dst_i, expect, e =
            match (dst, ret) with
            | None, _ -> (-1, 0, false)
            | Some d, Some F64 -> (d, 2, false)
            | Some d, Some (I32 | I64 | Ref) -> (d, 1, ext d)
            | Some d, None -> (d, 3, false)
          in
          PCallUser { dst = dst_i; expect; ext = e; fn; fid = fslot fn; argv }
  in
  let nb = Cfg.num_blocks f in
  let bodies = Array.init nb (fun bid -> Cfg.body (Cfg.block f bid)) in
  let terms = Array.init nb (fun bid -> Cfg.term (Cfg.block f bid)) in
  let block_start = Array.make (max nb 1) 0 in
  let total = ref 0 in
  for bid = 0 to nb - 1 do
    block_start.(bid) <- !total;
    total := !total + List.length bodies.(bid) + 1
  done;
  let code = Array.make !total PNop in
  let costs = Array.make !total 0 in
  (* a target outside the function decodes to offset -1: the jump executes
     normally (tick, charge, profile) and the *fetch* of the missing block
     reproduces the structural engine's failure *)
  let target l = if l >= 0 && l < nb then block_start.(l) else -1 in
  let pos = ref 0 in
  let emit op cost =
    code.(!pos) <- op;
    costs.(!pos) <- cost;
    incr pos
  in
  for bid = 0 to nb - 1 do
    List.iter
      (fun (i : Instr.t) ->
        let cost =
          match i.Instr.op with
          | Instr.NewArr _ -> 0 (* dynamic: charged by the handler *)
          | op -> Cost.of_op op ~alloc_len:0L
        in
        emit (decode_op i.Instr.op) cost)
      bodies.(bid);
    let t = terms.(bid) in
    let tc = Cost.of_term t in
    match t with
    | Instr.Jmp l -> emit (PJmp { joff = target l; jsrc = bid; jdst = l }) tc
    | Instr.Br { cond; l; r; w; ifso; ifnot } ->
        emit
          (PBr
             {
               bcond = cond;
               bw64 = w = W64;
               bl = l;
               brx = r;
               bso = target ifso;
               bno = target ifnot;
               bsrc = bid;
               bsob = ifso;
               bnob = ifnot;
             })
          tc
    | Instr.Ret None -> emit PRet0 tc
    | Instr.Ret (Some (r, ty)) ->
        emit (match ty with F64 -> PRetF { r } | _ -> PRetI { r }) tc
  done;
  let fstats =
    if fuse = Fuse.Off then []
    else begin
      let is_start = Array.make (max !total 1) false in
      for bid = 0 to nb - 1 do
        is_start.(block_start.(bid)) <- true
      done;
      (* per-slot live-after sets, aligned with the flat layout: body
         slots from the block's per-instruction liveness (program
         order), the terminator slot from the block's live-out — the
         fuser's dead-intermediate-write elision reads these *)
      let live = Sxe_analysis.Liveness.compute f in
      let la = Array.make (max !total 1) (Bitset.create 0) in
      for bid = 0 to nb - 1 do
        let s = ref block_start.(bid) in
        List.iter
          (fun (_, set) ->
            la.(!s) <- set;
            incr s)
          (Sxe_analysis.Liveness.live_after_each live bid);
        la.(!s) <- Sxe_analysis.Liveness.live_out live bid
      done;
      fuse_code ~fuse ~is_start ~la code costs
    end
  in
  {
    fname = f.Cfg.name;
    nregs;
    params = Array.of_list (List.map pack_reg f.Cfg.params);
    code;
    costs;
    fstats;
    src = f;
  }

(** Flat-code listing, one line per slot: offset, a [B<bid>:] marker on
    block starts, and the opcode name. Slots shadowed by a preceding
    fused group are marked [.] — they keep their original ops (they stay
    valid jump-entry points) but a straight-line walk never dispatches
    them. Debugging and test aid for the fusion pass. *)
let disasm (p : pfunc) : string =
  let nb = Cfg.num_blocks p.src in
  let starts = Hashtbl.create 16 in
  let pos = ref 0 in
  for bid = 0 to nb - 1 do
    Hashtbl.replace starts !pos bid;
    pos := !pos + List.length (Cfg.body (Cfg.block p.src bid)) + 1
  done;
  let b = Buffer.create 256 in
  let shadow = ref 0 in
  Array.iteri
    (fun k op ->
      let mark =
        match Hashtbl.find_opt starts k with
        | Some bid -> Printf.sprintf "B%d:" bid
        | None -> ""
      in
      let shad =
        if !shadow > 0 then (
          decr shadow;
          ".")
        else (
          shadow := group_width op - 1;
          " ")
      in
      Buffer.add_string b
        (Printf.sprintf "%4d %-5s %s %s\n" k mark shad (op_name (op_id op))))
    p.code;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* The per-function decode cache                                       *)
(* ------------------------------------------------------------------ *)

(** Cached decoded images, one per (mode, fusion selection) — a tiny
    association list: a process rarely uses more than faithful/canonical
    times fused/unfused. Keyed by the function's generation counter, so
    any mutation through the {!Cfg} API drops every image; keyed by the
    fusion selection, so changing [SXE_FUSE] (or an explicit [~fuse])
    between runs can never serve a stale image. *)
type entry = {
  mutable eversion : int;
  mutable images : ((bool * string) * pfunc) list;
}

type Cfg.vm_cache += Cached of entry

let get_decoded ?(fuse = Fuse.Off) ~canonical (f : Cfg.func) : pfunc =
  let e =
    match f.Cfg.vm_cache with
    | Some (Cached e) ->
        let v = Cfg.version f in
        if e.eversion <> v then begin
          e.eversion <- v;
          e.images <- []
        end;
        e
    | _ ->
        let e = { eversion = Cfg.version f; images = [] } in
        f.Cfg.vm_cache <- Some (Cached e);
        e
  in
  let key = (canonical, Fuse.key fuse) in
  match List.assoc_opt key e.images with
  | Some p -> p
  | None ->
      let p = decode ~fuse ~canonical f in
      e.images <- (key, p) :: e.images;
      p

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

type state = {
  prog : Prog.t;
  canonical : bool;
  fuse : Fuse.selection;
  mutable depth : int;
  heap : cell option Vec.t;
  mutable gvi : int64 array;  (** dense global stores, indexed by [gslot] *)
  mutable gvf : float array;
  fpool_i : int64 array array;
      (** per-depth register-frame pool: calls at the same depth never
          overlap, so each depth reuses one frame (re-zeroed on entry)
          instead of allocating per call *)
  fpool_f : float array array;
  buf : Buffer.t;
  mutable checksum : int64;
  mutable executed : int;  (** native ints: no box per tick *)
  mutable sext32 : int;
  mutable sext_sub : int;
  mutable zext32 : int;
  mutable zext_sub : int;
  mutable cycles : int;
  fuel : int;
  profile : Profile.t option;
  mutable fcache : pfunc option array;
      (** per-run resolution cache, indexed by [fslot] id *)
  mutable ret_kind : int;  (** callee result: 0 none, 1 int, 2 float *)
  mutable ret_i : int64;
  mutable ret_f : float;
}

let resolve_slow st fn fid =
  (* [find_func] raises [Invalid_argument] for a missing function,
     which escapes the run as a crash — same as the structural engine *)
  let p =
    get_decoded ~fuse:st.fuse ~canonical:st.canonical (Prog.find_func st.prog fn)
  in
  if fid >= Array.length st.fcache then begin
    let ng = Array.make (max (fid + 1) ((2 * Array.length st.fcache) + 4)) None in
    Array.blit st.fcache 0 ng 0 (Array.length st.fcache);
    st.fcache <- ng
  end;
  st.fcache.(fid) <- Some p;
  p

let[@inline] resolve st fn fid =
  let fc = st.fcache in
  if fid < Array.length fc then
    match Array.unsafe_get fc fid with
    | Some p -> p
    | None -> resolve_slow st fn fid
  else resolve_slow st fn fid

(* Every array access funnels through here; the fast path is one range
   test and an unchecked fetch. The slow path reproduces the original
   checks in their original order (null first, then [Vec.get]'s own
   bounds error for a non-handle value). *)
let arr_cell_slow st h i =
  if Int64.equal h 0L then raise (Trap "null-pointer")
  else begin
    ignore (Vec.get st.heap i);
    raise (Trap "bad-handle")
  end

let[@inline] arr_cell st h =
  let hp = st.heap in
  let i = Int64.to_int h - 1 in
  if i >= 0 && i < Vec.length hp then
    match Vec.unsafe_get hp i with
    | Some c -> c
    | None -> raise (Trap "bad-handle")
  else arr_cell_slow st h i

let[@inline] cell_len = function
  | IArr { data; _ } -> Array.length data
  | FArr d -> Array.length d
  | RArr d -> Array.length d

(* bounds check on the sign-extended low 32 bits (IA64 cmp4), then the
   effective address consumes the full register. Native-int throughout —
   this is on the path of every array access and must not box: [i32] is
   the register's sext32 image; the register equals that image iff its
   bits 32..62 replicate bit 31 ([Int64.to_int] round-trips) {e and}
   bit 63 agrees with bit 31 (the signs match). *)
let[@inline] checked_index st idx_full len =
  let i32 = sx32 idx_full in
  if i32 < 0 || i32 >= len then raise (Trap "array-index-out-of-bounds");
  if
    st.canonical
    || (Int64.to_int idx_full = i32 && Int64.compare idx_full 0L < 0 = (i32 < 0))
  then i32
  else raise (Trap "wild-access")

(* Global slot arrays grow on first store to a fresh slot; a load from a
   slot the store array hasn't reached yet is a read of a never-written
   global, i.e. the zero default — same semantics the hash tables gave. *)
let gstore_i st slot v =
  let g = st.gvi in
  if slot < Array.length g then g.(slot) <- v
  else begin
    let ng = Array.make (max (slot + 1) ((2 * Array.length g) + 4)) 0L in
    Array.blit g 0 ng 0 (Array.length g);
    st.gvi <- ng;
    ng.(slot) <- v
  end

let gstore_f st slot v =
  let g = st.gvf in
  if slot < Array.length g then g.(slot) <- v
  else begin
    let ng = Array.make (max (slot + 1) ((2 * Array.length g) + 4)) 0.0 in
    Array.blit g 0 ng 0 (Array.length g);
    st.gvf <- ng;
    ng.(slot) <- v
  end

let out st s =
  Buffer.add_string st.buf s;
  Buffer.add_char st.buf '\n'

(* The effects shared by the plain opcodes and the fused handlers: an
   array load into its destination register, an array store, and the
   control transfers. A transfer records its profile edge and returns
   the target's flat offset; a target outside the function (offset -1)
   then fails fetching the missing block, as in the structural
   engine. *)
let[@inline] arr_load st ri rf (ld : ald) =
  let cell = arr_cell st ri.(ld.larr) in
  let k = checked_index st ri.(ld.lidx) (cell_len cell) in
  match cell with
  | IArr { data; _ } ->
      let v = elem_load ld.lelem ld.llext data.(k) in
      ri.(ld.ldst) <- (if ld.lsx then Eval.sext32 v else v)
  | FArr d -> rf.(ld.ldst) <- d.(k)
  | RArr d ->
      let v = Int64.of_int d.(k) in
      ri.(ld.ldst) <- (if ld.lsx then Eval.sext32 v else v)

let[@inline] arr_store st ri rf (s : ast) =
  let cell = arr_cell st ri.(s.sarr) in
  let k = checked_index st ri.(s.sidx) (cell_len cell) in
  match cell with
  | IArr { data; _ } -> data.(k) <- elem_store s.selem ri.(s.ssrc)
  | FArr d -> d.(k) <- rf.(s.ssrc)
  | RArr d -> d.(k) <- Int64.to_int ri.(s.ssrc)

(* [lv]/[rv] are the branch operands' full register values *)
let[@inline] br_holds (b : br) lv rv =
  if b.bw64 then holds b.bcond (Int64.compare lv rv)
  else iholds b.bcond (sx32 lv) (sx32 rv)

let[@inline] jump_to st p (j : jm) =
  (match st.profile with
  | Some prof -> Profile.record prof p.fname ~src:j.jsrc ~dst:j.jdst
  | None -> ());
  if j.joff < 0 then begin
    ignore (Cfg.block p.src j.jdst);
    assert false
  end;
  j.joff

let[@inline] branch_to st p (b : br) taken =
  let t_bid = if taken then b.bsob else b.bnob in
  (match st.profile with
  | Some prof -> Profile.record prof p.fname ~src:b.bsrc ~dst:t_bid
  | None -> ());
  let t_off = if taken then b.bso else b.bno in
  if t_off < 0 then begin
    ignore (Cfg.block p.src t_bid);
    assert false
  end;
  t_off

let rec exec (st : state) (p : pfunc) (ri : int64 array) (rf : float array) : unit =
  let code = p.code and costs = p.costs in
  if Array.length code = 0 then
    (* a function with no blocks: the structural engine fails fetching
       block 0; reproduce its exact exception *)
    ignore (Cfg.block p.src 0);
  let fuel = st.fuel in
  (* dispatch counting: off in normal runs ([pairs_nops = 0], one
     predictable branch per dispatch); when a profile with pairs enabled
     is attached, every dispatch is counted per opcode id and
     consecutive straight-line opcode ids per pair *)
  let pairs, ops, pairs_nops =
    match st.profile with
    | Some pr when Profile.pairs_enabled pr ->
        (pr.Profile.pairs, pr.Profile.ops, pr.Profile.pairs_nops)
    | _ -> ([||], [||], 0)
  in
  let prev = ref (-1) in
  let pc = ref 0 in
  let running = ref true in
  while !running do
    let cpc = !pc in
    let op = Array.unsafe_get code cpc in
    if pairs_nops <> 0 then begin
      let id = op_id op in
      ops.(id) <- ops.(id) + 1;
      if !prev >= 0 then begin
        let k = (!prev * pairs_nops) + id in
        pairs.(k) <- pairs.(k) + 1
      end;
      (* control transfers break straight-line adjacency: a (Br, target)
         pair is not a fusion candidate *)
      prev :=
        (match op with
        | PJmp _ | PBr _ | PRet0 | PRetI _ | PRetF _ | PConstBr _ | PLoadBr _
        | PMovJmp _ | PBinMovJmp _ | PStoreMovJmp _ | PMovBr _ | PBinBinBr _
        | PBinBinMovBr _ | PLoadSxLoadBr _ | PSxLoadBinLoadBr _ | PSwapJmp _
        | PStoreJmp _ | PConstJmp _ | PBinSextMovJmp _ | PSextMovJmp _ ->
            -1
        | _ -> id)
    end;
    (* tick -> fuel trap -> charge, in the structural engine's order *)
    st.executed <- st.executed + 1;
    if st.executed > fuel then raise (Trap "fuel-exhausted");
    st.cycles <- st.cycles + Array.unsafe_get costs cpc;
    incr pc;
    match op with
    | PNop -> ()
    | PConstI { dst; v } -> ri.(dst) <- v
    | PConstF { dst; v } -> rf.(dst) <- v
    | PMovI { dst; src; ext } ->
        let v = ri.(src) in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PMovF { dst; src } -> rf.(dst) <- rf.(src)
    | PNegI { dst; src; ext } ->
        let v = Int64.neg ri.(src) in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PNotI { dst; src; ext } ->
        let v = Int64.lognot ri.(src) in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PAdd { dst; l; r; ext } ->
        let v = Int64.add ri.(l) ri.(r) in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PSub { dst; l; r; ext } ->
        let v = Int64.sub ri.(l) ri.(r) in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PMul { dst; l; r; ext } ->
        let v = Int64.mul ri.(l) ri.(r) in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PAnd { dst; l; r; ext } ->
        let v = Int64.logand ri.(l) ri.(r) in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | POr { dst; l; r; ext } ->
        let v = Int64.logor ri.(l) ri.(r) in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PXor { dst; l; r; ext } ->
        let v = Int64.logxor ri.(l) ri.(r) in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PShl { dst; l; r; w64; ext } ->
        let amt = Int64.to_int (Int64.logand ri.(r) (if w64 then 63L else 31L)) in
        let v = Int64.shift_left ri.(l) amt in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PAShr { dst; l; r; w64; ext } ->
        let amt = Int64.to_int (Int64.logand ri.(r) (if w64 then 63L else 31L)) in
        let v = Int64.shift_right ri.(l) amt in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PLShr { dst; l; r; w64; ext } ->
        let amt = Int64.to_int (Int64.logand ri.(r) (if w64 then 63L else 31L)) in
        let lv =
          (* canonical 32-bit machine zero-extends internally; the
             faithful machine shifts the full register and depends on
             the explicit [Zext] guard ({!Eval.binop_faithful}) *)
          if w64 || not st.canonical then ri.(l) else Eval.zext32 ri.(l)
        in
        let v = Int64.shift_right_logical lv amt in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PDiv { dst; l; r; w64; ext } ->
        let rv = ri.(r) in
        let zero =
          if w64 then Int64.equal rv 0L else Int64.equal (Eval.low32 rv) 0L
        in
        if zero then raise (Trap "division-by-zero");
        let v =
          if Int64.equal rv (-1L) then Int64.neg ri.(l) else Int64.div ri.(l) rv
        in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PRem { dst; l; r; w64; ext } ->
        let rv = ri.(r) in
        let zero =
          if w64 then Int64.equal rv 0L else Int64.equal (Eval.low32 rv) 0L
        in
        if zero then raise (Trap "division-by-zero");
        let v = if Int64.equal rv (-1L) then 0L else Int64.rem ri.(l) rv in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PCmp { dst; cond; w64; l; r } ->
        let t =
          if w64 then holds cond (Int64.compare ri.(l) ri.(r))
          else iholds cond (sx32 ri.(l)) (sx32 ri.(r))
        in
        ri.(dst) <- (if t then 1L else 0L)
    | PSext32 { r } ->
        st.sext32 <- st.sext32 + 1;
        ri.(r) <- Eval.sext32 ri.(r)
    | PSextSub { r; sh } ->
        st.sext_sub <- st.sext_sub + 1;
        ri.(r) <- Int64.shift_right (Int64.shift_left ri.(r) sh) sh
    | PZext { r; mask; ext } ->
        if Int64.equal mask 0xFFFF_FFFFL then st.zext32 <- st.zext32 + 1
        else st.zext_sub <- st.zext_sub + 1;
        let v = Int64.logand ri.(r) mask in
        ri.(r) <- (if ext then Eval.sext32 v else v)
    | PFAdd { dst; l; r } -> rf.(dst) <- rf.(l) +. rf.(r)
    | PFSub { dst; l; r } -> rf.(dst) <- rf.(l) -. rf.(r)
    | PFMul { dst; l; r } -> rf.(dst) <- rf.(l) *. rf.(r)
    | PFDiv { dst; l; r } -> rf.(dst) <- rf.(l) /. rf.(r)
    | PFNeg { dst; src } -> rf.(dst) <- -.rf.(src)
    | PFCmp { dst; cond; l; r } ->
        ri.(dst) <- (if Eval.fcmp cond rf.(l) rf.(r) then 1L else 0L)
    | PItoF { dst; src } -> rf.(dst) <- Int64.to_float ri.(src)
    | PD2I { dst; src } -> ri.(dst) <- Eval.d2i rf.(src)
    | PD2L { dst; src; ext } ->
        let v = Eval.d2l rf.(src) in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PNewArr { dst; elem; len; ext } ->
        let full = ri.(len) in
        let len32 = Eval.sext32 full in
        (* dynamic charge (the static cost slot is 0), before the traps,
           as the structural engine charges before executing *)
        st.cycles <- st.cycles + Cost.alloc_cost ~alloc_len:len32;
        if Int64.compare len32 0L < 0 then raise (Trap "negative-array-size");
        if (not st.canonical) && not (Int64.equal full len32) then
          raise (Trap "wild-access");
        let n = Int64.to_int len32 in
        if n > max_alloc then raise (Trap "allocation-too-large");
        let cell =
          match elem with
          | AF64 -> FArr (Array.make n 0.0)
          | ARef -> RArr (Array.make n 0)
          | e -> IArr { elem = e; data = Array.make n 0L }
        in
        let h = Vec.push st.heap (Some cell) in
        let v = Int64.of_int (h + 1) in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PArrLoad ld -> arr_load st ri rf ld
    | PArrStore s -> arr_store st ri rf s
    | PArrLen { dst; arr } ->
        ri.(dst) <- Int64.of_int (cell_len (arr_cell st ri.(arr)))
    | PGLoadF { dst; slot } ->
        let g = st.gvf in
        rf.(dst) <- (if slot < Array.length g then g.(slot) else 0.0)
    | PGLoadI32 { dst; slot; sign; ext } ->
        let g = st.gvi in
        let cell = if slot < Array.length g then g.(slot) else 0L in
        let v = if sign then Eval.sext32 cell else Eval.zext32 cell in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PGLoadI { dst; slot; ext } ->
        let g = st.gvi in
        let v = if slot < Array.length g then g.(slot) else 0L in
        ri.(dst) <- (if ext then Eval.sext32 v else v)
    | PGStoreF { slot; src } -> gstore_f st slot rf.(src)
    | PGStoreI32 { slot; src } -> gstore_i st slot (Eval.zext32 ri.(src))
    | PGStoreI { slot; src } -> gstore_i st slot ri.(src)
    | PPrintI { r; post_trap } ->
        out st (Int64.to_string ri.(r));
        if post_trap then raise (Trap "missing-return")
    | PPrintF { r; post_trap } ->
        out st (Printf.sprintf "%.6g" rf.(r));
        if post_trap then raise (Trap "missing-return")
    | PCheckI { r; post_trap } ->
        st.checksum <- checksum_mix st.checksum ri.(r);
        if post_trap then raise (Trap "missing-return")
    | PCheckF { r; post_trap } ->
        st.checksum <- checksum_mix st.checksum (Int64.bits_of_float rf.(r));
        if post_trap then raise (Trap "missing-return")
    | PTrapOp { msg } -> raise (Trap msg)
    | PCallUser { dst; expect; ext; fn; fid; argv } -> (
        call_fn st fn fid ri rf argv;
        match expect with
        | 0 -> ()
        | 1 ->
            if st.ret_kind <> 1 then raise (Trap "bad-return");
            ri.(dst) <- (if ext then Eval.sext32 st.ret_i else st.ret_i)
        | 2 ->
            if st.ret_kind <> 2 then raise (Trap "bad-return");
            rf.(dst) <- st.ret_f
        | _ -> raise (Trap "bad-return"))
    | PJmp j -> pc := jump_to st p j
    | PBr b -> pc := branch_to st p b (br_holds b ri.(b.bl) ri.(b.brx))
    | PRet0 ->
        st.ret_kind <- 0;
        running := false
    | PRetI { r } ->
        st.ret_kind <- 1;
        st.ret_i <- ri.(r);
        running := false
    | PRetF { r } ->
        st.ret_kind <- 2;
        st.ret_f <- rf.(r);
        running := false
    (* Fused superinstructions. The loop head above already ticked,
       fuel-checked and charged the first constituent (the head slot
       keeps its original cost); each handler performs the head's
       effect, then the same three accounting steps (written out — this
       is the engine's hottest path and must not pay a closure call)
       before each further constituent's effect — the trap points,
       counter values and profile edges are bit-identical to the unfused
       dispatch sequence. Intermediate values are forwarded locally:
       when a branch/store operand register equals the register a
       constituent just defined, the handler substitutes the local value
       instead of reading it back, and the [w*] flags elide the register
       write entirely when liveness proved it dead (see [fuse_code]).
       Straight-line groups step [pc] past the shadowed constituent
       slots; groups ending in a control transfer set it absolutely. *)
    | PConstBr { d1; v; wd1; c2; b } ->
        if wd1 then ri.(d1) <- v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c2;
        let lv = if b.bl = d1 then v else ri.(b.bl) in
        let rv = if b.brx = d1 then v else ri.(b.brx) in
        pc := branch_to st p b (br_holds b lv rv)
    | PLoadBr { ld; wdst; c2; b } ->
        let cell = arr_cell st ri.(ld.larr) in
        let k = checked_index st ri.(ld.lidx) (cell_len cell) in
        (* [iv]: the int-register image of the load destination after
           the load (a float load leaves it untouched) — the branch
           reads it locally, without the register round-trip *)
        let iv =
          match cell with
          | IArr { data; _ } ->
              let v = elem_load ld.lelem ld.llext data.(k) in
              let v = if ld.lsx then Eval.sext32 v else v in
              if wdst then ri.(ld.ldst) <- v;
              v
          | FArr d ->
              if wdst then rf.(ld.ldst) <- d.(k);
              ri.(ld.ldst)
          | RArr d ->
              let v = Int64.of_int d.(k) in
              let v = if ld.lsx then Eval.sext32 v else v in
              if wdst then ri.(ld.ldst) <- v;
              v
        in
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c2;
        let lv = if b.bl = ld.ldst then iv else ri.(b.bl) in
        let rv = if b.brx = ld.ldst then iv else ri.(b.brx) in
        pc := branch_to st p b (br_holds b lv rv)
    | PMovJmp { mdst; msrc; mext; mw; mc2; mj } ->
        if mw then begin
          let v = ri.(msrc) in
          ri.(mdst) <- (if mext then Eval.sext32 v else v)
        end;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + mc2;
        pc := jump_to st p mj
    | PStoreJmp { s; c2; j } ->
        arr_store st ri rf s;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c2;
        pc := jump_to st p j
    | PConstJmp { dst; v; wd1; c2; j } ->
        if wd1 then ri.(dst) <- v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c2;
        pc := jump_to st p j
    | PSextLoad { sr; wsr; c2; ld } ->
        st.sext32 <- st.sext32 + 1;
        let xi = sx32 ri.(sr) in
        if wsr then ri.(sr) <- Int64.of_int xi;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c2;
        let cell = arr_cell st ri.(ld.larr) in
        if xi < 0 || xi >= cell_len cell then
          raise (Trap "array-index-out-of-bounds");
        (* the index was just re-extended: full = low32, so the
           wild-access check can never fire — index directly *)
        (match cell with
        | IArr { data; _ } ->
            let v = elem_load ld.lelem ld.llext data.(xi) in
            ri.(ld.ldst) <- (if ld.lsx then Eval.sext32 v else v)
        | FArr d -> rf.(ld.ldst) <- d.(xi)
        | RArr d ->
            let v = Int64.of_int d.(xi) in
            ri.(ld.ldst) <- (if ld.lsx then Eval.sext32 v else v));
        incr pc
    | PLoadSext { ld; c2; xr; sh } ->
        let cell = arr_cell st ri.(ld.larr) in
        let k = checked_index st ri.(ld.lidx) (cell_len cell) in
        (match cell with
        | IArr { data; _ } ->
            let v = elem_load ld.lelem ld.llext data.(k) in
            let v = if ld.lsx then Eval.sext32 v else v in
            st.executed <- st.executed + 1;
            if st.executed > fuel then raise (Trap "fuel-exhausted");
            st.cycles <- st.cycles + c2;
            (* [xr = ld.ldst]: the load's write is overwritten by the
               re-extension before any observation point — write once *)
            if sh < 0 then begin
              st.sext32 <- st.sext32 + 1;
              ri.(xr) <- Int64.of_int (sx32 v)
            end
            else begin
              st.sext_sub <- st.sext_sub + 1;
              ri.(xr) <- Int64.shift_right (Int64.shift_left v sh) sh
            end
        | FArr d ->
            rf.(ld.ldst) <- d.(k);
            st.executed <- st.executed + 1;
            if st.executed > fuel then raise (Trap "fuel-exhausted");
            st.cycles <- st.cycles + c2;
            (* float load: the re-extension reads the untouched int
               register, exactly as the unfused sequence does *)
            if sh < 0 then begin
              st.sext32 <- st.sext32 + 1;
              ri.(xr) <- Eval.sext32 ri.(xr)
            end
            else begin
              st.sext_sub <- st.sext_sub + 1;
              ri.(xr) <- Int64.shift_right (Int64.shift_left ri.(xr) sh) sh
            end
        | RArr d ->
            let v = Int64.of_int d.(k) in
            let v = if ld.lsx then Eval.sext32 v else v in
            st.executed <- st.executed + 1;
            if st.executed > fuel then raise (Trap "fuel-exhausted");
            st.cycles <- st.cycles + c2;
            if sh < 0 then begin
              st.sext32 <- st.sext32 + 1;
              ri.(xr) <- Int64.of_int (sx32 v)
            end
            else begin
              st.sext_sub <- st.sext_sub + 1;
              ri.(xr) <- Int64.shift_right (Int64.shift_left v sh) sh
            end);
        incr pc
    | PConstBin { d1; v; wd1; k; kw; dst; l; r; ext; c2 } ->
        if wd1 then ri.(d1) <- v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c2;
        let lv = if l = d1 then v else ri.(l) in
        let rv = if r = d1 then v else ri.(r) in
        let v2 =
          bin_eval st.canonical k kw lv rv
        in
        ri.(dst) <- (if ext then Eval.sext32 v2 else v2);
        incr pc
    (* Adjacent-array-access pairs: no data-dependency conditions, so
       both constituents execute verbatim — only the dispatch between
       them is saved. *)
    | PLoadLoad { l1; c2; l2 } ->
        arr_load st ri rf l1;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c2;
        arr_load st ri rf l2;
        incr pc
    | PLoadStore { ld; c2; s } ->
        arr_load st ri rf ld;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c2;
        arr_store st ri rf s;
        incr pc
    | PStoreStore { s1; c2; s2 } ->
        arr_store st ri rf s1;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c2;
        arr_store st ri rf s2;
        incr pc
    (* Chained superinstructions. Each embedded payload executes exactly
       as its own handler would (same writes, same elisions — a write
       skipped by a [w*] flag is dead downstream, so the tail's register
       reads are unaffected), with the second group's head accounting
       step in between. *)
    | PBinBin { a; hb; b2; s2l; s2r; xw1; xw2 } ->
        if a.wd1 then ri.(a.d1) <- a.v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + a.c2;
        let lv = if a.l = a.d1 then a.v else ri.(a.l) in
        let rv = if a.r = a.d1 then a.v else ri.(a.r) in
        let av =
          bin_eval st.canonical a.k a.kw lv rv
        in
        let v1 = if a.ext then Eval.sext32 av else av in
        if xw1 then ri.(a.dst) <- v1;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + hb;
        if b2.wd1 then ri.(b2.d1) <- b2.v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + b2.c2;
        let lv =
          match s2l with 1 -> v1 | 3 -> a.v | 4 -> b2.v | _ -> ri.(b2.l)
        in
        let rv =
          match s2r with 1 -> v1 | 3 -> a.v | 4 -> b2.v | _ -> ri.(b2.r)
        in
        let bv =
          bin_eval st.canonical b2.k b2.kw lv rv
        in
        if xw2 then ri.(b2.dst) <- (if b2.ext then Eval.sext32 bv else bv);
        pc := !pc + 3
    | PBinSext { a; cs; xw } ->
        if a.wd1 then ri.(a.d1) <- a.v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + a.c2;
        let lv = if a.l = a.d1 then a.v else ri.(a.l) in
        let rv = if a.r = a.d1 then a.v else ri.(a.r) in
        let av = bin_eval st.canonical a.k a.kw lv rv in
        let v1 = if a.ext then Eval.sext32 av else av in
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + cs;
        st.sext32 <- st.sext32 + 1;
        if xw then ri.(a.dst) <- Int64.of_int (sx32 v1);
        pc := !pc + 2
    | PBinSextMovJmp { a; cs; xw; hm; smv; m } ->
        if a.wd1 then ri.(a.d1) <- a.v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + a.c2;
        let lv = if a.l = a.d1 then a.v else ri.(a.l) in
        let rv = if a.r = a.d1 then a.v else ri.(a.r) in
        let av = bin_eval st.canonical a.k a.kw lv rv in
        let v1 = if a.ext then Eval.sext32 av else av in
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + cs;
        st.sext32 <- st.sext32 + 1;
        let xi = sx32 v1 in
        if xw then ri.(a.dst) <- Int64.of_int xi;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + hm;
        if m.mw then begin
          let v =
            match smv with 1 -> Int64.of_int xi | 3 -> a.v | _ -> ri.(m.msrc)
          in
          ri.(m.mdst) <- (if m.mext then Eval.sext32 v else v)
        end;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + m.mc2;
        pc := jump_to st p m.mj
    | PSextMovJmp { xr; xw; hm; smv; m } ->
        st.sext32 <- st.sext32 + 1;
        let xi = sx32 ri.(xr) in
        if xw then ri.(xr) <- Int64.of_int xi;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + hm;
        if m.mw then begin
          let v = if smv = 1 then Int64.of_int xi else ri.(m.msrc) in
          ri.(m.mdst) <- (if m.mext then Eval.sext32 v else v)
        end;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + m.mc2;
        pc := jump_to st p m.mj
    | PGStoreGLoad { sslot; src; c2; ldst; lslot; lsign; lext; wl } ->
        gstore_i st sslot (Eval.zext32 ri.(src));
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c2;
        let g = st.gvi in
        let cell = if lslot < Array.length g then g.(lslot) else 0L in
        let v = if lsign then Eval.sext32 cell else Eval.zext32 cell in
        if wl then ri.(ldst) <- (if lext then Eval.sext32 v else v);
        incr pc
    | PGLoadBinBin
        {
          gdst;
          gslot;
          gsign;
          gext;
          wg;
          hb;
          sal;
          sar;
          bb = { a; hb = hb2; b2; s2l; s2r; xw1; xw2 };
        } ->
        let g = st.gvi in
        let cell = if gslot < Array.length g then g.(gslot) else 0L in
        let v = if gsign then Eval.sext32 cell else Eval.zext32 cell in
        let gv = if gext then Eval.sext32 v else v in
        if wg then ri.(gdst) <- gv;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + hb;
        if a.wd1 then ri.(a.d1) <- a.v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + a.c2;
        let lv =
          if a.l = a.d1 then a.v else if sal = 6 then gv else ri.(a.l)
        in
        let rv =
          if a.r = a.d1 then a.v else if sar = 6 then gv else ri.(a.r)
        in
        let av = bin_eval st.canonical a.k a.kw lv rv in
        let v1 = if a.ext then Eval.sext32 av else av in
        if xw1 then ri.(a.dst) <- v1;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + hb2;
        if b2.wd1 then ri.(b2.d1) <- b2.v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + b2.c2;
        let lv =
          match s2l with
          | 1 -> v1
          | 3 -> a.v
          | 4 -> b2.v
          | 6 -> gv
          | _ -> ri.(b2.l)
        in
        let rv =
          match s2r with
          | 1 -> v1
          | 3 -> a.v
          | 4 -> b2.v
          | 6 -> gv
          | _ -> ri.(b2.r)
        in
        let bv = bin_eval st.canonical b2.k b2.kw lv rv in
        if xw2 then ri.(b2.dst) <- (if b2.ext then Eval.sext32 bv else bv);
        pc := !pc + 4
    | PBinMovJmp { a; xw; hm; smv; m } ->
        if a.wd1 then ri.(a.d1) <- a.v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + a.c2;
        let lv = if a.l = a.d1 then a.v else ri.(a.l) in
        let rv = if a.r = a.d1 then a.v else ri.(a.r) in
        let av =
          bin_eval st.canonical a.k a.kw lv rv
        in
        let v1 = if a.ext then Eval.sext32 av else av in
        if xw then ri.(a.dst) <- v1;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + hm;
        if m.mw then begin
          let v = match smv with 1 -> v1 | 3 -> a.v | _ -> ri.(m.msrc) in
          ri.(m.mdst) <- (if m.mext then Eval.sext32 v else v)
        end;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + m.mc2;
        pc := jump_to st p m.mj
    | PStoreMovJmp { s; hm; m } ->
        arr_store st ri rf s;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + hm;
        if m.mw then begin
          let v = ri.(m.msrc) in
          ri.(m.mdst) <- (if m.mext then Eval.sext32 v else v)
        end;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + m.mc2;
        pc := jump_to st p m.mj
    (* Block-shaped superinstructions. Constituent effects and
       accounting steps run in program order exactly as above; the
       difference is that every in-group register read of an in-group
       value goes through a fuse-time source code into a local, so the
       [w*] write flags — computed against liveness at the end of the
       group — can skip most intermediate register-file writes. A
       float-typed cell at run time leaves the loaded local holding the
       stale integer register, exactly what the structural engine's
       int-register reads would see. *)
    | PMovBr { vdst; vsrc; vext; vw; vc2; vb = b } ->
        let mv =
          let v = ri.(vsrc) in
          if vext then Eval.sext32 v else v
        in
        if vw then ri.(vdst) <- mv;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + vc2;
        let lv = if b.bl = vdst then mv else ri.(b.bl) in
        let rv = if b.brx = vdst then mv else ri.(b.brx) in
        pc := branch_to st p b (br_holds b lv rv)
    | PBinBinBr { bb = { a; hb; b2; s2l; s2r; xw1; xw2 }; cb; sbl; sbr; b }
      ->
        if a.wd1 then ri.(a.d1) <- a.v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + a.c2;
        let lv = if a.l = a.d1 then a.v else ri.(a.l) in
        let rv = if a.r = a.d1 then a.v else ri.(a.r) in
        let av =
          bin_eval st.canonical a.k a.kw lv rv
        in
        let v1 = if a.ext then Eval.sext32 av else av in
        if xw1 then ri.(a.dst) <- v1;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + hb;
        if b2.wd1 then ri.(b2.d1) <- b2.v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + b2.c2;
        let lv =
          match s2l with 1 -> v1 | 3 -> a.v | 4 -> b2.v | _ -> ri.(b2.l)
        in
        let rv =
          match s2r with 1 -> v1 | 3 -> a.v | 4 -> b2.v | _ -> ri.(b2.r)
        in
        let bv =
          bin_eval st.canonical b2.k b2.kw lv rv
        in
        let v2 = if b2.ext then Eval.sext32 bv else bv in
        if xw2 then ri.(b2.dst) <- v2;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + cb;
        let lv =
          match sbl with
          | 1 -> v1
          | 2 -> v2
          | 3 -> a.v
          | 4 -> b2.v
          | _ -> ri.(b.bl)
        in
        let rv =
          match sbr with
          | 1 -> v1
          | 2 -> v2
          | 3 -> a.v
          | 4 -> b2.v
          | _ -> ri.(b.brx)
        in
        pc := branch_to st p b (br_holds b lv rv)
    | PBinBinMovBr { bb = { a; hb; b2; s2l; s2r; xw1; xw2 }; hm; smv; m; sbl; sbr }
      ->
        if a.wd1 then ri.(a.d1) <- a.v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + a.c2;
        let lv = if a.l = a.d1 then a.v else ri.(a.l) in
        let rv = if a.r = a.d1 then a.v else ri.(a.r) in
        let av =
          bin_eval st.canonical a.k a.kw lv rv
        in
        let v1 = if a.ext then Eval.sext32 av else av in
        if xw1 then ri.(a.dst) <- v1;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + hb;
        if b2.wd1 then ri.(b2.d1) <- b2.v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + b2.c2;
        let lv =
          match s2l with 1 -> v1 | 3 -> a.v | 4 -> b2.v | _ -> ri.(b2.l)
        in
        let rv =
          match s2r with 1 -> v1 | 3 -> a.v | 4 -> b2.v | _ -> ri.(b2.r)
        in
        let bv =
          bin_eval st.canonical b2.k b2.kw lv rv
        in
        let v2 = if b2.ext then Eval.sext32 bv else bv in
        if xw2 then ri.(b2.dst) <- v2;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + hm;
        let mv =
          let v =
            match smv with
            | 1 -> v1
            | 2 -> v2
            | 3 -> a.v
            | 4 -> b2.v
            | _ -> ri.(m.vsrc)
          in
          if m.vext then Eval.sext32 v else v
        in
        if m.vw then ri.(m.vdst) <- mv;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + m.vc2;
        let b = m.vb in
        let lv =
          match sbl with
          | 1 -> v1
          | 2 -> v2
          | 3 -> a.v
          | 4 -> b2.v
          | 5 -> mv
          | _ -> ri.(b.bl)
        in
        let rv =
          match sbr with
          | 1 -> v1
          | 2 -> v2
          | 3 -> a.v
          | 4 -> b2.v
          | 5 -> mv
          | _ -> ri.(b.brx)
        in
        pc := branch_to st p b (br_holds b lv rv)
    | PLoadSxLoad { l1; w1; cs; sr; wsr; f1; cl; l2 } ->
        let cell1 = arr_cell st ri.(l1.larr) in
        let k1 = checked_index st ri.(l1.lidx) (cell_len cell1) in
        let u1 =
          match cell1 with
          | IArr { data; _ } ->
              let v = elem_load l1.lelem l1.llext data.(k1) in
              let v = if l1.lsx then Eval.sext32 v else v in
              if w1 then ri.(l1.ldst) <- v;
              v
          | FArr d ->
              if w1 then rf.(l1.ldst) <- d.(k1);
              ri.(l1.ldst)
          | RArr d ->
              let v = Int64.of_int d.(k1) in
              let v = if l1.lsx then Eval.sext32 v else v in
              if w1 then ri.(l1.ldst) <- v;
              v
        in
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + cs;
        st.sext32 <- st.sext32 + 1;
        let xi = sx32 (if f1 then u1 else ri.(sr)) in
        if wsr then ri.(sr) <- Int64.of_int xi;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + cl;
        let cell2 = arr_cell st ri.(l2.larr) in
        if xi < 0 || xi >= cell_len cell2 then
          raise (Trap "array-index-out-of-bounds");
        (match cell2 with
        | IArr { data; _ } ->
            let v = elem_load l2.lelem l2.llext data.(xi) in
            ri.(l2.ldst) <- (if l2.lsx then Eval.sext32 v else v)
        | FArr d -> rf.(l2.ldst) <- d.(xi)
        | RArr d ->
            let v = Int64.of_int d.(xi) in
            ri.(l2.ldst) <- (if l2.lsx then Eval.sext32 v else v));
        pc := !pc + 2
    | PLoadSxLoadBr { l1; w1; cs; sr; wsr; f1; cl; l2; w2; cb; sbl; sbr; b }
      ->
        let cell1 = arr_cell st ri.(l1.larr) in
        let k1 = checked_index st ri.(l1.lidx) (cell_len cell1) in
        let u1 =
          match cell1 with
          | IArr { data; _ } ->
              let v = elem_load l1.lelem l1.llext data.(k1) in
              let v = if l1.lsx then Eval.sext32 v else v in
              if w1 then ri.(l1.ldst) <- v;
              v
          | FArr d ->
              if w1 then rf.(l1.ldst) <- d.(k1);
              ri.(l1.ldst)
          | RArr d ->
              let v = Int64.of_int d.(k1) in
              let v = if l1.lsx then Eval.sext32 v else v in
              if w1 then ri.(l1.ldst) <- v;
              v
        in
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + cs;
        st.sext32 <- st.sext32 + 1;
        let xi = sx32 (if f1 then u1 else ri.(sr)) in
        if wsr then ri.(sr) <- Int64.of_int xi;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + cl;
        let cell2 = arr_cell st ri.(l2.larr) in
        if xi < 0 || xi >= cell_len cell2 then
          raise (Trap "array-index-out-of-bounds");
        let u2 =
          match cell2 with
          | IArr { data; _ } ->
              let v = elem_load l2.lelem l2.llext data.(xi) in
              let v = if l2.lsx then Eval.sext32 v else v in
              if w2 then ri.(l2.ldst) <- v;
              v
          | FArr d ->
              if w2 then rf.(l2.ldst) <- d.(xi);
              ri.(l2.ldst)
          | RArr d ->
              let v = Int64.of_int d.(xi) in
              let v = if l2.lsx then Eval.sext32 v else v in
              if w2 then ri.(l2.ldst) <- v;
              v
        in
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + cb;
        let xv = Int64.of_int xi in
        let lv =
          match sbl with 1 -> u1 | 2 -> xv | 3 -> u2 | _ -> ri.(b.bl)
        in
        let rv =
          match sbr with 1 -> u1 | 2 -> xv | 3 -> u2 | _ -> ri.(b.brx)
        in
        pc := branch_to st p b (br_holds b lv rv)
    | PSxLoadBin { sr; wsr; cl; ld; w1; hb; a; s2l; s2r; xw } ->
        st.sext32 <- st.sext32 + 1;
        let xi = sx32 ri.(sr) in
        if wsr then ri.(sr) <- Int64.of_int xi;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + cl;
        let cell = arr_cell st ri.(ld.larr) in
        if xi < 0 || xi >= cell_len cell then
          raise (Trap "array-index-out-of-bounds");
        let u1 =
          match cell with
          | IArr { data; _ } ->
              let v = elem_load ld.lelem ld.llext data.(xi) in
              let v = if ld.lsx then Eval.sext32 v else v in
              if w1 then ri.(ld.ldst) <- v;
              v
          | FArr d ->
              if w1 then rf.(ld.ldst) <- d.(xi);
              ri.(ld.ldst)
          | RArr d ->
              let v = Int64.of_int d.(xi) in
              let v = if ld.lsx then Eval.sext32 v else v in
              if w1 then ri.(ld.ldst) <- v;
              v
        in
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + hb;
        if a.wd1 then ri.(a.d1) <- a.v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + a.c2;
        let xv = Int64.of_int xi in
        let lv =
          match s2l with 1 -> u1 | 2 -> xv | 4 -> a.v | _ -> ri.(a.l)
        in
        let rv =
          match s2r with 1 -> u1 | 2 -> xv | 4 -> a.v | _ -> ri.(a.r)
        in
        let bv =
          bin_eval st.canonical a.k a.kw lv rv
        in
        if xw then ri.(a.dst) <- (if a.ext then Eval.sext32 bv else bv);
        pc := !pc + 3
    | PSxLoadBinLoadBr
        { sr; wsr; cl; ld; w1; hb; a; s2l; s2r; xw; hl; ld2; w2; si; cb;
          sbl; sbr; b } ->
        st.sext32 <- st.sext32 + 1;
        let xi = sx32 ri.(sr) in
        if wsr then ri.(sr) <- Int64.of_int xi;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + cl;
        let cell = arr_cell st ri.(ld.larr) in
        if xi < 0 || xi >= cell_len cell then
          raise (Trap "array-index-out-of-bounds");
        let u1 =
          match cell with
          | IArr { data; _ } ->
              let v = elem_load ld.lelem ld.llext data.(xi) in
              let v = if ld.lsx then Eval.sext32 v else v in
              if w1 then ri.(ld.ldst) <- v;
              v
          | FArr d ->
              if w1 then rf.(ld.ldst) <- d.(xi);
              ri.(ld.ldst)
          | RArr d ->
              let v = Int64.of_int d.(xi) in
              let v = if ld.lsx then Eval.sext32 v else v in
              if w1 then ri.(ld.ldst) <- v;
              v
        in
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + hb;
        if a.wd1 then ri.(a.d1) <- a.v;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + a.c2;
        let xv = Int64.of_int xi in
        let lv =
          match s2l with 1 -> u1 | 2 -> xv | 4 -> a.v | _ -> ri.(a.l)
        in
        let rv =
          match s2r with 1 -> u1 | 2 -> xv | 4 -> a.v | _ -> ri.(a.r)
        in
        let bv =
          bin_eval st.canonical a.k a.kw lv rv
        in
        let v2 = if a.ext then Eval.sext32 bv else bv in
        if xw then ri.(a.dst) <- v2;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + hl;
        let cell2 = arr_cell st ri.(ld2.larr) in
        let ki =
          match si with
          | 1 -> u1
          | 2 -> xv
          | 3 -> v2
          | 4 -> a.v
          | _ -> ri.(ld2.lidx)
        in
        let k2 = checked_index st ki (cell_len cell2) in
        let u2 =
          match cell2 with
          | IArr { data; _ } ->
              let v = elem_load ld2.lelem ld2.llext data.(k2) in
              let v = if ld2.lsx then Eval.sext32 v else v in
              if w2 then ri.(ld2.ldst) <- v;
              v
          | FArr d ->
              if w2 then rf.(ld2.ldst) <- d.(k2);
              ri.(ld2.ldst)
          | RArr d ->
              let v = Int64.of_int d.(k2) in
              let v = if ld2.lsx then Eval.sext32 v else v in
              if w2 then ri.(ld2.ldst) <- v;
              v
        in
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + cb;
        let lv =
          match sbl with
          | 1 -> u1
          | 2 -> xv
          | 3 -> v2
          | 4 -> a.v
          | 5 -> u2
          | _ -> ri.(b.bl)
        in
        let rv =
          match sbr with
          | 1 -> u1
          | 2 -> xv
          | 3 -> v2
          | 4 -> a.v
          | 5 -> u2
          | _ -> ri.(b.brx)
        in
        pc := branch_to st p b (br_holds b lv rv)
    | PLoad2Store2 { l1; w1; c2; l2; w2; c3; s1; z1; zr1; c4; s2; z2; zr2 }
      ->
        let cell1 = arr_cell st ri.(l1.larr) in
        let k1 = checked_index st ri.(l1.lidx) (cell_len cell1) in
        let u1 =
          match cell1 with
          | IArr { data; _ } ->
              let v = elem_load l1.lelem l1.llext data.(k1) in
              let v = if l1.lsx then Eval.sext32 v else v in
              if w1 then ri.(l1.ldst) <- v;
              v
          | FArr d ->
              if w1 then rf.(l1.ldst) <- d.(k1);
              ri.(l1.ldst)
          | RArr d ->
              let v = Int64.of_int d.(k1) in
              let v = if l1.lsx then Eval.sext32 v else v in
              if w1 then ri.(l1.ldst) <- v;
              v
        in
        (* [raw*]/[rk*]: the undecoded cell word and whether the cell
           was an int array — a same-element store of a loaded value
           reuses the word, skipping [elem_store]'s re-encode; [fv*]/
           [fk*] are the float-side equivalents for float cells *)
        let raw1 = match cell1 with IArr { data; _ } -> data.(k1) | _ -> u1 in
        let rk1 = match cell1 with IArr _ -> true | _ -> false in
        let fv1 = match cell1 with FArr d -> d.(k1) | _ -> 0.0 in
        let fk1 = match cell1 with FArr _ -> true | _ -> false in
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c2;
        let cell2 = arr_cell st ri.(l2.larr) in
        let k2 = checked_index st ri.(l2.lidx) (cell_len cell2) in
        let u2 =
          match cell2 with
          | IArr { data; _ } ->
              let v = elem_load l2.lelem l2.llext data.(k2) in
              let v = if l2.lsx then Eval.sext32 v else v in
              if w2 then ri.(l2.ldst) <- v;
              v
          | FArr d ->
              if w2 then rf.(l2.ldst) <- d.(k2);
              ri.(l2.ldst)
          | RArr d ->
              let v = Int64.of_int d.(k2) in
              let v = if l2.lsx then Eval.sext32 v else v in
              if w2 then ri.(l2.ldst) <- v;
              v
        in
        let raw2 = match cell2 with IArr { data; _ } -> data.(k2) | _ -> u2 in
        let rk2 = match cell2 with IArr _ -> true | _ -> false in
        let fv2 = match cell2 with FArr d -> d.(k2) | _ -> 0.0 in
        let fk2 = match cell2 with FArr _ -> true | _ -> false in
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c3;
        (let cells = arr_cell st ri.(s1.sarr) in
         let j = checked_index st ri.(s1.sidx) (cell_len cells) in
         match cells with
         | IArr { data; _ } ->
             if zr1 && (if z1 = 1 then rk1 else rk2) then
               data.(j) <- (if z1 = 1 then raw1 else raw2)
             else
               data.(j) <-
                 elem_store s1.selem
                   (match z1 with 1 -> u1 | 2 -> u2 | _ -> ri.(s1.ssrc))
         | FArr d ->
             d.(j) <-
               (match z1 with
               | 1 when fk1 -> fv1
               | 2 when fk2 -> fv2
               | _ -> rf.(s1.ssrc))
         | RArr d ->
             d.(j) <-
               Int64.to_int
                 (match z1 with 1 -> u1 | 2 -> u2 | _ -> ri.(s1.ssrc)));
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c4;
        (let cells = arr_cell st ri.(s2.sarr) in
         let j = checked_index st ri.(s2.sidx) (cell_len cells) in
         match cells with
         | IArr { data; _ } ->
             if zr2 && (if z2 = 1 then rk1 else rk2) then
               data.(j) <- (if z2 = 1 then raw1 else raw2)
             else
               data.(j) <-
                 elem_store s2.selem
                   (match z2 with 1 -> u1 | 2 -> u2 | _ -> ri.(s2.ssrc))
         | FArr d ->
             d.(j) <-
               (match z2 with
               | 1 when fk1 -> fv1
               | 2 when fk2 -> fv2
               | _ -> rf.(s2.ssrc))
         | RArr d ->
             d.(j) <-
               Int64.to_int
                 (match z2 with 1 -> u1 | 2 -> u2 | _ -> ri.(s2.ssrc)));
        pc := !pc + 3
    | PSwapJmp
        { l1; w1; c2; l2; w2; c3; s1; z1; zr1; c4; s2; z2; zr2; hm; smv; m }
      ->
        let cell1 = arr_cell st ri.(l1.larr) in
        let k1 = checked_index st ri.(l1.lidx) (cell_len cell1) in
        let u1 =
          match cell1 with
          | IArr { data; _ } ->
              let v = elem_load l1.lelem l1.llext data.(k1) in
              let v = if l1.lsx then Eval.sext32 v else v in
              if w1 then ri.(l1.ldst) <- v;
              v
          | FArr d ->
              if w1 then rf.(l1.ldst) <- d.(k1);
              ri.(l1.ldst)
          | RArr d ->
              let v = Int64.of_int d.(k1) in
              let v = if l1.lsx then Eval.sext32 v else v in
              if w1 then ri.(l1.ldst) <- v;
              v
        in
        let raw1 = match cell1 with IArr { data; _ } -> data.(k1) | _ -> u1 in
        let rk1 = match cell1 with IArr _ -> true | _ -> false in
        let fv1 = match cell1 with FArr d -> d.(k1) | _ -> 0.0 in
        let fk1 = match cell1 with FArr _ -> true | _ -> false in
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c2;
        let cell2 = arr_cell st ri.(l2.larr) in
        let k2 = checked_index st ri.(l2.lidx) (cell_len cell2) in
        let u2 =
          match cell2 with
          | IArr { data; _ } ->
              let v = elem_load l2.lelem l2.llext data.(k2) in
              let v = if l2.lsx then Eval.sext32 v else v in
              if w2 then ri.(l2.ldst) <- v;
              v
          | FArr d ->
              if w2 then rf.(l2.ldst) <- d.(k2);
              ri.(l2.ldst)
          | RArr d ->
              let v = Int64.of_int d.(k2) in
              let v = if l2.lsx then Eval.sext32 v else v in
              if w2 then ri.(l2.ldst) <- v;
              v
        in
        let raw2 = match cell2 with IArr { data; _ } -> data.(k2) | _ -> u2 in
        let rk2 = match cell2 with IArr _ -> true | _ -> false in
        let fv2 = match cell2 with FArr d -> d.(k2) | _ -> 0.0 in
        let fk2 = match cell2 with FArr _ -> true | _ -> false in
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c3;
        (let cells = arr_cell st ri.(s1.sarr) in
         let j = checked_index st ri.(s1.sidx) (cell_len cells) in
         match cells with
         | IArr { data; _ } ->
             if zr1 && (if z1 = 1 then rk1 else rk2) then
               data.(j) <- (if z1 = 1 then raw1 else raw2)
             else
               data.(j) <-
                 elem_store s1.selem
                   (match z1 with 1 -> u1 | 2 -> u2 | _ -> ri.(s1.ssrc))
         | FArr d ->
             d.(j) <-
               (match z1 with
               | 1 when fk1 -> fv1
               | 2 when fk2 -> fv2
               | _ -> rf.(s1.ssrc))
         | RArr d ->
             d.(j) <-
               Int64.to_int
                 (match z1 with 1 -> u1 | 2 -> u2 | _ -> ri.(s1.ssrc)));
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + c4;
        (let cells = arr_cell st ri.(s2.sarr) in
         let j = checked_index st ri.(s2.sidx) (cell_len cells) in
         match cells with
         | IArr { data; _ } ->
             if zr2 && (if z2 = 1 then rk1 else rk2) then
               data.(j) <- (if z2 = 1 then raw1 else raw2)
             else
               data.(j) <-
                 elem_store s2.selem
                   (match z2 with 1 -> u1 | 2 -> u2 | _ -> ri.(s2.ssrc))
         | FArr d ->
             d.(j) <-
               (match z2 with
               | 1 when fk1 -> fv1
               | 2 when fk2 -> fv2
               | _ -> rf.(s2.ssrc))
         | RArr d ->
             d.(j) <-
               Int64.to_int
                 (match z2 with 1 -> u1 | 2 -> u2 | _ -> ri.(s2.ssrc)));
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + hm;
        if m.mw then begin
          let v = match smv with 1 -> u1 | 2 -> u2 | _ -> ri.(m.msrc) in
          ri.(m.mdst) <- (if m.mext then Eval.sext32 v else v)
        end;
        st.executed <- st.executed + 1;
        if st.executed > fuel then raise (Trap "fuel-exhausted");
        st.cycles <- st.cycles + m.mc2;
        pc := jump_to st p m.mj
  done

(** Call [fn], binding [argv] (packed caller registers) to the callee's
    parameters positionally. Extra arguments are ignored; a missing or
    kind-mismatched argument traps ["bad-call-arity"]. Parameter binding
    writes the raw caller value — the canonical machine does not re-extend
    at binding time (the structural engine's [List.iteri] does not either). *)
and call_fn st fn fid (caller_ri : int64 array) (caller_rf : float array)
    (argv : int array) : unit =
  st.depth <- st.depth + 1;
  if st.depth > max_depth then raise (Trap "stack-overflow");
  let p = resolve st fn fid in
  let n = max p.nregs 1 in
  let d = st.depth in
  let ri =
    let cur = st.fpool_i.(d) in
    if Array.length cur >= n then begin
      Array.fill cur 0 n 0L;
      cur
    end
    else begin
      let a = Array.make n 0L in
      st.fpool_i.(d) <- a;
      a
    end
  in
  let rf =
    let cur = st.fpool_f.(d) in
    if Array.length cur >= n then begin
      Array.fill cur 0 n 0.0;
      cur
    end
    else begin
      let a = Array.make n 0.0 in
      st.fpool_f.(d) <- a;
      a
    end
  in
  let params = p.params in
  let na = Array.length argv in
  for k = 0 to Array.length params - 1 do
    let pk = params.(k) in
    if k >= na then raise (Trap "bad-call-arity");
    let a = argv.(k) in
    if pk land 1 <> a land 1 then raise (Trap "bad-call-arity");
    if pk land 1 = 1 then rf.(pk lsr 1) <- caller_rf.(a lsr 1)
    else ri.(pk lsr 1) <- caller_ri.(a lsr 1)
  done;
  exec st p ri rf;
  st.depth <- st.depth - 1

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ?(mode = `Faithful) ?(fuel = 2_000_000_000L) ?(count_cycles = true)
    ?profile ?fuse (prog : Prog.t) : outcome =
  let fuse = match fuse with Some s -> s | None -> Fuse.of_env () in
  let fuel_i =
    if Int64.compare fuel (Int64.of_int max_int) >= 0 then max_int
    else Int64.to_int fuel
  in
  let st =
    {
      prog;
      canonical = mode = `Canonical;
      fuse;
      depth = 0;
      heap = Vec.create ~dummy:None ();
      gvi = Array.make (gslot_count ()) 0L;
      gvf = Array.make (gslot_count ()) 0.0;
      fpool_i = Array.make (max_depth + 1) [||];
      fpool_f = Array.make (max_depth + 1) [||];
      buf = Buffer.create 256;
      checksum = 0L;
      executed = 0;
      sext32 = 0;
      sext_sub = 0;
      zext32 = 0;
      zext_sub = 0;
      cycles = 0;
      fuel = fuel_i;
      profile;
      fcache = Array.make (fslot_count ()) None;
      ret_kind = 0;
      ret_i = 0L;
      ret_f = 0.0;
    }
  in
  let trap =
    match call_fn st prog.Prog.main (fslot prog.Prog.main) [||] [||] [||] with
    | () -> None
    | exception Trap t -> Some t
  in
  let ret =
    if trap <> None then None
    else
      match st.ret_kind with
      | 1 -> Some st.ret_i
      | 2 -> Some (Int64.bits_of_float st.ret_f)
      | _ -> None
  in
  {
    output = Buffer.contents st.buf;
    checksum = st.checksum;
    trap;
    ret;
    executed = Int64.of_int st.executed;
    sext32 = Int64.of_int st.sext32;
    sext_sub = Int64.of_int st.sext_sub;
    zext32 = Int64.of_int st.zext32;
    zext_sub = Int64.of_int st.zext_sub;
    cycles = (if count_cycles then Int64.of_int st.cycles else 0L);
  }
