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

(* The extensions, spelled with [Int64] primitives so that they inline
   and never box ({!Eval}'s are calls across the library boundary). *)
let[@inline] sext_from sh (v : int64) = Int64.shift_right (Int64.shift_left v sh) sh
let[@inline] sext32 v = sext_from 32 v
let[@inline] zext32 v = Int64.logand v 0xFFFF_FFFFL

let[@inline] elem_load elem lext (raw : int64) =
  match (elem, lext) with
  | AI8, LZero -> Int64.logand raw 0xFFL
  | AI8, LSign -> sext_from 56 raw
  | AI16, LZero -> Int64.logand raw 0xFFFFL
  | AI16, LSign -> sext_from 48 raw
  | AI32, LZero -> zext32 raw
  | AI32, LSign -> sext32 raw
  | (AI64 | AF64 | ARef), _ -> raw

let[@inline] elem_store elem (v : int64) =
  match elem with
  | AI8 -> Int64.logand v 0xFFL
  | AI16 -> Int64.logand v 0xFFFFL
  | AI32 -> zext32 v
  | AI64 | AF64 | ARef -> v

(* The integer register file holds unboxed [int64]s, so a register
   write allocates nothing and needs no write barrier. A register out of
   range raises [Invalid_argument], as an array index would. *)
type regs = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let[@inline] rget (ri : regs) r = Bigarray.Array1.get ri r
let[@inline] rset (ri : regs) r v = Bigarray.Array1.set ri r v
let no_regs : regs = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout 0

let checksum_mix c v = Int64.add (Int64.mul c 0x100000001b3L) v

(* [sx32] sign-extends the low 32 bits of a register into a native int:
   [Int64.to_int] keeps the low 62 bits, then bit 31 is shifted onto the
   native sign bit and back. Comparing two [sx32] images is exactly
   [Int64.compare (sext32 a) (sext32 b)] — without boxing a
   single intermediate. *)
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

(* The integer binop kernel ([k] selects the operation, [kw] the
   shift/div width). Division traps after the binop's own tick and
   charge, as the structural engine does. [zx] is the canonical flag:
   the canonical machine's 32-bit [LShr] zero-extends its left operand
   internally; the faithful machine shifts the full register
   ({!Eval.binop_faithful}) and relies on an explicit [Zext] guard for
   the canonical result. *)
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
      else Int64.shift_right_logical (zext32 lv) amt
  | 9 ->
      if if kw then Int64.equal rv 0L else Int64.equal (zext32 rv) 0L then
        raise (Trap "division-by-zero");
      if Int64.equal rv (-1L) then Int64.neg lv else Int64.div lv rv
  | _ ->
      if if kw then Int64.equal rv 0L else Int64.equal (zext32 rv) 0L then
        raise (Trap "division-by-zero");
      if Int64.equal rv (-1L) then 0L else Int64.rem lv rv

let builtin_names =
  [ "print_int"; "print_long"; "print_double"; "checksum"; "checksum_double" ]

(** Which fusion rules a decode applies ({!Fuse} re-exports this type and
    parses it from [SXE_FUSE]). *)
type selection = All | Off | Rules of string list

let enables sel rule =
  match sel with All -> true | Off -> false | Rules rs -> List.mem rule rs

let selection_key = function
  | All -> "all"
  | Off -> "off"
  | Rules rs -> String.concat "," (List.sort_uniq compare rs)

(* ------------------------------------------------------------------ *)
(* Decoded instructions                                                *)
(* ------------------------------------------------------------------ *)

(** Named payloads: every opcode a superinstruction is composed from
    keeps its decoded fields in a record, and the fused opcode carries
    its constituents' records side by side, so the plain and the fused
    handlers run the same step function on the same payload. *)
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
type kon = { cdst : int; cv : int64  (** canonical sext pre-applied *) }
type mov = { mdst : int; msrc : int; mext : bool }

(** An integer binop: [k] 0 Add, 1 Sub, 2 Mul, 3 And, 4 Or, 5 Xor,
    6 Shl, 7 AShr, 8 LShr, 9 Div, 10 Rem; [kw] is the shift/div width
    flag (64-bit) for [k >= 6]. *)
type bin = { k : int; kw : bool; dst : int; l : int; r : int; ext : bool }

type ssub = { xr : int; sh : int  (** shift-in/out amount: 56, 48 or 0 *) }
type gld = { gdst : int; gslot : int; gsign : bool; gext : bool }
type gst = { gsl : int; gsrc : int }

(** One decoded instruction. [ext] marks destinations that the canonical
    "32-bit machine" re-extends ([I32] destination registers); faithful
    decodes always carry [ext = false]. Register fields are plain array
    indices; jump targets are flat code offsets ([-1] for a target outside
    the function, which reproduces the structural engine's fetch failure
    lazily). *)
type pi =
  | PNop  (** [JustExt]: ticks, costs 0, no effect *)
  | PConstI of kon
  | PConstF of { dst : int; v : float }
  | PMovI of mov
  | PMovF of { dst : int; src : int }
  | PNegI of { dst : int; src : int; ext : bool }
  | PNotI of { dst : int; src : int; ext : bool }
  | PAdd of bin
  | PSub of bin
  | PMul of bin
  | PAnd of bin
  | POr of bin
  | PXor of bin
  | PShl of bin
  | PAShr of bin
  | PLShr of bin
  | PDiv of bin
  | PRem of bin
  | PCmp of { dst : int; cond : cond; w64 : bool; l : int; r : int }
  | PSext32 of int
  | PSextSub of ssub
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
  | PGLoadI32 of gld
  | PGLoadI of { dst : int; slot : int; ext : bool }
  | PGStoreF of { slot : int; src : int }
  | PGStoreI32 of gst
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
  (* Superinstructions: one constructor per row of [shapes], carrying
     its constituents' payloads in program order ([PLoadSextSub] is the
     [SextSub] form of the [LoadSext] row). *)
  | PConstBr of kon * br
  | PLoadBr of ald * br
  | PMovJmp of mov * jm
  | PStoreJmp of ast * jm
  | PSextLoad of int * ald
  | PLoadSext of ald * int
  | PLoadSextSub of ald * ssub
  | PConstBin of kon * bin
  | PLoadLoad of ald * ald
  | PLoadStore of ald * ast
  | PStoreStore of ast * ast
  | PBinBin of kon * bin * kon * bin
  | PBinMovJmp of kon * bin * mov * jm
  | PStoreMovJmp of ast * mov * jm
  | PMovBr of mov * br
  | PBinBinBr of kon * bin * kon * bin * br
  | PBinBinMovBr of kon * bin * kon * bin * mov * br
  | PLoadSxLoad of ald * int * ald
  | PLoadSxLoadBr of ald * int * ald * br
  | PSxLoadBin of int * ald * kon * bin
  | PSxLoadBinLoadBr of int * ald * kon * bin * ald * br
  | PLoad2Store2 of ald * ald * ast * ast
  | PSwapJmp of ald * ald * ast * ast * mov * jm
  | PBinSext of kon * bin * int
  | PBinSextMovJmp of kon * bin * int * mov * jm
  | PSextMovJmp of int * mov * jm
  | PGStoreGLoad of gst * gld
  | PGLoadBinBin of gld * kon * bin * kon * bin
  | PConstJmp of kon * jm

type pfunc = {
  fname : string;
  nregs : int;
  params : int array;  (** packed [(reg lsl 1) lor is_f64], in order *)
  code : pi array;  (** blocks laid out in bid order; empty for 0 blocks *)
  costs : int array;  (** static cycle weight per slot; 0 for [PNewArr] *)
  ids : int array;  (** opcode id per slot (see [op_name]) *)
  fstats : (string * int) list;  (** fused groups per rule, rule order *)
  src : Cfg.func;
}

let fusion_stats p = p.fstats
let fused_total p = List.fold_left (fun a (_, n) -> a + n) 0 p.fstats

(* ------------------------------------------------------------------ *)
(* Opcode ids: the dispatch counters' key space                        *)
(* ------------------------------------------------------------------ *)

(* Plain opcodes, ids [0 .. nplain - 1]: each covers one flat slot. The
   decoder stores every slot's id in [pfunc.ids]; fused ids follow, one
   per row of [shapes]. *)
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

let plain_id = function
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
  | _ -> invalid_arg "Precode.plain_id: fused opcode"

let nplain = Array.length plain_names

(* ------------------------------------------------------------------ *)
(* The superinstruction table                                          *)
(* ------------------------------------------------------------------ *)

(** One fused shape. [parts] are its two constituents in program order:
    plain opcodes (["Bin"] is any integer binop, ["Sext"] either
    extension) for a pair rule, or for a [chain] row the two groups it
    merges, by row name. [fuse] is the match and its guard: it builds
    the fused opcode from the head slot's op and the op right after the
    head's group, or declines. [ctl]: the shape ends in a control
    transfer (it sets [pc] itself, and the dispatch-pair histogram
    breaks there). *)
type shape = {
  name : string;
  rule : string;  (** the {!Fuse} rule that enables it, or ["chain"] *)
  parts : string * string;
  ctl : bool;
  fuse : pi * pi -> pi option;
}

let shape ?(ctl = false) name rule parts fuse = { name; rule; parts; ctl; fuse }
let reads (b : br) r = b.bl = r || b.brx = r

(* Row order is the id order (ids [nplain ..]). A pair row fuses two
   adjacent plain slots in the first pass; [chain] rows merge a group
   with the group that follows it, in a second pass iterated to a
   fixpoint, so a whole hot basic block can collapse into one dispatch
   (compress's loop step [Const; Add; Mov; Jmp] is one [BinMovJmp]). No
   two rows of a pass match the same pair of opcodes, so the row order
   is not a priority order. Several guards ask for distinct registers
   that the composed handlers do not need; they keep the selection that
   golden/dispatch.tsv records. *)
let shapes =
  [|
    shape "ConstBr" "const-br" ("ConstI", "Br") ~ctl:true (function
      | PConstI c, PBr b when reads b c.cdst -> Some (PConstBr (c, b))
      | _ -> None);
    shape "LoadBr" "load-br" ("ArrLoad", "Br") ~ctl:true (function
      | PArrLoad l, PBr b when reads b l.ldst -> Some (PLoadBr (l, b))
      | _ -> None);
    shape "MovJmp" "mov-jmp" ("MovI", "Jmp") ~ctl:true (function
      | PMovI m, PJmp j -> Some (PMovJmp (m, j))
      | _ -> None);
    shape "StoreJmp" "store-jmp" ("ArrStore", "Jmp") ~ctl:true (function
      | PArrStore s, PJmp j -> Some (PStoreJmp (s, j))
      | _ -> None);
    shape "SextLoad" "sext-load" ("Sext32", "ArrLoad") (function
      | PSext32 x, PArrLoad l when l.lidx = x && l.larr <> x -> Some (PSextLoad (x, l))
      | _ -> None);
    shape "LoadSext" "load-sext" ("ArrLoad", "Sext") (function
      | PArrLoad l, PSext32 x when x = l.ldst -> Some (PLoadSext (l, x))
      | PArrLoad l, PSextSub x when x.xr = l.ldst -> Some (PLoadSextSub (l, x))
      | _ -> None);
    shape "ConstBin" "const-arith" ("ConstI", "Bin") (function
      | ( PConstI c,
          ( PAdd b | PSub b | PMul b | PAnd b | POr b | PXor b | PShl b | PAShr b
          | PLShr b | PDiv b | PRem b ) )
        when b.l = c.cdst || b.r = c.cdst ->
          Some (PConstBin (c, b))
      | _ -> None);
    shape "LoadLoad" "load-load" ("ArrLoad", "ArrLoad") (function
      | PArrLoad l1, PArrLoad l2 -> Some (PLoadLoad (l1, l2))
      | _ -> None);
    shape "LoadStore" "load-store" ("ArrLoad", "ArrStore") (function
      | PArrLoad l, PArrStore s -> Some (PLoadStore (l, s))
      | _ -> None);
    shape "StoreStore" "store-store" ("ArrStore", "ArrStore") (function
      | PArrStore s1, PArrStore s2 -> Some (PStoreStore (s1, s2))
      | _ -> None);
    shape "BinBin" "chain" ("ConstBin", "ConstBin") (function
      | PConstBin (c1, b1), PConstBin (c2, b2) -> Some (PBinBin (c1, b1, c2, b2))
      | _ -> None);
    shape "BinMovJmp" "chain" ("ConstBin", "MovJmp") ~ctl:true (function
      | PConstBin (c, b), PMovJmp (m, j) -> Some (PBinMovJmp (c, b, m, j))
      | _ -> None);
    shape "StoreMovJmp" "chain" ("ArrStore", "MovJmp") ~ctl:true (function
      | PArrStore s, PMovJmp (m, j) -> Some (PStoreMovJmp (s, m, j))
      | _ -> None);
    shape "MovBr" "mov-br" ("MovI", "Br") ~ctl:true (function
      | PMovI m, PBr b -> Some (PMovBr (m, b))
      | _ -> None);
    shape "BinBinBr" "chain" ("BinBin", "Br") ~ctl:true (function
      | PBinBin (c1, b1, c2, b2), PBr b -> Some (PBinBinBr (c1, b1, c2, b2, b))
      | _ -> None);
    shape "BinBinMovBr" "chain" ("BinBin", "MovBr") ~ctl:true (function
      | PBinBin (c1, b1, c2, b2), PMovBr (m, b) -> Some (PBinBinMovBr (c1, b1, c2, b2, m, b))
      | _ -> None);
    shape "LoadSxLoad" "chain" ("ArrLoad", "SextLoad") (function
      | PArrLoad l1, PSextLoad (x, l2)
        when x <> l2.ldst && l1.ldst <> l2.ldst && l2.larr <> l1.ldst ->
          Some (PLoadSxLoad (l1, x, l2))
      | _ -> None);
    shape "LoadSxLoadBr" "chain" ("LoadSxLoad", "Br") ~ctl:true (function
      | PLoadSxLoad (l1, x, l2), PBr b when l1.ldst <> l2.ldst ->
          Some (PLoadSxLoadBr (l1, x, l2, b))
      | _ -> None);
    shape "SxLoadBin" "chain" ("SextLoad", "ConstBin") (function
      | PSextLoad (x, l), PConstBin (c, b) when x <> l.ldst -> Some (PSxLoadBin (x, l, c, b))
      | _ -> None);
    shape "SxLoadBinLoadBr" "chain" ("SxLoadBin", "LoadBr") ~ctl:true (function
      | PSxLoadBin (x, l, c, b), PLoadBr (l2, br)
        when List.for_all
               (fun q -> q <> l2.ldst && q <> l2.larr)
               [ x; l.ldst; c.cdst; b.dst ] ->
          Some (PSxLoadBinLoadBr (x, l, c, b, l2, br))
      | _ -> None);
    shape "Load2Store2" "chain" ("LoadLoad", "StoreStore") (function
      | PLoadLoad (l1, l2), PStoreStore (s1, s2) when l1.ldst <> l2.ldst ->
          Some (PLoad2Store2 (l1, l2, s1, s2))
      | _ -> None);
    shape "SwapJmp" "chain" ("Load2Store2", "MovJmp") ~ctl:true (function
      | PLoad2Store2 (l1, l2, s1, s2), PMovJmp (m, j) -> Some (PSwapJmp (l1, l2, s1, s2, m, j))
      | _ -> None);
    shape "BinSext" "chain" ("ConstBin", "Sext32") (function
      | PConstBin (c, b), PSext32 x when x = b.dst -> Some (PBinSext (c, b, x))
      | _ -> None);
    shape "BinSextMovJmp" "chain" ("BinSext", "MovJmp") ~ctl:true (function
      | PBinSext (c, b, x), PMovJmp (m, j) -> Some (PBinSextMovJmp (c, b, x, m, j))
      | _ -> None);
    shape "SextMovJmp" "chain" ("Sext32", "MovJmp") ~ctl:true (function
      | PSext32 x, PMovJmp (m, j) -> Some (PSextMovJmp (x, m, j))
      | _ -> None);
    shape "GStoreGLoad" "gstore-gload" ("GStoreI32", "GLoadI32") (function
      | PGStoreI32 s, PGLoadI32 g -> Some (PGStoreGLoad (s, g))
      | _ -> None);
    shape "GLoadBinBin" "chain" ("GLoadI32", "BinBin") (function
      | PGLoadI32 g, PBinBin (c1, b1, c2, b2) -> Some (PGLoadBinBin (g, c1, b1, c2, b2))
      | _ -> None);
    shape "ConstJmp" "const-jmp" ("ConstI", "Jmp") ~ctl:true (function
      | PConstI c, PJmp j -> Some (PConstJmp (c, j))
      | _ -> None);
  |]

let nops = nplain + Array.length shapes

let shape_names = Array.to_list (Array.map (fun s -> s.name) shapes)

let op_name id =
  if id >= 0 && id < nplain then plain_names.(id)
  else if id >= nplain && id < nops then shapes.(id - nplain).name
  else "?"

(* Everything else about a shape is derived from its row: its width (the
   flat slots it covers: the handler steps [pc] by this much), the rule
   names {!Fuse} accepts, and the opcodes that end the histogram's
   straight-line chains. *)
let widths =
  let rec width part =
    match Array.find_opt (fun s -> s.name = part) shapes with
    | Some { parts = a, b; _ } -> width a + width b
    | None -> 1
  in
  Array.init nops (fun id -> if id < nplain then 1 else width shapes.(id - nplain).name)

let op_width id = if id >= 0 && id < nops then widths.(id) else 1

let ends_chain =
  Array.init nops (fun id ->
      if id >= nplain then shapes.(id - nplain).ctl
      else List.mem plain_names.(id) [ "Jmp"; "Br"; "Ret0"; "RetI"; "RetF" ])

let rule_names =
  Array.fold_left
    (fun acc s -> if List.mem s.rule acc then acc else acc @ [ s.rule ])
    [] shapes

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

(* Peephole pass over the freshly laid-out [code]/[ids] arrays. The
   rewrite is in-place and head-anchored: slot [i] becomes the fused
   opcode and the constituent slots [i+1 ..] keep their original
   contents, which simply become unreachable (the fused handler steps
   past them), so every flat jump offset in the function stays valid. A
   group never includes a slot that starts a basic block: block starts
   are the only possible branch targets, so a target can land on a
   fused head (that is where the group's first constituent lives) but
   never in the middle of a group. The constituent slots also keep their
   costs, which the fused handler charges one by one. *)
let fuse_code ~(fuse : selection) ~(is_start : bool array) (code : pi array)
    (ids : int array) : (string * int) list =
  let n = Array.length code in
  let counts = Hashtbl.create 8 in
  let free k = k < n && not is_start.(k) in
  let rows chain =
    List.filter_map
      (fun i ->
        let s = shapes.(i) in
        if (s.rule = "chain") = chain && enables fuse s.rule then Some (nplain + i, s)
        else None)
      (List.init (Array.length shapes) Fun.id)
  in
  (* one left-to-right scan; true if it fused anything *)
  let pass rows =
    let fused = ref false in
    let i = ref 0 in
    while !i < n do
      let next = !i + widths.(ids.(!i)) in
      (if free next then
         let pair = (code.(!i), code.(next)) in
         match List.find_map (fun (id, s) -> Option.map (fun op -> (id, s, op)) (s.fuse pair)) rows with
         | Some (id, s, op) ->
             code.(!i) <- op;
             ids.(!i) <- id;
             Hashtbl.replace counts s.rule
               (1 + Option.value ~default:0 (Hashtbl.find_opt counts s.rule));
             fused := true
         | None -> ());
      i := !i + widths.(ids.(!i))
    done;
    !fused
  in
  ignore (pass (rows false));
  let chain = rows true in
  if chain <> [] then while pass chain do () done;
  List.filter_map
    (fun rule -> Option.map (fun c -> (rule, c)) (Hashtbl.find_opt counts rule))
    rule_names

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

let decode ?(fuse = Off) ~(canonical : bool) (f : Cfg.func) : pfunc =
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
        | _ -> PConstI { cdst = dst; cv = (if ext dst then sext32 v else v) })
    | Instr.FConst { dst; v } -> PConstF { dst; v }
    | Instr.Mov { dst; src; ty } -> (
        match ty with
        | F64 -> PMovF { dst; src }
        | _ -> PMovI { mdst = dst; msrc = src; mext = ext dst })
    | Instr.Unop { dst; op; src; w = _ } -> (
        match op with
        | Neg -> PNegI { dst; src; ext = ext dst }
        | Not -> PNotI { dst; src; ext = ext dst })
    | Instr.Binop { dst; op; l; r; w } -> (
        let b k = { k; kw = w = W64; dst; l; r; ext = ext dst } in
        match op with
        | Add -> PAdd (b 0)
        | Sub -> PSub (b 1)
        | Mul -> PMul (b 2)
        | And -> PAnd (b 3)
        | Or -> POr (b 4)
        | Xor -> PXor (b 5)
        | Shl -> PShl (b 6)
        | AShr -> PAShr (b 7)
        | LShr -> PLShr (b 8)
        | Div -> PDiv (b 9)
        | Rem -> PRem (b 10))
    | Instr.Cmp { dst; cond; l; r; w } ->
        (* 0/1 results are their own sign extension: no [ext] needed *)
        PCmp { dst; cond; w64 = w = W64; l; r }
    | Instr.Sext { r; from } -> (
        match from with
        | W32 -> PSext32 r
        | W8 -> PSextSub { xr = r; sh = 56 }
        | W16 -> PSextSub { xr = r; sh = 48 }
        | W64 -> PSextSub { xr = r; sh = 0 })
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
        | I32 -> PGLoadI32 { gdst = dst; gslot = slot; gsign = lext = LSign; gext = ext dst }
        | _ -> PGLoadI { dst; slot; ext = ext dst })
    | Instr.GStore { sym; src; ty } -> (
        let slot = gslot sym in
        match ty with
        | F64 -> PGStoreF { slot; src }
        | I32 -> PGStoreI32 { gsl = slot; gsrc = src }
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
  let ids = Array.map plain_id code in
  let fstats =
    if fuse = Off then []
    else begin
      let is_start = Array.make (max !total 1) false in
      for bid = 0 to nb - 1 do
        is_start.(block_start.(bid)) <- true
      done;
      fuse_code ~fuse ~is_start code ids
    end
  in
  {
    fname = f.Cfg.name;
    nregs;
    params = Array.of_list (List.map pack_reg f.Cfg.params);
    code;
    costs;
    ids;
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
    (fun k id ->
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
          shadow := widths.(id) - 1;
          " ")
      in
      Buffer.add_string b (Printf.sprintf "%4d %-5s %s %s\n" k mark shad (op_name id)))
    p.ids;
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

let get_decoded ?(fuse = Off) ~canonical (f : Cfg.func) : pfunc =
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
  let key = (canonical, selection_key fuse) in
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
  fuse : selection;
  mutable depth : int;
  heap : cell option Vec.t;
  mutable gvi : int64 array;  (** dense global stores, indexed by [gslot] *)
  mutable gvf : float array;
  fpool_i : regs array;
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

(* The steps: one per opcode that a superinstruction is composed from,
   run by its plain handler and by every fused handler that contains it,
   so the two cannot drift apart. A transfer records its profile edge
   and returns the target's flat offset; a target outside the function
   (offset -1) then fails fetching the missing block, as in the
   structural engine. *)
let[@inline] set_i ri dst ext v = rset ri dst (if ext then sext32 v else v)
let[@inline] const_step ri (c : kon) = rset ri c.cdst c.cv
let[@inline] mov_step ri (m : mov) = set_i ri m.mdst m.mext (rget ri m.msrc)

(* [k] is a literal in the plain handlers, which folds the kernel's
   dispatch away; the fused handlers pass [b.k] *)
let[@inline] bin_k st ri k (b : bin) =
  set_i ri b.dst b.ext (bin_eval st.canonical k b.kw (rget ri b.l) (rget ri b.r))

let[@inline] bin_step st ri (b : bin) = bin_k st ri b.k b

let[@inline] sext_step st ri r =
  st.sext32 <- st.sext32 + 1;
  rset ri r (sext32 (rget ri r))

let[@inline] sextsub_step st ri (x : ssub) =
  st.sext_sub <- st.sext_sub + 1;
  rset ri x.xr (sext_from x.sh (rget ri x.xr))

let[@inline] gload_step st ri (g : gld) =
  let gv = st.gvi in
  let cell = if g.gslot < Array.length gv then gv.(g.gslot) else 0L in
  set_i ri g.gdst g.gext (if g.gsign then sext32 cell else zext32 cell)

let[@inline] gstore_step st ri (s : gst) = gstore_i st s.gsl (zext32 (rget ri s.gsrc))

let[@inline] arr_load st ri rf (ld : ald) =
  let cell = arr_cell st (rget ri ld.larr) in
  let k = checked_index st (rget ri ld.lidx) (cell_len cell) in
  match cell with
  | IArr { data; _ } -> set_i ri ld.ldst ld.lsx (elem_load ld.lelem ld.llext data.(k))
  | FArr d -> rf.(ld.ldst) <- d.(k)
  | RArr d -> set_i ri ld.ldst ld.lsx (Int64.of_int d.(k))

let[@inline] arr_store st ri rf (s : ast) =
  let cell = arr_cell st (rget ri s.sarr) in
  let k = checked_index st (rget ri s.sidx) (cell_len cell) in
  match cell with
  | IArr { data; _ } -> data.(k) <- elem_store s.selem (rget ri s.ssrc)
  | FArr d -> d.(k) <- rf.(s.ssrc)
  | RArr d -> d.(k) <- Int64.to_int (rget ri s.ssrc)

let[@inline] jump_to st p (j : jm) =
  (match st.profile with
  | Some prof -> Profile.record prof p.fname ~src:j.jsrc ~dst:j.jdst
  | None -> ());
  if j.joff < 0 then begin
    ignore (Cfg.block p.src j.jdst);
    assert false
  end;
  j.joff

let[@inline] branch st p ri (b : br) =
  let lv = rget ri b.bl and rv = rget ri b.brx in
  let taken =
    if b.bw64 then holds b.bcond (Int64.compare lv rv)
    else iholds b.bcond (sx32 lv) (sx32 rv)
  in
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

(* The accounting step before every instruction, plain or constituent:
   tick, fuel trap, then the slot's static charge, in the structural
   engine's order. A fused handler runs it before each constituent after
   the first (the loop head has done the first), with the constituent's
   own slot, so traps and counters are exactly those of the unfused
   dispatch sequence. *)
let[@inline] acct st fuel costs slot =
  st.executed <- st.executed + 1;
  if st.executed > fuel then raise (Trap "fuel-exhausted");
  st.cycles <- st.cycles + Array.unsafe_get costs slot

let rec exec (st : state) (p : pfunc) (ri : regs) (rf : float array) : unit =
  let code = p.code and costs = p.costs and ids = p.ids in
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
      let id = Array.unsafe_get ids cpc in
      ops.(id) <- ops.(id) + 1;
      if !prev >= 0 then begin
        let k = (!prev * pairs_nops) + id in
        pairs.(k) <- pairs.(k) + 1
      end;
      (* control transfers break straight-line adjacency: a (Br, target)
         pair is not a fusion candidate *)
      prev := if ends_chain.(id) then -1 else id
    end;
    acct st fuel costs cpc;
    pc := cpc + 1;
    match op with
    | PNop -> ()
    | PConstI c -> const_step ri c
    | PConstF { dst; v } -> rf.(dst) <- v
    | PMovI m -> mov_step ri m
    | PMovF { dst; src } -> rf.(dst) <- rf.(src)
    | PNegI { dst; src; ext } -> set_i ri dst ext (Int64.neg (rget ri src))
    | PNotI { dst; src; ext } -> set_i ri dst ext (Int64.lognot (rget ri src))
    | PAdd b -> bin_k st ri 0 b
    | PSub b -> bin_k st ri 1 b
    | PMul b -> bin_k st ri 2 b
    | PAnd b -> bin_k st ri 3 b
    | POr b -> bin_k st ri 4 b
    | PXor b -> bin_k st ri 5 b
    | PShl b -> bin_k st ri 6 b
    | PAShr b -> bin_k st ri 7 b
    | PLShr b -> bin_k st ri 8 b
    | PDiv b -> bin_k st ri 9 b
    | PRem b -> bin_k st ri 10 b
    | PCmp { dst; cond; w64; l; r } ->
        let t =
          if w64 then holds cond (Int64.compare (rget ri l) (rget ri r))
          else iholds cond (sx32 (rget ri l)) (sx32 (rget ri r))
        in
        rset ri dst (if t then 1L else 0L)
    | PSext32 r -> sext_step st ri r
    | PSextSub x -> sextsub_step st ri x
    | PZext { r; mask; ext } ->
        if Int64.equal mask 0xFFFF_FFFFL then st.zext32 <- st.zext32 + 1
        else st.zext_sub <- st.zext_sub + 1;
        set_i ri r ext (Int64.logand (rget ri r) mask)
    | PFAdd { dst; l; r } -> rf.(dst) <- rf.(l) +. rf.(r)
    | PFSub { dst; l; r } -> rf.(dst) <- rf.(l) -. rf.(r)
    | PFMul { dst; l; r } -> rf.(dst) <- rf.(l) *. rf.(r)
    | PFDiv { dst; l; r } -> rf.(dst) <- rf.(l) /. rf.(r)
    | PFNeg { dst; src } -> rf.(dst) <- -.rf.(src)
    | PFCmp { dst; cond; l; r } ->
        rset ri dst (if Eval.fcmp cond rf.(l) rf.(r) then 1L else 0L)
    | PItoF { dst; src } -> rf.(dst) <- Int64.to_float (rget ri src)
    | PD2I { dst; src } -> rset ri dst (Eval.d2i rf.(src))
    | PD2L { dst; src; ext } -> set_i ri dst ext (Eval.d2l rf.(src))
    | PNewArr { dst; elem; len; ext } ->
        let full = rget ri len in
        let len32 = sext32 full in
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
        set_i ri dst ext (Int64.of_int (h + 1))
    | PArrLoad ld -> arr_load st ri rf ld
    | PArrStore s -> arr_store st ri rf s
    | PArrLen { dst; arr } ->
        rset ri dst (Int64.of_int (cell_len (arr_cell st (rget ri arr))))
    | PGLoadF { dst; slot } ->
        let g = st.gvf in
        rf.(dst) <- (if slot < Array.length g then g.(slot) else 0.0)
    | PGLoadI32 g -> gload_step st ri g
    | PGLoadI { dst; slot; ext } ->
        let g = st.gvi in
        set_i ri dst ext (if slot < Array.length g then g.(slot) else 0L)
    | PGStoreF { slot; src } -> gstore_f st slot rf.(src)
    | PGStoreI32 s -> gstore_step st ri s
    | PGStoreI { slot; src } -> gstore_i st slot (rget ri src)
    | PPrintI { r; post_trap } ->
        out st (Int64.to_string (rget ri r));
        if post_trap then raise (Trap "missing-return")
    | PPrintF { r; post_trap } ->
        out st (Printf.sprintf "%.6g" rf.(r));
        if post_trap then raise (Trap "missing-return")
    | PCheckI { r; post_trap } ->
        st.checksum <- checksum_mix st.checksum (rget ri r);
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
            set_i ri dst ext st.ret_i
        | 2 ->
            if st.ret_kind <> 2 then raise (Trap "bad-return");
            rf.(dst) <- st.ret_f
        | _ -> raise (Trap "bad-return"))
    | PJmp j -> pc := jump_to st p j
    | PBr b -> pc := branch st p ri b
    | PRet0 ->
        st.ret_kind <- 0;
        running := false
    | PRetI { r } ->
        st.ret_kind <- 1;
        st.ret_i <- rget ri r;
        running := false
    | PRetF { r } ->
        st.ret_kind <- 2;
        st.ret_f <- rf.(r);
        running := false
    (* Superinstructions: each constituent's step, in program order, with
       the accounting step of the constituent's own slot ([cpc + 1], ...)
       in between; values pass through the register file exactly as in
       the unfused sequence. A straight-line group steps [pc] past its
       shadowed slots; a group ending in a transfer sets it. *)
    | PConstBr (c, b) ->
        const_step ri c;
        acct st fuel costs (cpc + 1);
        pc := branch st p ri b
    | PLoadBr (l, b) ->
        arr_load st ri rf l;
        acct st fuel costs (cpc + 1);
        pc := branch st p ri b
    | PMovJmp (m, j) ->
        mov_step ri m;
        acct st fuel costs (cpc + 1);
        pc := jump_to st p j
    | PStoreJmp (s, j) ->
        arr_store st ri rf s;
        acct st fuel costs (cpc + 1);
        pc := jump_to st p j
    | PConstJmp (c, j) ->
        const_step ri c;
        acct st fuel costs (cpc + 1);
        pc := jump_to st p j
    | PMovBr (m, b) ->
        mov_step ri m;
        acct st fuel costs (cpc + 1);
        pc := branch st p ri b
    | PSextLoad (x, l) ->
        sext_step st ri x;
        acct st fuel costs (cpc + 1);
        arr_load st ri rf l;
        pc := cpc + 2
    | PLoadSext (l, x) ->
        arr_load st ri rf l;
        acct st fuel costs (cpc + 1);
        sext_step st ri x;
        pc := cpc + 2
    | PLoadSextSub (l, x) ->
        arr_load st ri rf l;
        acct st fuel costs (cpc + 1);
        sextsub_step st ri x;
        pc := cpc + 2
    | PConstBin (c, b) ->
        const_step ri c;
        acct st fuel costs (cpc + 1);
        bin_step st ri b;
        pc := cpc + 2
    | PLoadLoad (l1, l2) ->
        arr_load st ri rf l1;
        acct st fuel costs (cpc + 1);
        arr_load st ri rf l2;
        pc := cpc + 2
    | PLoadStore (l, s) ->
        arr_load st ri rf l;
        acct st fuel costs (cpc + 1);
        arr_store st ri rf s;
        pc := cpc + 2
    | PStoreStore (s1, s2) ->
        arr_store st ri rf s1;
        acct st fuel costs (cpc + 1);
        arr_store st ri rf s2;
        pc := cpc + 2
    | PGStoreGLoad (s, g) ->
        gstore_step st ri s;
        acct st fuel costs (cpc + 1);
        gload_step st ri g;
        pc := cpc + 2
    | PBinBin (c1, b1, c2, b2) ->
        const_step ri c1;
        acct st fuel costs (cpc + 1);
        bin_step st ri b1;
        acct st fuel costs (cpc + 2);
        const_step ri c2;
        acct st fuel costs (cpc + 3);
        bin_step st ri b2;
        pc := cpc + 4
    | PBinMovJmp (c, b, m, j) ->
        const_step ri c;
        acct st fuel costs (cpc + 1);
        bin_step st ri b;
        acct st fuel costs (cpc + 2);
        mov_step ri m;
        acct st fuel costs (cpc + 3);
        pc := jump_to st p j
    | PStoreMovJmp (s, m, j) ->
        arr_store st ri rf s;
        acct st fuel costs (cpc + 1);
        mov_step ri m;
        acct st fuel costs (cpc + 2);
        pc := jump_to st p j
    | PBinBinBr (c1, b1, c2, b2, b) ->
        const_step ri c1;
        acct st fuel costs (cpc + 1);
        bin_step st ri b1;
        acct st fuel costs (cpc + 2);
        const_step ri c2;
        acct st fuel costs (cpc + 3);
        bin_step st ri b2;
        acct st fuel costs (cpc + 4);
        pc := branch st p ri b
    | PBinBinMovBr (c1, b1, c2, b2, m, b) ->
        const_step ri c1;
        acct st fuel costs (cpc + 1);
        bin_step st ri b1;
        acct st fuel costs (cpc + 2);
        const_step ri c2;
        acct st fuel costs (cpc + 3);
        bin_step st ri b2;
        acct st fuel costs (cpc + 4);
        mov_step ri m;
        acct st fuel costs (cpc + 5);
        pc := branch st p ri b
    | PLoadSxLoad (l1, x, l2) ->
        arr_load st ri rf l1;
        acct st fuel costs (cpc + 1);
        sext_step st ri x;
        acct st fuel costs (cpc + 2);
        arr_load st ri rf l2;
        pc := cpc + 3
    | PLoadSxLoadBr (l1, x, l2, b) ->
        arr_load st ri rf l1;
        acct st fuel costs (cpc + 1);
        sext_step st ri x;
        acct st fuel costs (cpc + 2);
        arr_load st ri rf l2;
        acct st fuel costs (cpc + 3);
        pc := branch st p ri b
    | PSxLoadBin (x, l, c, b) ->
        sext_step st ri x;
        acct st fuel costs (cpc + 1);
        arr_load st ri rf l;
        acct st fuel costs (cpc + 2);
        const_step ri c;
        acct st fuel costs (cpc + 3);
        bin_step st ri b;
        pc := cpc + 4
    | PSxLoadBinLoadBr (x, l, c, b, l2, br) ->
        sext_step st ri x;
        acct st fuel costs (cpc + 1);
        arr_load st ri rf l;
        acct st fuel costs (cpc + 2);
        const_step ri c;
        acct st fuel costs (cpc + 3);
        bin_step st ri b;
        acct st fuel costs (cpc + 4);
        arr_load st ri rf l2;
        acct st fuel costs (cpc + 5);
        pc := branch st p ri br
    | PLoad2Store2 (l1, l2, s1, s2) ->
        arr_load st ri rf l1;
        acct st fuel costs (cpc + 1);
        arr_load st ri rf l2;
        acct st fuel costs (cpc + 2);
        arr_store st ri rf s1;
        acct st fuel costs (cpc + 3);
        arr_store st ri rf s2;
        pc := cpc + 4
    | PSwapJmp (l1, l2, s1, s2, m, j) ->
        arr_load st ri rf l1;
        acct st fuel costs (cpc + 1);
        arr_load st ri rf l2;
        acct st fuel costs (cpc + 2);
        arr_store st ri rf s1;
        acct st fuel costs (cpc + 3);
        arr_store st ri rf s2;
        acct st fuel costs (cpc + 4);
        mov_step ri m;
        acct st fuel costs (cpc + 5);
        pc := jump_to st p j
    | PBinSext (c, b, x) ->
        const_step ri c;
        acct st fuel costs (cpc + 1);
        bin_step st ri b;
        acct st fuel costs (cpc + 2);
        sext_step st ri x;
        pc := cpc + 3
    | PBinSextMovJmp (c, b, x, m, j) ->
        const_step ri c;
        acct st fuel costs (cpc + 1);
        bin_step st ri b;
        acct st fuel costs (cpc + 2);
        sext_step st ri x;
        acct st fuel costs (cpc + 3);
        mov_step ri m;
        acct st fuel costs (cpc + 4);
        pc := jump_to st p j
    | PSextMovJmp (x, m, j) ->
        sext_step st ri x;
        acct st fuel costs (cpc + 1);
        mov_step ri m;
        acct st fuel costs (cpc + 2);
        pc := jump_to st p j
    | PGLoadBinBin (g, c1, b1, c2, b2) ->
        gload_step st ri g;
        acct st fuel costs (cpc + 1);
        const_step ri c1;
        acct st fuel costs (cpc + 2);
        bin_step st ri b1;
        acct st fuel costs (cpc + 3);
        const_step ri c2;
        acct st fuel costs (cpc + 4);
        bin_step st ri b2;
        pc := cpc + 5
  done

(** Call [fn], binding [argv] (packed caller registers) to the callee's
    parameters positionally. Extra arguments are ignored; a missing or
    kind-mismatched argument traps ["bad-call-arity"]. Parameter binding
    writes the raw caller value — the canonical machine does not re-extend
    at binding time (the structural engine's [List.iteri] does not either). *)
and call_fn st fn fid (caller_ri : regs) (caller_rf : float array)
    (argv : int array) : unit =
  st.depth <- st.depth + 1;
  if st.depth > max_depth then raise (Trap "stack-overflow");
  let p = resolve st fn fid in
  let n = max p.nregs 1 in
  let d = st.depth in
  let ri =
    let cur = st.fpool_i.(d) in
    if Bigarray.Array1.dim cur >= n then begin
      for k = 0 to n - 1 do
        Bigarray.Array1.unsafe_set cur k 0L
      done;
      cur
    end
    else begin
      let a = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout n in
      Bigarray.Array1.fill a 0L;
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
    else rset ri (pk lsr 1) (rget caller_ri (a lsr 1))
  done;
  exec st p ri rf;
  st.depth <- st.depth - 1

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let run ?(mode = `Faithful) ?(fuel = 2_000_000_000L) ?(count_cycles = true)
    ?profile ~fuse (prog : Prog.t) : outcome =
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
      fpool_i = Array.make (max_depth + 1) no_regs;
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
    match call_fn st prog.Prog.main (fslot prog.Prog.main) no_regs [||] [||] with
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
