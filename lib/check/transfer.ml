(** Abstract transfer functions of the extension-state interpreter.

    Each rule mirrors one proof path of the eliminator
    ([Sxe_core.Analyze]): the structural facts of
    {!Sxe_ir.Instr.def_always_extended} / [def_upper_zero], the
    conditional facts of [extended_if_srcs_extended], the range-based
    upgrades of [AnalyzeDEF] case 1, and the array Theorems 1–4 for the
    [asafe] bit. Whatever the eliminator can prove about a definition,
    these rules can re-prove about its uses — that parity is what makes
    certification of optimized output complete in practice, and every
    rule is individually sound for the VM semantics, which is what makes
    it a certifier at all.

    Range-derived facts are precomputed once per function (the range
    analysis replays blocks per query, far too slow to call inside a
    fixpoint iteration). *)

open Sxe_ir
open Sxe_ir.Types
module Bitset = Sxe_util.Bitset
module Range = Sxe_analysis.Range

(* Range facts of one instruction. [nonneg_after] upgrades a destination
   known extended-or-upper-zero to both (a non-negative int32 reads back
   equal under either extension); the rest are the addend-interval
   hypotheses of Theorems 2-4 and the non-negative-operand rule for
   [And]. *)
type rfacts = {
  nonneg_after : bool;
  window_after : int;
      (** sub-width windows the destination's range provably fits, as
          {!Sxe_check.Extstate}-shaped bits: bit 0 = signed 8, bit 1 =
          signed 16, bit 2 = unsigned 8, bit 3 = unsigned 16 *)
  nn_l : bool;  (** [And]: left operand provably in [0, 2{^31}-1] before *)
  nn_r : bool;
  t4_l : bool;  (** [Add]/[Sub]: left addend within [maxlen - 2{^31}, 2{^31}-1] *)
  t4_r : bool;
  t3_l : bool;  (** Theorem 3 with the {e left} operand upper-zero *)
  t3_r : bool;
  nof : bool;
      (** [Add]/[Sub]: the {e mathematical} sum/difference of the
          operand intervals fits int32, so the 64-bit machine result of
          extended operands cannot wrap — extendedness survives
          (mirrors the eliminator's range-assisted [AnalyzeDEF] rule for
          no-overflow arithmetic). [Div]: the dividend's interval
          excludes [min_int] or the divisor's excludes [-1], so the
          quotient of extended operands is not [2{^31}] *)
}

let no_facts =
  {
    nonneg_after = false;
    window_after = 0;
    nn_l = false;
    nn_r = false;
    t4_l = false;
    t4_r = false;
    t3_l = false;
    t3_r = false;
    nof = false;
  }

type env = {
  f : Cfg.func;
  nregs : int;
  facts : (int, rfacts) Hashtbl.t;  (** keyed by instruction [iid] *)
}

let nregs env = env.nregs
let func env = env.f

let nonneg32 (lo, hi) = lo >= 0L && hi <= Range.i32_max

let make ?(maxlen = Types.max_array_length) ?call_ranges (f : Cfg.func) : env =
  let ranges = Range.compute ?call_ranges f in
  let facts = Hashtbl.create 64 in
  let i32 r = Cfg.reg_ty f r = I32 in
  (* Theorem 4 hypothesis for an addend interval: adding it to a valid
     subscript of any array (length <= maxlen) cannot wrap an int32 nor
     reach below -(2^31 - maxlen), so the 32-bit sum still indexes or
     bounds-faults identically with or without extension. Theorem 2 is
     the [lo >= 0] special case. *)
  let t4_lo = Int64.sub maxlen 0x8000_0000L in
  let in_t4 (lo, hi) = lo >= t4_lo && hi <= Range.i32_max in
  let in_t2 (lo, hi) = lo >= 0L && hi <= Range.i32_max in
  let neg (lo, hi) = (Int64.neg hi, Int64.neg lo) in
  Cfg.iter_instrs
    (fun b i ->
      let bid = b.Cfg.bid in
      let iid = i.Instr.iid in
      let before r = Range.before ranges ~bid ~iid r in
      let base =
        match Instr.def i.Instr.op with
        | Some d when i32 d ->
            let ((lo, hi) as after) = Range.after ranges ~bid ~iid d in
            let bit k wlo whi = if lo >= wlo && hi <= whi then k else 0 in
            {
              no_facts with
              nonneg_after = nonneg32 after;
              window_after =
                bit 1 (-128L) 127L lor bit 2 (-32768L) 32767L
                lor bit 4 0L 255L lor bit 8 0L 65535L;
            }
        | _ -> no_facts
      in
      let fs =
        match i.Instr.op with
        | Instr.Binop { op = And; l; r; w = W32; _ } ->
            { base with nn_l = nonneg32 (before l); nn_r = nonneg32 (before r) }
        | Instr.Binop { op = (Add | Sub) as bop; l; r; w = W32; _ } ->
            let addend_l = before l in
            let addend_r = if bop = Sub then neg (before r) else before r in
            let (llo, lhi) = addend_l and (rlo, rhi) = addend_r in
            (* the mathematical (unwrapped) sum of the addend intervals;
               operand bounds are int32, so the int64 adds cannot
               themselves overflow *)
            let mlo = Int64.add llo rlo and mhi = Int64.add lhi rhi in
            {
              base with
              t4_l = in_t4 addend_l;
              t4_r = in_t4 addend_r;
              (* Theorem 3: one operand upper-zero, the other a
                 non-positive addend no smaller than -(2^31 - 1). For
                 [Sub] only the left operand can play the upper-zero
                 role (the subtrahend enters negated). *)
              t3_l = in_t2 (neg addend_r);
              t3_r = bop = Add && in_t2 (neg addend_l);
              nof = mlo >= Range.i32_min && mhi <= Range.i32_max;
            }
        | Instr.Binop { op = Div; l; r; w = W32; _ } ->
            let (llo, _) = before l and (rlo, rhi) = before r in
            { base with nof = llo > Range.i32_min || rlo > -1L || rhi < -1L }
        | _ -> base
      in
      if fs <> no_facts then Hashtbl.replace facts iid fs)
    f;
  { f; nregs = Cfg.num_regs f; facts }

(* ------------------------------------------------------------------ *)
(* Intra-block copy classes                                            *)
(* ------------------------------------------------------------------ *)

(** Registers holding the same full 64-bit value, tracked through [I32]
    register-to-register copies within a block — the certifier's
    analogue of the eliminator following [Mov] chains. When an array
    access proves its index extended (see below), every register in the
    index's class is refined with it. *)
type copies = { mutable next : int; tok : (int, int) Hashtbl.t }

let copies_create () = { next = 0; tok = Hashtbl.create 8 }

let copies_reset c =
  c.next <- 0;
  Hashtbl.reset c.tok

(* Absent entries map to a per-register negative token, distinct from
   the positive generated ones: registers start in singleton classes. *)
let tok_of c r = match Hashtbl.find_opt c.tok r with Some t -> t | None -> -r - 1

let fresh_tok c r =
  c.next <- c.next + 1;
  Hashtbl.replace c.tok r c.next

let copy_tok c ~dst ~src = if dst <> src then Hashtbl.replace c.tok dst (tok_of c src)
let same_value c a b = a = b || tok_of c a = tok_of c b

(* ------------------------------------------------------------------ *)
(* One instruction                                                     *)
(* ------------------------------------------------------------------ *)

let step env (copies : copies) (st : Bitset.t) (i : Instr.t) =
  let i32 r = Cfg.reg_ty env.f r = I32 in
  let get r = Extstate.get st r in
  let fs =
    match Hashtbl.find_opt env.facts i.Instr.iid with Some f -> f | None -> no_facts
  in
  (* A bounds-checked access proves its index: the check passes only if
     the low 32 bits are a valid subscript, and the effective address
     consumes the full register, so past the access the surviving value
     is non-negative with the upper half matching — else the access
     would have faulted as a wild access. This is the static analogue of
     the JustExt dummy the inserter records after array accesses, and it
     is what keeps [a\[i\]; i = i + 1] loops certifiable after their
     extension is deleted. The whole copy class of the index is refined. *)
  (match Instr.array_index_use i.Instr.op with
  | Some (_, idx) when i32 idx ->
      for r = 0 to env.nregs - 1 do
        if i32 r && same_value copies r idx then Extstate.set st r Extstate.nonneg
      done
  | _ -> ());
  match i.Instr.op with
  | Instr.Mov { dst; src; ty = I32 } when i32 src && i32 dst ->
      Extstate.set st dst (get src);
      copy_tok copies ~dst ~src
  | Instr.JustExt { r } ->
      (* analysis marker: asserts extendedness, changes no bits, so the
         copy class survives. *)
      let s = get r in
      Extstate.set st r { s with Extstate.ext = true; asafe = true }
  | op -> (
      match Instr.def op with
      | Some dst when i32 dst ->
          (* width-32-only facts, the pre-generalization triple *)
          let v32 e z a = { Extstate.garbage with Extstate.ext = e; zup = z; asafe = a } in
          let v =
            match op with
            | Instr.Const { v; _ } ->
                let inr lo hi = v >= lo && v <= hi in
                {
                  Extstate.s8 = inr (-128L) 127L;
                  s16 = inr (-32768L) 32767L;
                  ext = inr (Int64.of_int32 Int32.min_int) (Int64.of_int32 Int32.max_int);
                  z8 = inr 0L 255L;
                  z16 = inr 0L 0xFFFFL;
                  zup = inr 0L 0xFFFF_FFFFL;
                  asafe = false;
                }
            | Instr.Mov _ ->
                (* l2i truncation: the I64 source's upper half is live
                   garbage from the I32 point of view. *)
                Extstate.garbage
            | Instr.Sext { from; _ } | Instr.Zext { from; _ } ->
                (* An extension establishes its own (kind × width) fact;
                   when the operand already carried that fact the
                   operation is the identity and every prior fact
                   survives (e.g. re-sign-extending an upper-zero value
                   keeps it upper-zero only if it was already
                   non-negative — the fact-conjunction says exactly
                   that). *)
                let kind = match op with Instr.Sext _ -> Sign | _ -> Zero in
                let s = get dst in
                let prim = Extstate.of_ext kind from in
                if Extstate.fact kind from s then Extstate.join s prim else prim
            | Instr.Unop { op = Not; src; w = W32; _ } ->
                (* complement flips every bit, so sign-replication
                   survives at each width; zeroed upper bits do not. *)
                let s = get src in
                {
                  Extstate.garbage with
                  Extstate.s8 = s.Extstate.s8;
                  s16 = s.Extstate.s16;
                  ext = s.Extstate.ext;
                }
            | Instr.Binop { op = And; l; r; w = W32; _ } ->
                let sl = get l and sr = get r in
                (* sign-extended if both operands are, or if either is a
                   provably non-negative int32 whose register reads the
                   same under either extension (AnalyzeDEF's And rule):
                   the sign bit of the result is then 0 and the upper
                   half is anded against zero or all-ones consistently.
                   Zero bits are conjunctive per operand: anding against
                   a zero upper half clears the result's. *)
                let clears s nn = nn && (s.Extstate.ext || s.Extstate.zup) in
                {
                  Extstate.s8 = sl.Extstate.s8 && sr.Extstate.s8;
                  s16 = sl.Extstate.s16 && sr.Extstate.s16;
                  ext =
                    (sl.Extstate.ext && sr.Extstate.ext)
                    || clears sl fs.nn_l || clears sr fs.nn_r;
                  z8 = sl.Extstate.z8 || sr.Extstate.z8;
                  z16 = sl.Extstate.z16 || sr.Extstate.z16;
                  zup = sl.Extstate.zup || sr.Extstate.zup;
                  asafe = false;
                }
            | Instr.Binop { op = Or | Xor; l; r; w = W32; _ } ->
                let sl = get l and sr = get r in
                {
                  Extstate.s8 = sl.Extstate.s8 && sr.Extstate.s8;
                  s16 = sl.Extstate.s16 && sr.Extstate.s16;
                  ext = sl.Extstate.ext && sr.Extstate.ext;
                  z8 = sl.Extstate.z8 && sr.Extstate.z8;
                  z16 = sl.Extstate.z16 && sr.Extstate.z16;
                  zup = sl.Extstate.zup && sr.Extstate.zup;
                  asafe = false;
                }
            | Instr.Binop { op = Add | Sub; l; r; w = W32; _ } ->
                (* overflow escapes the int32 range, so in general
                   neither extendedness nor upper-zero survives — but
                   Theorems 2-4 still certify the sum as a subscript,
                   and when interval arithmetic proves the mathematical
                   result fits int32 ([nof]) the wrap cannot happen and
                   extended operands yield an extended result. *)
                let sl = get l and sr = get r in
                let both_ext = sl.Extstate.ext && sr.Extstate.ext in
                let t2_t4 = both_ext && (fs.t4_l || fs.t4_r) in
                let t3 =
                  (sl.Extstate.zup && fs.t3_l) || (sr.Extstate.zup && fs.t3_r)
                in
                v32 (both_ext && fs.nof) false (t2_t4 || t3)
            | Instr.Binop { op = Div; w = W32; _ } ->
                (* extended inputs give a genuine int32 quotient, except
                   [min_int / -1 = 2{^31}] *)
                v32 fs.nof false false
            | Instr.Binop { op = Rem; w = W32; _ } ->
                v32 true false false (* extended inputs: genuine int32 result *)
            | Instr.Binop { op = AShr; w = W32; _ } -> v32 true false false
            | Instr.Binop { op = LShr; l; w = W32; _ } ->
                (* faithful shr.u of the full register (the operand is
                   zext-guarded): shifting right can only shrink an
                   upper-zero value, and the amount may be zero, so each
                   zero-fact survives; sign facts survive only for
                   non-negative inputs (where they coincide with zero
                   facts). *)
                let sl = get l in
                {
                  Extstate.garbage with
                  Extstate.ext = sl.Extstate.ext && sl.Extstate.zup;
                  z8 = sl.Extstate.z8;
                  z16 = sl.Extstate.z16;
                  zup = sl.Extstate.zup;
                }
            | Instr.Binop _ | Instr.Unop _ -> Extstate.garbage
            | Instr.Cmp _ | Instr.FCmp _ ->
                { Extstate.garbage with Extstate.s8 = true; z8 = true } (* 0/1 *)
            | Instr.D2I _ -> v32 true false false (* saturated to int32 *)
            | Instr.ArrLen _ -> v32 true true false (* in [0, 2^31-1] *)
            | Instr.ArrLoad { elem = AI8; lext; _ } ->
                Extstate.of_ext (Types.ekind_of_lext lext) W8
            | Instr.ArrLoad { elem = AI16; lext; _ } ->
                Extstate.of_ext (Types.ekind_of_lext lext) W16
            | Instr.ArrLoad { elem = AI32; lext; _ } ->
                Extstate.of_ext (Types.ekind_of_lext lext) W32
            | Instr.ArrLoad _ -> Extstate.garbage
            | Instr.GLoad { ty = I32; lext; _ } ->
                Extstate.of_ext (Types.ekind_of_lext lext) W32
            | Instr.Call _ -> v32 true false false
                (* assume-guarantee per the ABI: I32 results arrive
                   extended from the callee's Ret, which the certifier
                   checks in the callee. *)
            | _ -> Extstate.garbage
          in
          (* range upgrade: a non-negative int32 that is extended or
             upper-zero is both — and at each sub-width the sign fact
             yields the zero fact (a non-negative sign-extended byte is
             an unsigned byte). *)
          let v =
            if (v.Extstate.ext || v.Extstate.zup) && fs.nonneg_after then
              {
                v with
                Extstate.ext = true;
                zup = true;
                z8 = v.Extstate.z8 || v.Extstate.s8;
                z16 = v.Extstate.z16 || v.Extstate.s16;
              }
            else v
          in
          (* window upgrade: an extended value whose range fits a signed
             sub-width window is sign-extended from that width (the full
             register equals the sub-width extension of its low bits);
             symmetrically for upper-zero values and unsigned windows. *)
          let v =
            let w k = fs.window_after land k <> 0 in
            if fs.window_after = 0 then v
            else
              {
                v with
                Extstate.s8 = v.Extstate.s8 || (v.Extstate.ext && w 1);
                s16 = v.Extstate.s16 || (v.Extstate.ext && w 2);
                z8 = v.Extstate.z8 || (v.Extstate.zup && w 4);
                z16 = v.Extstate.z16 || (v.Extstate.zup && w 8);
              }
          in
          Extstate.set st dst v;
          fresh_tok copies dst
      | _ -> ())

(** Block transfer for {!Sxe_analysis.Dataflow.solve}: fold {!step} over
    the body. Copy classes are intra-block (reset per invocation). *)
let block_transfer env (copies : copies) bid (input : Bitset.t) =
  let st = Bitset.copy input in
  copies_reset copies;
  List.iter (step env copies st) (Cfg.body (Cfg.block env.f bid));
  st
