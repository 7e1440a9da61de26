(** The elimination analysis of Section 2.3 and Section 3: [AnalyzeUSE],
    [AnalyzeDEF], [AnalyzeARRAY] (Theorems 1-4) and [EliminateOneExtend],
    all over UD/DU chains.

    An extension [EXT: r = extend(r)] is removable when either
    - no use reached by it observes the upper 32 bits of [r]
      ([AnalyzeUSE]; array-subscript uses go through [AnalyzeARRAY]), or
    - every definition of [r] reaching it is already sign-extended
      ([AnalyzeDEF]).

    Per the paper, each instruction carries USE/DEF/ARRAY visit flags that
    are reset per [EliminateOneExtend] call (we use a generation counter);
    a flagged revisit returns "satisfied", the coinductive assumption that
    makes loop-carried chains work. Two soundness refinements the paper's
    prose leaves implicit:

    - {b the extension under analysis does not vouch for itself}: when the
      candidate [EXT] shows up as a reaching definition inside its own
      analysis, it is treated as already deleted and forwards to its own
      reaching definitions (otherwise a loop-carried [i = i + 1] could
      justify deleting the only extension that grounds it);
    - flagged cycles are only reached through extension-preserving
      instructions (copies, bitwise ops, dummy extensions after
      bounds-checked accesses), so assuming them satisfied is the usual
      coinduction grounded by loop entry. *)

open Sxe_ir
open Sxe_ir.Types
open Sxe_analysis

(** Per-node analysis state. The paper describes boolean "visited" flags
    reset per [EliminateOneExtend]; a visited node must however answer with
    its {e result} when it has one — treating "visited, found required" as
    "satisfied" on a revisit would let one sub-analysis launder another's
    failure. We therefore memoize: a node on the current recursion path
    ([In_progress]) answers with the coinductive default (the cycles these
    analyses can form only pass through extension-preserving instructions,
    so assuming success on the cycle is the usual greatest-fixpoint
    argument, grounded at loop entry); a finished node answers its stored
    verdict. *)
type memo = In_progress | Done of bool

type 'k table = ('k, int * memo) Hashtbl.t (* generation, state *)

type ctx = {
  f : Cfg.func;
  chains : Chains.t;
  ranges : Range.t;
  maxlen : int64;
  array_enabled : bool;
  stats : Stats.t;
  mutable current : Instr.t;  (** the extension under analysis *)
  mutable gen : int;
  use_memo : (int * int * bool) table;  (** (use key, tracked register, array analyzability) *)
  def_memo : int table;  (** def key *)
  arr_memo : (int * int64) table;  (** (def key, maxlen) *)
  uz_memo : int table;  (** def key *)
  from_memo : (int * int) table;  (** (def key, width bits) *)
}

let create ~f ~chains ~ranges ~maxlen ~array_enabled ~stats =
  {
    f;
    chains;
    ranges;
    maxlen;
    array_enabled;
    stats;
    current = Cfg.mk_instr f (Instr.JustExt { r = 0 });
    gen = 0;
    use_memo = Hashtbl.create 64;
    def_memo = Hashtbl.create 64;
    arr_memo = Hashtbl.create 64;
    uz_memo = Hashtbl.create 64;
    from_memo = Hashtbl.create 64;
  }

(** [memoized tbl gen key ~default compute]: [default] answers recursive
    revisits while [compute] runs; the final verdict is stored. *)
let memoized tbl gen key ~default compute =
  match Hashtbl.find_opt tbl key with
  | Some (g, Done r) when g = gen -> r
  | Some (g, In_progress) when g = gen -> default
  | _ ->
      Hashtbl.replace tbl key (gen, In_progress);
      let r = compute () in
      Hashtbl.replace tbl key (gen, Done r);
      r

let ext_reg (i : Instr.t) =
  match i.op with
  | Instr.Sext { r; _ } | Instr.Zext { r; _ } | Instr.JustExt { r } -> r
  | _ -> invalid_arg "Analyze.ext_reg"

let is_self ctx (i : Instr.t) = i.Instr.iid = ctx.current.Instr.iid

let range_before ctx (i : Instr.t) r =
  let bid = Chains.block_of_instr ctx.chains i in
  Range.before ctx.ranges ~bid ~iid:i.Instr.iid r

let range_after ctx (i : Instr.t) r =
  let bid = Chains.block_of_instr ctx.chains i in
  Range.after ctx.ranges ~bid ~iid:i.Instr.iid r

let nonneg32 (lo, hi) = lo >= 0L && hi <= Range.i32_max

(* ------------------------------------------------------------------ *)
(* AnalyzeDEF: is the value already sign-extended?                      *)
(* Returns true when a sign extension IS required (not proven).         *)
(* ------------------------------------------------------------------ *)

let rec analyze_def ctx (site : Reaching.def_site) : bool =
  match site with
  | Reaching.DParam r -> Cfg.reg_ty ctx.f r <> I32 (* I32 params arrive extended (ABI) *)
  | Reaching.DIns i ->
      memoized ctx.def_memo ctx.gen i.Instr.iid ~default:false @@ fun () ->
      if is_self ctx i then
        (* the candidate extension vouches only through its own inputs *)
        List.exists (analyze_def ctx) (Chains.ud_at_instr ctx.chains i (ext_reg i))
      else if Instr.def_always_extended i.op then false
      else if match i.op with Instr.Call { ret = Some I32; _ } -> true | _ -> false then
        (* assume-guarantee per the ABI, as in the certifier's transfer:
           an I32 call result arrives extended from the callee's Ret *)
        false
      else begin
        (* range-assisted Case 1 first: a zero-upper-half result with a
           non-negative value is sign-extended, and so is an AND "where
           either operand is known to have a positive value" (the paper's
           example) — one full register provably in [0, 0x7fffffff] zeroes
           the result's upper half and its sign bit *)
        let case1 =
          (match Instr.def i.op with
          | Some d -> Instr.def_upper_zero i.op && nonneg32 (range_after ctx i d)
          | None -> false)
          ||
          match i.op with
          | Instr.Binop { op = And; l; r; w = W32; _ } ->
              full_nonneg ctx i l || full_nonneg ctx i r
          | Instr.Binop { op = Div; l; r; w = W32; _ } ->
              (* the quotient of extended operands is a genuine int32
                 unless it is [min_int / -1] *)
              let llo, _ = range_before ctx i l in
              let rlo, rhi = range_before ctx i r in
              llo > Range.i32_min || rlo > -1L || rhi < -1L
          | Instr.Binop { op = (Add | Sub) as bop; l; r; w = W32; _ } ->
              (* no-overflow sum/difference of extended operands: the
                 64-bit machine result then equals the mathematical one,
                 and interval arithmetic bounding that inside int32 rules
                 the wrap out — so extendedness survives the operation.
                 This is what lets [extended_from] discharge sub-width
                 truncating extensions whose operand ranges already fit
                 the width window (the certifier's Transfer mirrors the
                 fact). *)
              let llo, lhi = range_before ctx i l in
              let rlo, rhi = range_before ctx i r in
              let mlo, mhi =
                if bop = Add then (Int64.add llo rlo, Int64.add lhi rhi)
                else (Int64.sub llo rhi, Int64.sub lhi rlo)
              in
              let srcs_ext s =
                Cfg.reg_ty ctx.f s = I32
                &&
                let defs = Chains.ud_at_instr ctx.chains i s in
                defs <> [] && List.for_all (fun d -> not (analyze_def ctx d)) defs
              in
              mlo >= Range.i32_min && mhi <= Range.i32_max && srcs_ext l
              && srcs_ext r
          | _ -> false
        in
        if case1 then false
        else begin
          match Instr.extended_if_srcs_extended i.op with
          | Some srcs ->
              (* Case 2: extended iff every definition of every source is *)
              List.exists
                (fun s ->
                  Cfg.reg_ty ctx.f s <> I32
                  || List.exists (analyze_def ctx) (Chains.ud_at_instr ctx.chains i s))
                srcs
          | None -> true
        end
      end

(** Is the full 64-bit register [s] provably in [0, 0x7fffffff] just before
    instruction [i]? (Value non-negative, and upper bits either zero or a
    copy of the zero sign.) *)
and full_nonneg ctx (i : Instr.t) s =
  Cfg.reg_ty ctx.f s = I32
  && nonneg32 (range_before ctx i s)
  &&
  let defs = Chains.ud_at_instr ctx.chains i s in
  defs <> []
  && (List.for_all (fun d -> not (analyze_def ctx d)) defs
     || List.for_all (upper_zero ctx) defs)

(* ------------------------------------------------------------------ *)
(* Upper 32 bits known zero (Theorems 1 and 3)                          *)
(* ------------------------------------------------------------------ *)

and upper_zero ctx (site : Reaching.def_site) : bool =
  match site with
  | Reaching.DParam _ -> false
  | Reaching.DIns i ->
      memoized ctx.uz_memo ctx.gen i.Instr.iid ~default:true @@ fun () ->
      if is_self ctx i then
        List.for_all (upper_zero ctx) (Chains.ud_at_instr ctx.chains i (ext_reg i))
      else if Instr.def_upper_zero i.op then true
      else begin
        let dst_nonneg () =
          match Instr.def i.op with
          | Some d -> nonneg32 (range_after ctx i d)
          | None -> false
        in
        if Instr.def_always_extended i.op && dst_nonneg () then true
        else begin
          let all_uz s =
            Cfg.reg_ty ctx.f s = I32
            &&
            let defs = Chains.ud_at_instr ctx.chains i s in
            defs <> [] && List.for_all (upper_zero ctx) defs
          in
          match i.op with
          | Instr.Mov { src; ty = I32; _ } -> all_uz src
          | Instr.Binop { op = And; l; r; w = W32; _ } -> all_uz l || all_uz r
          | Instr.Binop { op = Or | Xor; l; r; w = W32; _ } -> all_uz l && all_uz r
          | Instr.Binop { op = LShr; l; w = W32; _ } ->
              (* the faithful shift of an upper-zero value can only
                 shrink it; with upper garbage (and a possibly-zero
                 amount) nothing is known, so this is recursive, not
                 structural *)
              all_uz l
          | _ -> false
        end
      end

(* ------------------------------------------------------------------ *)
(* AnalyzeARRAY: Theorems 1-4 (Section 3)                               *)
(* ------------------------------------------------------------------ *)

(** Effective maximum length of the array read/written by [access]: the
    configured bound, sharpened when every reaching definition of the array
    reference is an allocation with a known length range. *)
let maxlen_for ctx (access : Instr.t) arr =
  (* chase the array reference through copies to its allocations *)
  let rec alloc_bound seen site =
    match site with
    | Reaching.DIns ({ Instr.op = Instr.NewArr { len; _ }; _ } as a) ->
        let _, hi = range_before ctx a len in
        Some hi
    | Reaching.DIns ({ Instr.op = Instr.Mov { src; ty = Ref; _ }; _ } as m)
      when not (List.mem m.Instr.iid seen) ->
        bound_of_defs (m.Instr.iid :: seen) (Chains.ud_at_instr ctx.chains m src)
    | _ -> None
  and bound_of_defs seen defs =
    if defs = [] then None
    else
      let bounds = List.map (alloc_bound seen) defs in
      if List.for_all Option.is_some bounds then
        Some (List.fold_left (fun acc b -> max acc (Option.get b)) 0L bounds)
      else None
  in
  match bound_of_defs [] (Chains.ud_at_instr ctx.chains access arr) with
  | Some m -> min ctx.maxlen (max m 0L)
  | None -> ctx.maxlen

let record_theorem ctx n =
  ctx.stats.Stats.by_theorem.(n) <- ctx.stats.Stats.by_theorem.(n) + 1

(** Can the subscript value defined by [site] feed an effective-address
    computation without the candidate extension? *)
let rec subscript_ok ctx ~maxlen (site : Reaching.def_site) : bool =
  match site with
  | Reaching.DParam r -> Cfg.reg_ty ctx.f r = I32 (* extended by ABI *)
  | Reaching.DIns i ->
      memoized ctx.arr_memo ctx.gen (i.Instr.iid, maxlen) ~default:true @@ fun () ->
      if is_self ctx i then
        List.for_all (subscript_ok ctx ~maxlen) (Chains.ud_at_instr ctx.chains i (ext_reg i))
      else if not (analyze_def ctx site) then true (* already sign-extended *)
      else if upper_zero ctx site then begin
        record_theorem ctx 1;
        true
      end
      else begin
        let all_ext s =
          Cfg.reg_ty ctx.f s = I32
          &&
          let defs = Chains.ud_at_instr ctx.chains i s in
          defs <> [] && List.for_all (fun d -> not (analyze_def ctx d)) defs
        in
        let all_uz s =
          Cfg.reg_ty ctx.f s = I32
          &&
          let defs = Chains.ud_at_instr ctx.chains i s in
          defs <> [] && List.for_all (upper_zero ctx) defs
        in
        let neg (lo, hi) = (Int64.neg hi, Int64.neg lo) in
        match i.op with
        | Instr.Binop { op = (Add | Sub) as bop; l; r; w = W32; _ } ->
            let rl = range_before ctx i l in
            let rr = range_before ctx i r in
            (* ranges of the two addends of the subscript sum *)
            let addend_l = rl in
            let addend_r = if bop = Sub then neg rr else rr in
            let t4_lo = Int64.sub maxlen 0x8000_0000L in
            (* (maxlen - 1) - 0x7fffffff *)
            let in_t2 (lo, hi) = lo >= 0L && hi <= Range.i32_max in
            let in_t4 (lo, hi) = lo >= t4_lo && hi <= Range.i32_max in
            if all_ext l && all_ext r && (in_t4 addend_l || in_t4 addend_r) then begin
              record_theorem ctx (if in_t2 addend_l || in_t2 addend_r then 2 else 4);
              true
            end
            else if
              (* Theorem 3: i - j with upper bits of i zero, 0 <= j *)
              (all_uz l && in_t2 (neg addend_r)) || (bop = Add && all_uz r && in_t2 (neg addend_l))
            then begin
              record_theorem ctx 3;
              true
            end
            else false
        | Instr.Mov { src; ty = I32; _ } when Cfg.reg_ty ctx.f src = I32 ->
            let defs = Chains.ud_at_instr ctx.chains i src in
            defs <> [] && List.for_all (subscript_ok ctx ~maxlen) defs
        | _ -> false
      end

(** [analyze_array ctx access]: may the candidate extension be omitted for
    the effective-address computation of [access]? (Returns [true] when
    the extension IS required.) The defs examined are those of the
    extension's source, as in the paper. *)
let analyze_array ctx (access : Instr.t) : bool =
  let arr, _idx = Option.get (Instr.array_index_use access.Instr.op) in
  let maxlen = maxlen_for ctx access arr in
  let defs = Chains.ud_at_instr ctx.chains ctx.current (ext_reg ctx.current) in
  not (defs <> [] && List.for_all (subscript_ok ctx ~maxlen) defs)

(* ------------------------------------------------------------------ *)
(* AnalyzeUSE                                                          *)
(* ------------------------------------------------------------------ *)

let use_key = function Chains.UIns i -> i.Instr.iid | Chains.UTerm bid -> -1 - bid

(** [analyze_use ctx use ~tracked ~analyze_array]: does [use] (directly or
    through Case-2 propagation) observe the upper 32 bits of register
    [tracked]? [tracked] starts as the candidate extension's register and
    is re-pointed at each propagating instruction's destination. *)
let rec analyze_use ctx (use : Chains.use_site) ~tracked ~analyze_array:aa : bool =
  memoized ctx.use_memo ctx.gen (use_key use, tracked, aa) ~default:false @@ fun () ->
  begin
    let reg_ty x = Cfg.reg_ty ctx.f x in
    match use with
    | Chains.UTerm bid ->
        List.mem tracked
          (Instr.required_ext_uses_term ~reg_ty (Cfg.term (Cfg.block ctx.f bid)))
    | Chains.UIns i -> (
        match Instr.array_index_use i.op with
        | Some (_, idx) when idx = tracked ->
            if aa && ctx.array_enabled then analyze_array ctx i else true
        | _ ->
            if List.mem tracked (Instr.required_ext_uses ~reg_ty i.op) then true
            else if List.mem tracked (Instr.required_zext_uses ~reg_ty i.op) then
              (* the faithful LShr observes the full left register: an
                 upper-bit observer of the zero kind *)
              true
            else if List.mem tracked (Instr.demand_propagates_to i.op) then begin
              (* Case 2: the source matters only if the destination does.
                 Array analyzability survives only through plain copies. *)
              let aa' =
                aa && match i.op with Instr.Mov { ty = I32; _ } -> true | _ -> false
              in
              match Instr.def i.op with
              | Some dst ->
                  List.exists
                    (fun u -> analyze_use ctx u ~tracked:dst ~analyze_array:aa')
                    (Chains.du_of_instr ctx.chains i)
              | None -> false
            end
            else false (* Case 1: upper 32 bits cannot affect [i] *))
  end

(* ------------------------------------------------------------------ *)
(* Sub-32-bit extensions: definition-side analysis at their width        *)
(* ------------------------------------------------------------------ *)

(** Is the value already sign-extended {e from} the given sub-width? True
    when additionally the full register is 32-bit-extended and the 32-bit
    value fits the sub-width range. *)
let rec extended_from ctx ~from (site : Reaching.def_site) : bool =
  let wlo, whi = Types.window Sign from in
  match site with
  | Reaching.DParam _ -> false
  | Reaching.DIns i ->
      memoized ctx.from_memo ctx.gen (i.Instr.iid, Types.bits_of_width from) ~default:true
      @@ fun () ->
      if is_self ctx i then
        List.for_all (extended_from ctx ~from) (Chains.ud_at_instr ctx.chains i (ext_reg i))
      else begin
        let fits () =
          match Instr.def i.op with
          | Some d ->
              let lo, hi = range_after ctx i d in
              lo >= wlo && hi <= whi
          | None -> false
        in
        match i.op with
        | Instr.Sext { from = f'; _ } when Types.bits_of_width f' <= Types.bits_of_width from
          ->
            true
        | Instr.Mov { src; ty = I32; _ } when Cfg.reg_ty ctx.f src = I32 ->
            let defs = Chains.ud_at_instr ctx.chains i src in
            defs <> [] && List.for_all (extended_from ctx ~from) defs
        | _ -> (not (analyze_def ctx site)) && fits ()
      end

(** Is the value already zero-extended {e from} the given width? (The
    symmetric fact to {!extended_from}, used to remove redundant [Zext]
    instructions — an extension beyond the paper, which only eliminates
    sign extensions.) *)
let rec zero_extended_from ctx ~from (site : Reaching.def_site) : bool =
  let _, whi = Types.window Zero from in
  match site with
  | Reaching.DParam _ -> false
  | Reaching.DIns i ->
      memoized ctx.from_memo ctx.gen (i.Instr.iid, -Types.bits_of_width from) ~default:true
      @@ fun () ->
      if is_self ctx i then
        List.for_all (zero_extended_from ctx ~from) (Chains.ud_at_instr ctx.chains i (ext_reg i))
      else begin
        let fits () =
          match Instr.def i.op with
          | Some d ->
              let lo, hi = range_after ctx i d in
              lo >= 0L && hi <= whi
          | None -> false
        in
        match i.op with
        | Instr.Zext { from = f'; _ } when Types.bits_of_width f' <= Types.bits_of_width from
          ->
            true
        | Instr.ArrLoad { elem = AI8; lext = LZero; _ } -> true
        | Instr.ArrLoad { elem = AI16; lext = LZero; _ }
          when Types.bits_of_width from >= 16 ->
            true
        | Instr.Mov { src; ty = I32; _ } when Cfg.reg_ty ctx.f src = I32 ->
            let defs = Chains.ud_at_instr ctx.chains i src in
            defs <> [] && List.for_all (zero_extended_from ctx ~from) defs
        | _ when from = W32 || from = W64 ->
            (* zero-extended from 32 IS the upper-zero fact; the range
               analysis speaks signed int32, so requiring a non-negative
               range here would wrongly reject e.g. an upper-zero
               0xFFFFFFFF *)
            upper_zero ctx site
        | _ ->
            (* value provably in [0, 2^w) and the register's upper 32 bits
               zero: the whole register equals its zero extension *)
            fits () && upper_zero ctx site
      end

(* ------------------------------------------------------------------ *)
(* EliminateOneExtend                                                  *)
(* ------------------------------------------------------------------ *)

type verdict = Kept | Eliminated

(** Is the value defined at [site] already [kind]-extended from [from]
    bits, so that the candidate extension would be the identity on it? *)
let already_extended ctx ~kind ~from site =
  match (kind, from) with
  | Sign, W32 -> not (analyze_def ctx site)
  | Sign, _ -> extended_from ctx ~from site
  | Zero, _ -> zero_extended_from ctx ~from site

(** The paper's [EliminateOneExtend], for either kind at any width:
    delete the extension when every reaching definition is already
    extended. A [W32] extension is also removable when no reached use
    observes the upper half ([AnalyzeUSE], of either kind); 8/16-bit
    extensions change the low 32 bits, so for them only the definitions
    decide. The UD/DU chains are updated incrementally. *)
let eliminate_one ctx (ext : Instr.t) : verdict =
  ctx.gen <- ctx.gen + 1;
  ctx.current <- ext;
  let kind, r, from =
    match Instr.ext_kind ext.op with
    | Some k -> k
    | None -> invalid_arg "Analyze.eliminate_one: not an extension"
  in
  let required_by_uses () =
    List.exists
      (fun u -> analyze_use ctx u ~tracked:r ~analyze_array:true)
      (Chains.du_of_instr ctx.chains ext)
  in
  let required =
    (from <> W32 || required_by_uses ())
    &&
    let defs = Chains.ud_at_instr ctx.chains ext r in
    not (defs <> [] && List.for_all (already_extended ctx ~kind ~from) defs)
  in
  if required then Kept
  else begin
    Chains.delete_same_reg_def ctx.chains ext;
    ctx.stats.Stats.eliminated <- ctx.stats.Stats.eliminated + 1;
    if kind = Zero then
      ctx.stats.Stats.eliminated_zext <- ctx.stats.Stats.eliminated_zext + 1;
    Eliminated
  end
