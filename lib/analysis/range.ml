(** Interval value-range analysis for 32-bit registers.

    The paper's array theorems (Section 3) need compile-time range facts of
    the form [0 <= j <= 0x7fffffff] or [maxlen-1-0x7fffffff <= j] for
    subscript operands; the paper cites symbolic range propagation
    (Blume–Eigenmann) and Harrison's value-range analysis. We implement a
    classic interval dataflow over the CFG:

    - ranges describe the {e signed low 32 bits} of a register, which is
      well-defined whatever the upper 32 bits hold;
    - conditional branches refine ranges on their out-edges (IA64 [cmp4]
      compares exactly these low 32 bits, so refinement is sound even for
      unextended registers);
    - array accesses refine their index to [0, 0x7ffffffe] afterwards
      (the bounds check threw otherwise), mirroring the paper's [LS]
      predicate;
    - loops converge by widening after a fixed number of visits, followed
      by narrowing passes to recover bounds such as [i < n].

    Only [I32] registers are tracked. Queries replay the containing block
    from its entry state, so per-instruction results cost no memory. The
    replay runs in a buffer owned by the result, so a query allocates no
    state either.

    {b Sparse states.} A block boundary stores only the tracked registers
    live there ({!Liveness}): the entry state holds the registers live
    into the block, the exit state those live out of it plus the
    terminator's operands (edge refinement reads them, and they can be
    dead after the branch). Each is a compact array indexed by position
    in the block's sorted register array. About ten registers are live at
    a boundary against hundreds in a function, so the join, the merge,
    the containment test and the narrowing compare all loop over the live
    positions only. One dense scratch state, top at every register
    between uses, serves the body replays of the fixpoint and of the
    queries: a replay scatters the entry state into it, runs the body,
    and resets to top the registers it loaded or the body wrote.

    Two behaviours follow, both sound:
    - a register not live into a block answers [top] there until the
      block defines it, where a dense analysis answers the join of the
      predecessors' exits. Every client asks about an instruction's
      operands, its destination or the returned register, which are live
      where they are asked about, and at a live register the answer is
      the dense analysis's;
    - a block's visit counter, which schedules widening, grows only when
      a {e live-in} register grows: growth of a dead register no longer
      hastens the widening of the live ones. Widening is sound at any
      visit, so only precision could differ, and none did on the
      workloads or on random CFGs (the [parity] tests).

    {b The fixpoint works in place.} Each block's entry and exit states
    are allocated once, when {!compute} starts, and are updated in place
    from then on. A visit joins the edge-refined exits of the block's
    predecessors into one compact scratch buffer. Branch refinement
    touches only the two compared registers, so no state is copied per
    edge. Merging and widening then write into the entry state directly.
    The exit state of a block is recomputed only after its entry has
    changed.

    {b Dirty blocks.} Both phases skip a block when no predecessor's exit
    has changed since the block's last visit. The skip is exact. A visit
    leaves the entry containing the join it just computed: the first
    visit stores it, a merge or a widening only grows it, and otherwise
    the join was already contained. A block's entry changes only during
    its own visits. So a visit whose predecessor exits are unchanged
    recomputes the same join, finds it contained, and changes nothing:
    skipping it leaves the visit counters, the widening decisions and the
    final states exactly as a full round-robin sweep would. In the
    narrowing phase a visit stores its join outright, so the same
    argument applies. *)


open Sxe_ir
open Types

type interval = int64 * int64

let i32_min = Int64.of_int32 Int32.min_int
let i32_max = Int64.of_int32 Int32.max_int
let top : interval = (i32_min, i32_max)
let in_i32 v = v >= i32_min && v <= i32_max

let clamp ((lo, hi) : interval) : interval =
  if in_i32 lo && in_i32 hi && lo <= hi then (lo, hi) else top

let join (a : interval) (b : interval) : interval =
  (min (fst a) (fst b), max (snd a) (snd b))

(** Greatest lower bound; a contradictory result marks a dead path, where
    any answer is sound — we collapse to a point. *)
let meet ((alo, ahi) : interval) ((blo, bhi) : interval) : interval =
  let lo = max alo blo and hi = min ahi bhi in
  if lo <= hi then (lo, hi) else (lo, lo)

(* ------------------------------------------------------------------ *)
(* Interval arithmetic                                                 *)
(* ------------------------------------------------------------------ *)

let binop_interval op ((llo, lhi) : interval) ((rlo, rhi) : interval) : interval =
  let open Int64 in
  match op with
  | Types.Add -> clamp (add llo rlo, add lhi rhi)
  | Types.Sub -> clamp (sub llo rhi, sub lhi rlo)
  | Types.Mul ->
      let cands = [ mul llo rlo; mul llo rhi; mul lhi rlo; mul lhi rhi ] in
      clamp (List.fold_left min (List.hd cands) cands, List.fold_left max (List.hd cands) cands)
  | Types.Div ->
      if rlo >= 1L || rhi <= -1L then begin
        let cands = [ div llo rlo; div llo rhi; div lhi rlo; div lhi rhi ] in
        clamp (List.fold_left min (List.hd cands) cands, List.fold_left max (List.hd cands) cands)
      end
      else top
  | Types.Rem ->
      if rlo >= 1L then begin
        let m = sub rhi 1L in
        if llo >= 0L then (0L, min lhi m) else clamp (neg m, m)
      end
      else top
  | Types.And ->
      if llo >= 0L && rlo >= 0L then (0L, min lhi rhi)
      else if rlo >= 0L then (0L, rhi)
      else if llo >= 0L then (0L, lhi)
      else top
  | Types.Or | Types.Xor ->
      if llo >= 0L && rlo >= 0L then begin
        let rec pow2m1 x p = if p >= x then p else pow2m1 x (add (mul p 2L) 1L) in
        (0L, pow2m1 (max lhi rhi) 1L)
      end
      else top
  | Types.Shl ->
      if rlo = rhi && rlo >= 0L && rlo < 31L then
        clamp (shift_left llo (to_int rlo), shift_left lhi (to_int rlo))
      else top
  | Types.AShr ->
      if rlo >= 0L && rhi <= 31L then begin
        let a = to_int rlo and b = to_int rhi in
        (min (shift_right llo a) (shift_right llo b), max (shift_right lhi a) (shift_right lhi b))
      end
      else top
  | Types.LShr ->
      (* the 32-bit logical shift of the (upper-zero, possibly guarded)
         operand: a known-positive amount drops the sign bit, so the
         result is a non-negative int32 bounded by [0xFFFFFFFF >> lo];
         a non-negative operand stays within its own shifted bound even
         for a possibly-zero amount *)
      if rlo >= 0L && rhi <= 31L then begin
        if llo >= 0L then (0L, shift_right_logical lhi (to_int rlo))
        else if rlo >= 1L then (0L, shift_right_logical 0xFFFF_FFFFL (to_int rlo))
        else top
      end
      else top

let unop_interval op ((lo, hi) : interval) : interval =
  let open Int64 in
  match op with
  | Types.Neg -> clamp (neg hi, neg lo)
  | Types.Not -> clamp (sub (neg hi) 1L, sub (neg lo) 1L)

(* ------------------------------------------------------------------ *)
(* Per-instruction transfer                                            *)
(* ------------------------------------------------------------------ *)

(* The mutable per-block state is stored as a flat native-int array
   ([lo] at [2r], [hi] at [2r+1]): every bound is within the int32 range,
   which fits OCaml's immediate ints, so states copy with [Array.blit],
   join with integer compares and allocate nothing per element. *)
type state = int array

let sget (st : state) r : interval = (Int64.of_int st.(2 * r), Int64.of_int st.((2 * r) + 1))

let sset (st : state) r ((lo, hi) : interval) =
  st.(2 * r) <- Int64.to_int lo;
  st.((2 * r) + 1) <- Int64.to_int hi


let i32_min_int = Int64.to_int i32_min
let i32_max_int = Int64.to_int i32_max

(** Set the first [n] intervals of a state to [top]. *)
let fill_top (st : state) n =
  for k = 0 to n - 1 do
    st.(2 * k) <- i32_min_int;
    st.((2 * k) + 1) <- i32_max_int
  done


(** Largest possible valid index: length <= 0x7fffffff, index < length. *)
let max_index = Int64.sub i32_max 1L

let narrow_to bound iv = if fst iv >= fst bound && snd iv <= snd bound then iv else bound

(** [call_ranges] is the interprocedural hook: a summary of the callee's
    [I32] return-value interval, when one is known ({!Summary}). Absent
    (the default), call results are [top] — the intraprocedural reading
    every existing client keeps. *)
let transfer ?call_ranges ~(tracked : bool array) (st : state) (i : Instr.t) =
  let set r iv = if tracked.(r) then sset st r iv in
  let get r = if tracked.(r) then sget st r else top in
  match i.op with
  | Const { dst; ty = I32; v; _ } -> set dst (v, v)
  | Const _ | FConst _ -> ()
  | Mov { dst; src; ty = I32 } -> set dst (if tracked.(src) then get src else top)
  | Mov _ -> ()
  | Unop { dst; op; src; w = W32 } -> set dst (unop_interval op (get src))
  | Unop _ -> ()
  | Binop { dst; op; l; r; w = W32 } -> set dst (binop_interval op (get l) (get r))
  | Binop _ -> ()
  | Cmp { dst; _ } | FCmp { dst; _ } -> set dst (0L, 1L)
  | Sext { r; from = W32 } | Zext { r; from = W32 } | JustExt { r } ->
      (* value of the low 32 bits unchanged; a dummy extension additionally
         witnesses a successful bounds check *)
      if (match i.op with JustExt _ -> true | _ -> false) then
        set r (meet (get r) (0L, max_index))
  | Sext { r; from = W8 } -> set r (narrow_to (-128L, 127L) (get r))
  | Sext { r; from = W16 } -> set r (narrow_to (-32768L, 32767L) (get r))
  | Sext { r = _; from = W64 } -> ()
  | Zext { r; from = W8 } -> set r (narrow_to (0L, 255L) (get r))
  | Zext { r; from = W16 } -> set r (narrow_to (0L, 65535L) (get r))
  | Zext { r = _; from = W64 } -> ()
  | I2D _ | L2D _ | D2L _ | FBinop _ | FNeg _ -> ()
  | D2I { dst; _ } -> set dst top
  | NewArr { len; _ } -> set len (meet (get len) (0L, i32_max))
  | ArrLoad { dst; idx; elem; lext; _ } ->
      set idx (meet (get idx) (0L, max_index));
      (match (elem, lext) with
      | AI8, LZero -> set dst (0L, 255L)
      | AI8, LSign -> set dst (-128L, 127L)
      | AI16, LZero -> set dst (0L, 65535L)
      | AI16, LSign -> set dst (-32768L, 32767L)
      | AI32, _ -> set dst top
      | (AI64 | AF64 | ARef), _ -> ())
  | ArrStore { idx; _ } -> set idx (meet (get idx) (0L, max_index))
  | ArrLen { dst; _ } -> set dst (0L, i32_max)
  | GLoad { dst; ty = I32; _ } -> set dst top
  | GLoad _ | GStore _ -> ()
  | Call { dst = Some d; ret = Some I32; fn; _ } ->
      set d
        (match call_ranges with
        | Some summary -> (
            match summary fn with Some iv -> clamp iv | None -> top)
        | None -> top)
  | Call _ -> ()

(* ------------------------------------------------------------------ *)
(* Branch refinement                                                   *)
(* ------------------------------------------------------------------ *)

let refine1 ((xlo, xhi) : interval) cond ((ylo, yhi) : interval) : interval =
  let open Int64 in
  match cond with
  | Eq -> meet (xlo, xhi) (ylo, yhi)
  | Ne ->
      if ylo = yhi then
        if xlo = ylo && xlo < xhi then (add xlo 1L, xhi)
        else if xhi = ylo && xlo < xhi then (xlo, sub xhi 1L)
        else (xlo, xhi)
      else (xlo, xhi)
  | Lt -> if yhi > i32_min then meet (xlo, xhi) (i32_min, sub yhi 1L) else (xlo, xhi)
  | Le -> meet (xlo, xhi) (i32_min, yhi)
  | Gt -> if ylo < i32_max then meet (xlo, xhi) (add ylo 1L, i32_max) else (xlo, xhi)
  | Ge -> meet (xlo, xhi) (ylo, i32_max)


(* ------------------------------------------------------------------ *)
(* Sparse states                                                       *)
(* ------------------------------------------------------------------ *)

(* A compact state over a sorted register array [regs] has the layout of
   a dense one with positions for registers: the interval of [regs.(k)]
   is at [2k] and [2k + 1], so [sget]/[sset] read and write it by
   position. *)

(** Position of register [r] in the sorted array [regs], or [-1]. *)
let index_of (regs : int array) r =
  let lo = ref 0 and hi = ref (Array.length regs) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if regs.(mid) < r then lo := mid + 1 else hi := mid
  done;
  if !lo < Array.length regs && regs.(!lo) = r then !lo else -1

(** The tracked registers of [set], ascending. *)
let tracked_array ~(tracked : bool array) set =
  let count r n = if tracked.(r) then n + 1 else n in
  let regs = Array.make (Sxe_util.Bitset.fold count set 0) 0 in
  let add r k =
    if tracked.(r) then begin
      regs.(k) <- r;
      k + 1
    end
    else k
  in
  ignore (Sxe_util.Bitset.fold add set 0);
  regs

(** Write the compact state [c] over [regs] into the dense state [st]. *)
let scatter (st : state) (regs : int array) (c : state) =
  for k = 0 to Array.length regs - 1 do
    let r = regs.(k) in
    st.(2 * r) <- c.(2 * k);
    st.((2 * r) + 1) <- c.((2 * k) + 1)
  done

(** Read the compact state [c] over [regs] out of the dense state [st]. *)
let gather (st : state) (regs : int array) (c : state) =
  for k = 0 to Array.length regs - 1 do
    let r = regs.(k) in
    c.(2 * k) <- st.(2 * r);
    c.((2 * k) + 1) <- st.((2 * r) + 1)
  done

(** Reset the registers [regs] of the dense state [st] to [top]. *)
let reset_top (st : state) (regs : int array) =
  for k = 0 to Array.length regs - 1 do
    let r = regs.(k) in
    st.(2 * r) <- i32_min_int;
    st.((2 * r) + 1) <- i32_max_int
  done

(** [join_edge ~tracked ~first acc ~into out ~from term succ] joins into
    [acc], a compact state over [into] (the live-in registers of [succ]),
    the exit state [out] over [from] of a block ending in [term], improved
    with the facts the branch guarantees on the edge to [succ];
    [~first:true] overwrites [acc] instead. [into] is a subset of [from]:
    a register live into a successor is live out of its predecessor, so
    one walk over both sorted arrays finds every position. Only the two
    compared registers differ from [out], so the refined state is never
    materialised: their refined intervals are computed from [out], and
    [acc] is patched at those two registers where they are live. *)
let join_edge ~(tracked : bool array) ~first (acc : state) ~into (out : state) ~from term succ
    =
  let refined =
    match term with
    (* A taken-and-fallthrough pair to the same block teaches nothing. *)
    | Instr.Br { cond; l; r; w = W32; ifso; ifnot }
      when tracked.(l) && tracked.(r) && ifso <> ifnot ->
        let c = if succ = ifso then cond else Types.negate_cond cond in
        let il = sget out (index_of from l) and ir = sget out (index_of from r) in
        let l' = refine1 il c ir in
        (* [r] is refined after [l], as on a copy: when [l = r] it starts
           from [l'], and its write below overrides [l']'s *)
        let r' = refine1 (if r = l then l' else ir) (Types.swap_cond c) il in
        Some (index_of into l, l', index_of into r, r')
    | _ -> None
  in
  let before k = if k >= 0 then sget acc k else top in
  let al, ar =
    match refined with
    | Some (kl, _, kr, _) when not first -> (before kl, before kr)
    | _ -> (top, top)
  in
  let j = ref 0 in
  for k = 0 to Array.length into - 1 do
    while from.(!j) <> into.(k) do
      incr j
    done;
    let lo = out.(2 * !j) and hi = out.((2 * !j) + 1) in
    if first then begin
      acc.(2 * k) <- lo;
      acc.((2 * k) + 1) <- hi
    end
    else begin
      if lo < acc.(2 * k) then acc.(2 * k) <- lo;
      if hi > acc.((2 * k) + 1) then acc.((2 * k) + 1) <- hi
    end
  done;
  match refined with
  | Some (kl, l', kr, r') ->
      if kl >= 0 then sset acc kl (if first then l' else join al l');
      if kr >= 0 then sset acc kr (if first then r' else join ar r')
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                            *)
(* ------------------------------------------------------------------ *)

type t = {
  func : Cfg.func;
  live_in : int array array;
      (** per block, the tracked registers live into it, sorted *)
  entry_states : state array;  (** per block, a compact state over [live_in] *)
  writes : int array array;
      (** per block, the tracked registers its body writes: with
          [live_in], every register a replay of the block sets *)
  tracked : bool array;
  call_ranges : (string -> interval option) option;
      (** kept so {!before}/{!after} replays see the same call facts the
          fixpoint did *)
  scratch : state;
      (** the dense replay buffer, [top] at every register between
          replays, so a [t] must not be queried from two domains at once *)
}

let widen_threshold = 3

(** Widening with thresholds: jump an unstable bound to the nearest
    program constant (plus a few standard marks) instead of straight to
    infinity — loop bounds like [i < n] survive the ascending phase this
    way, where a plain widen-then-narrow cannot recover them through the
    header join. Sorted ascending, as native ints. *)
let collect_thresholds (f : Cfg.func) =
  let acc = ref [ -1L; 0L; 1L; 255L; 65535L; i32_min; i32_max ] in
  Cfg.iter_instrs
    (fun _ i ->
      match i.Instr.op with
      | Instr.Const { ty = I32; v; _ } ->
          acc := v :: Int64.add v 1L :: Int64.sub v 1L :: !acc
      | _ -> ())
    f;
  Array.of_list (List.map Int64.to_int (List.sort_uniq compare (List.filter in_i32 !acc)))

(** The last widening step: every unstable bound jumps to the type's. *)
let full_range = [| i32_min_int; i32_max_int |]

(** Largest threshold [<= x], else [i32_min] (binary search). *)
let threshold_below (thresholds : int array) x =
  let lo = ref 0 and hi = ref (Array.length thresholds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if thresholds.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then i32_min_int else thresholds.(!lo - 1)

(** Smallest threshold [>= x], else [i32_max] (binary search). *)
let threshold_above (thresholds : int array) x =
  let lo = ref 0 and hi = ref (Array.length thresholds) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if thresholds.(mid) < x then lo := mid + 1 else hi := mid
  done;
  if !lo = Array.length thresholds then i32_max_int else thresholds.(!lo)

(** Merge the join [fresh] into the entry state [cur] in place: a plain
    join for the first [widen_threshold] growing visits, then threshold
    widening, then — still climbing after several threshold hops — a jump
    to the full range so convergence stays linear. Both are compact
    states over the same registers; [fresh] may be longer. *)
let merge_into ~visits ~thresholds (cur : state) (fresh : state) =
  let widen_with =
    if visits > (2 * widen_threshold) + 3 then Some full_range
    else if visits > widen_threshold then Some thresholds
    else None
  in
  for k = 0 to (Array.length cur / 2) - 1 do
    let lo = 2 * k and hi = (2 * k) + 1 in
    if fresh.(lo) < cur.(lo) then
      cur.(lo) <-
        (match widen_with with Some ts -> threshold_below ts fresh.(lo) | None -> fresh.(lo));
    if fresh.(hi) > cur.(hi) then
      cur.(hi) <-
        (match widen_with with Some ts -> threshold_above ts fresh.(hi) | None -> fresh.(hi))
  done

(** The first [Array.length b] words of [a] are pointwise contained in
    [b]: [a] is more precise than or equal to [b]. *)
let state_le (a : state) (b : state) =
  let rec go k =
    k < 0 || (a.(2 * k) >= b.(2 * k) && a.((2 * k) + 1) <= b.((2 * k) + 1) && go (k - 1))
  in
  go ((Array.length b / 2) - 1)

(** The first [Array.length b] words of [a] equal [b]. *)
let state_eq (a : state) (b : state) =
  let rec go k = k < 0 || (a.(k) = b.(k) && go (k - 1)) in
  go (Array.length b - 1)

let compute ?call_ranges (f : Cfg.func) =
  let nregs = Cfg.num_regs f in
  let nblocks = Cfg.num_blocks f in
  let tracked = Array.init nregs (fun r -> Cfg.reg_ty f r = I32) in
  let live = Liveness.compute f in
  let live_in = Array.init nblocks (fun b -> tracked_array ~tracked (Liveness.live_in live b)) in
  (* the terminator's operands stay in the exit state even when dead
     after it: edge refinement reads them *)
  let live_out =
    Array.init nblocks (fun b ->
        let set = Sxe_util.Bitset.copy (Liveness.live_out live b) in
        List.iter (Sxe_util.Bitset.add set) (Instr.term_uses (Cfg.term (Cfg.block f b)));
        tracked_array ~tracked set)
  in
  (* besides its definition, [transfer] writes the operand an array
     access or allocation refines *)
  let writes =
    Array.init nblocks (fun b ->
        let add acc r = if tracked.(r) then r :: acc else acc in
        let step acc (i : Instr.t) =
          let acc = Option.fold ~none:acc ~some:(add acc) (Instr.def i.op) in
          match i.op with
          | ArrLoad { idx; _ } | ArrStore { idx; _ } -> add acc idx
          | NewArr { len; _ } -> add acc len
          | _ -> acc
        in
        Array.of_list (List.fold_left step [] (Cfg.body (Cfg.block f b))))
  in
  let compact regs =
    let st = Array.make (2 * Array.length regs) 0 in
    fill_top st (Array.length regs);
    st
  in
  let entry_states = Array.map compact live_in in
  let exit_states = Array.map compact live_out in
  let exit_valid = Array.make nblocks false in
  let scratch = Array.make (2 * nregs) 0 in
  fill_top scratch nregs;
  (* the join of a visit, over the visited block's live-in registers *)
  let fresh = Array.make (Array.fold_left (fun m st -> max m (Array.length st)) 0 entry_states) 0 in
  let preds = Cfg.preds f in
  let reach = Cfg.reachable f in
  let rpo = Cfg.rpo f in
  let entry = Cfg.entry f in
  let visits = Array.make nblocks 0 in
  let thresholds = collect_thresholds f in
  (* blocks whose entry state has been computed at least once; states of
     untouched blocks are bottom (not top) so a loop header's first visit
     sees only its forward predecessors — essential for keeping bounds
     like [0 <= i] through the ascending phase *)
  let computed = Array.make nblocks false in
  if nblocks > 0 then computed.(entry) <- true;
  (* a block's exit state is recomputed only when its entry has changed *)
  let out_state bid =
    let st = exit_states.(bid) in
    if not exit_valid.(bid) then begin
      scatter scratch live_in.(bid) entry_states.(bid);
      List.iter
        (fun i -> transfer ?call_ranges ~tracked scratch i)
        (Cfg.body (Cfg.block f bid));
      gather scratch live_out.(bid) st;
      reset_top scratch live_in.(bid);
      reset_top scratch writes.(bid);
      exit_valid.(bid) <- true
    end;
    st
  in
  (* [dirty.(b)]: some predecessor's exit may have changed since [b] was
     last visited (see the module header for why skipping clean blocks is
     exact) *)
  let dirty = Array.make nblocks true in
  let entry_changed bid =
    exit_valid.(bid) <- false;
    List.iter (fun s -> dirty.(s) <- true) (Cfg.succs (Cfg.block f bid))
  in
  (* the join over the computed predecessors, into [fresh] *)
  let join_preds bid =
    let first = ref true in
    List.iter
      (fun p ->
        if reach.(p) && computed.(p) then begin
          join_edge ~tracked ~first:!first fresh ~into:live_in.(bid) (out_state p)
            ~from:live_out.(p)
            (Cfg.term (Cfg.block f p))
            bid;
          first := false
        end)
      preds.(bid);
    if !first then fill_top fresh (Array.length live_in.(bid))
  in
  let visit bid =
    let go = reach.(bid) && bid <> entry && dirty.(bid) in
    if go then begin
      dirty.(bid) <- false;
      join_preds bid
    end;
    go
  in
  (* ascending phase with widening *)
  let changed = ref true in
  let guard = ref 0 in
  while !changed do
    incr guard;
    if !guard > 1000 then
      raise (Dataflow.No_convergence { analysis = "Range.compute"; func = f.Cfg.name });
    changed := false;
    List.iter
      (fun bid ->
        if visit bid then begin
          let cur = entry_states.(bid) in
          if not computed.(bid) then begin
            Array.blit fresh 0 cur 0 (Array.length cur);
            computed.(bid) <- true;
            entry_changed bid;
            changed := true
          end
          else if not (state_le fresh cur) then begin
            visits.(bid) <- visits.(bid) + 1;
            merge_into ~visits:visits.(bid) ~thresholds cur fresh;
            entry_changed bid;
            changed := true
          end
        end)
      rpo
  done;
  (* descending (narrowing) phase: a few plain recomputations *)
  Array.fill dirty 0 nblocks true;
  for _ = 1 to 2 do
    List.iter
      (fun bid ->
        if visit bid then begin
          let cur = entry_states.(bid) in
          if not (state_eq fresh cur) then begin
            Array.blit fresh 0 cur 0 (Array.length cur);
            entry_changed bid
          end
        end)
      rpo
  done;
  { func = f; live_in; entry_states; writes; tracked; call_ranges; scratch }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* Replay block [bid] from its entry state in [t.scratch], stopping just
   before instruction [upto] or just after [through] (pass [-1] for
   neither), and read register [r] there. A stop missing from the block
   yields the state at its end. The scratch is back to all-[top] after. *)
let replay t bid ~upto ~through r : interval =
  if r >= Array.length t.tracked || not t.tracked.(r) then top
  else begin
    let st = t.scratch in
    scatter st t.live_in.(bid) t.entry_states.(bid);
    let rec go = function
      | [] -> ()
      | (i : Instr.t) :: rest ->
          if i.iid <> upto then begin
            transfer ?call_ranges:t.call_ranges ~tracked:t.tracked st i;
            if i.iid <> through then go rest
          end
    in
    go (Cfg.body (Cfg.block t.func bid));
    let lo = st.(2 * r) and hi = st.((2 * r) + 1) in
    reset_top st t.live_in.(bid);
    reset_top st t.writes.(bid);
    (Int64.of_int lo, Int64.of_int hi)
  end

(** Range of register [r] immediately before instruction [iid] in block
    [bid]. *)
let before t ~bid ~iid r = replay t bid ~upto:iid ~through:(-1) r

(** Range of the value produced by instruction [iid] (which must define a
    tracked register), immediately after it. *)
let after t ~bid ~iid r = replay t bid ~upto:(-1) ~through:iid r

(** Range of register [r] at the end of block [bid], just before the
    terminator — the state a [Ret] observes. *)
let at_exit t ~bid r = replay t bid ~upto:(-1) ~through:(-1) r

(** Does [r]'s 32-bit value lie within [lo, hi] just before [iid]? *)
let within t ~bid ~iid r ~lo ~hi =
  let blo, bhi = before t ~bid ~iid r in
  blo >= lo && bhi <= hi
