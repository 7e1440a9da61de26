(** Reference implementations kept as test oracles: the round-robin
    [Range] fixpoint that copied a state per edge and per visit, the
    [Dce] that rebuilt UD/DU chains every round, the [Localcse] that
    copied its tables per instruction, the blind three-round [Summary],
    and Step 2 driven by those passes. They are the code the library ran
    before its allocation-free rewrite, kept verbatim so that parity
    tests can hold the rewrite to identical answers. Nothing outside the
    tests uses them. *)

open Sxe_ir

(** The round-robin range fixpoint, over the library's own transfer and
    refinement functions. *)
module Range_ref = struct
  open Types
  open Sxe_analysis.Range

  let in_i32 v = v >= i32_min && v <= i32_max

  let sget (st : state) r : interval = (Int64.of_int st.(2 * r), Int64.of_int st.((2 * r) + 1))

  let sset (st : state) r ((lo, hi) : interval) =
    st.(2 * r) <- Int64.to_int lo;
    st.((2 * r) + 1) <- Int64.to_int hi

  let state_make nregs : state =
    let st = Array.make (2 * nregs) 0 in
    for r = 0 to nregs - 1 do
      st.(2 * r) <- Int64.to_int i32_min;
      st.((2 * r) + 1) <- Int64.to_int i32_max
    done;
    st

  (** [refine_for_edge ~tracked st term succ] is a copy of [st] improved with
      the facts the branch guarantees on the edge to [succ]. *)
  let refine_for_edge ~(tracked : bool array) (st : state) term succ =
    match term with
    | Instr.Br { cond; l; r; w = W32; ifso; ifnot } when tracked.(l) && tracked.(r) ->
        let st' = Array.copy st in
        let apply c =
          sset st' l (refine1 (sget st' l) c (sget st r));
          sset st' r (refine1 (sget st' r) (Types.swap_cond c) (sget st l))
        in
        (* A taken-and-fallthrough pair to the same block teaches nothing. *)
        if ifso = ifnot then st'
        else begin
          if succ = ifso then apply cond else apply (Types.negate_cond cond);
          st'
        end
    | _ -> st

  type t = {
    func : Cfg.func;
    entry_states : state array;
    tracked : bool array;
    call_ranges : (string -> interval option) option;
        (** kept so {!before}/{!after} replays see the same call facts the
            fixpoint did *)
  }

  let widen_threshold = 3

  (** Widening with thresholds: jump an unstable bound to the nearest
      program constant (plus a few standard marks) instead of straight to
      infinity — loop bounds like [i < n] survive the ascending phase this
      way, where a plain widen-then-narrow cannot recover them through the
      header join. *)
  let collect_thresholds (f : Cfg.func) =
    let acc = ref [ -1L; 0L; 1L; 255L; 65535L; i32_min; i32_max ] in
    Cfg.iter_instrs
      (fun _ i ->
        match i.Instr.op with
        | Instr.Const { ty = I32; v; _ } ->
            acc := v :: Int64.add v 1L :: Int64.sub v 1L :: !acc
        | _ -> ())
      f;
    let arr = Array.of_list (List.sort_uniq compare (List.filter in_i32 !acc)) in
    arr

  let widen ~thresholds (prev : interval) (next : interval) : interval =
    let lo =
      if fst next < fst prev then begin
        (* largest threshold <= next.lo *)
        let best = ref i32_min in
        Array.iter (fun t -> if t <= fst next && t > !best then best := t) thresholds;
        !best
      end
      else fst prev
    in
    let hi =
      if snd next > snd prev then begin
        let best = ref i32_max in
        Array.iter (fun t -> if t >= snd next && t < !best then best := t) thresholds;
        !best
      end
      else snd prev
    in
    (lo, hi)

  let compute ?call_ranges (f : Cfg.func) =
    let nregs = Cfg.num_regs f in
    let nblocks = Cfg.num_blocks f in
    let tracked = Array.init nregs (fun r -> Cfg.reg_ty f r = I32) in
    let entry_states = Array.init nblocks (fun _ -> state_make nregs) in
    let preds = Cfg.preds f in
    let reach = Cfg.reachable f in
    let rpo = Cfg.rpo f in
    let visits = Array.make nblocks 0 in
    let thresholds = collect_thresholds f in
    (* blocks whose entry state has been computed at least once; states of
       untouched blocks are bottom (not top) so a loop header's first visit
       sees only its forward predecessors — essential for keeping bounds
       like [0 <= i] through the ascending phase *)
    let computed = Array.make nblocks false in
    if nblocks > 0 then computed.(Cfg.entry f) <- true;
    (* exit states are cached; a block's cache is dropped when its entry
       state changes *)
    let out_cache : state option array = Array.make nblocks None in
    let out_state bid =
      match out_cache.(bid) with
      | Some st -> st
      | None ->
          let st = Array.copy entry_states.(bid) in
          List.iter (fun i -> transfer ?call_ranges ~tracked st i) (Cfg.body (Cfg.block f bid));
          out_cache.(bid) <- Some st;
          st
    in
    let set_entry bid st =
      entry_states.(bid) <- st;
      out_cache.(bid) <- None
    in
    let entry_from_preds bid =
      let ps = List.filter (fun p -> reach.(p) && computed.(p)) preds.(bid) in
      match ps with
      | [] -> state_make nregs
      | _ ->
          let contribs =
            List.map
              (fun p ->
                let o = out_state p in
                refine_for_edge ~tracked o (Cfg.term (Cfg.block f p)) bid)
              ps
          in
          let acc = Array.copy (List.hd contribs) in
          List.iter
            (fun (c : state) ->
              for k = 0 to nregs - 1 do
                if c.(2 * k) < acc.(2 * k) then acc.(2 * k) <- c.(2 * k);
                if c.((2 * k) + 1) > acc.((2 * k) + 1) then acc.((2 * k) + 1) <- c.((2 * k) + 1)
              done)
            (List.tl contribs);
          acc
    in
    let state_le (a : state) (b : state) =
      (* a more precise or equal to b, pointwise containment *)
      let ok = ref true in
      for k = 0 to nregs - 1 do
        if a.(2 * k) < b.(2 * k) || a.((2 * k) + 1) > b.((2 * k) + 1) then ok := false
      done;
      !ok
    in
    (* ascending phase with widening *)
    let changed = ref true in
    let guard = ref 0 in
    while !changed do
      incr guard;
      if !guard > 1000 then failwith "Range.compute: no convergence";
      changed := false;
      List.iter
        (fun bid ->
          if reach.(bid) && bid <> Cfg.entry f then begin
            let fresh = entry_from_preds bid in
            if not computed.(bid) then begin
              set_entry bid fresh;
              computed.(bid) <- true;
              changed := true
            end
            else if not (state_le fresh entry_states.(bid)) then begin
              visits.(bid) <- visits.(bid) + 1;
              let merged =
                let cur = entry_states.(bid) in
                let m = state_make nregs in
                for r = 0 to nregs - 1 do
                  let combined =
                    if visits.(bid) > (2 * widen_threshold) + 3 then
                      (* still climbing after several threshold hops: give up
                         and jump to full range so convergence stays linear *)
                      widen ~thresholds:[| i32_min; i32_max |] (sget cur r) (sget fresh r)
                    else if visits.(bid) > widen_threshold then
                      widen ~thresholds (sget cur r) (sget fresh r)
                    else join (sget cur r) (sget fresh r)
                  in
                  sset m r combined
                done;
                m
              in
              set_entry bid merged;
              changed := true
            end
          end)
        rpo
    done;
    (* descending (narrowing) phase: a few plain recomputations *)
    for _ = 1 to 2 do
      List.iter
        (fun bid ->
          if reach.(bid) && bid <> Cfg.entry f then set_entry bid (entry_from_preds bid))
        rpo
    done;
    { func = f; entry_states; tracked; call_ranges }

  (* ------------------------------------------------------------------ *)
  (* Queries                                                             *)
  (* ------------------------------------------------------------------ *)

  (** Range of register [r] immediately before instruction [iid] in block
      [bid]. *)
  let before t ~bid ~iid r =
    if r >= Array.length t.tracked || not t.tracked.(r) then top
    else begin
      let st = Array.copy t.entry_states.(bid) in
      let rec go = function
        | [] -> sget st r
        | (i : Instr.t) :: rest ->
            if i.iid = iid then sget st r
            else begin
              transfer ?call_ranges:t.call_ranges ~tracked:t.tracked st i;
              go rest
            end
      in
      go (Cfg.body (Cfg.block t.func bid))
    end

  (** Range of the value produced by instruction [iid] (which must define a
      tracked register), immediately after it. *)
  let after t ~bid ~iid r =
    if r >= Array.length t.tracked || not t.tracked.(r) then top
    else begin
      let st = Array.copy t.entry_states.(bid) in
      let rec go = function
        | [] -> sget st r
        | (i : Instr.t) :: rest ->
            transfer ?call_ranges:t.call_ranges ~tracked:t.tracked st i;
            if i.iid = iid then sget st r else go rest
      in
      go (Cfg.body (Cfg.block t.func bid))
    end

  (** Range of register [r] at the end of block [bid], just before the
      terminator — the state a [Ret] observes. *)
  let at_exit t ~bid r =
    if r >= Array.length t.tracked || not t.tracked.(r) then top
    else begin
      let st = Array.copy t.entry_states.(bid) in
      List.iter
        (fun i -> transfer ?call_ranges:t.call_ranges ~tracked:t.tracked st i)
        (Cfg.body (Cfg.block t.func bid));
      sget st r
    end

  (** Does [r]'s 32-bit value lie within [lo, hi] just before [iid]? *)
  let within t ~bid ~iid r ~lo ~hi =
    let blo, bhi = before t ~bid ~iid r in
    blo >= lo && bhi <= hi
end

(** Dead code elimination rebuilding the chains every round. *)
module Dce_ref = struct
  let run_once (f : Cfg.func) =
    let chains = Sxe_analysis.Chains.build f in
    let dead = ref [] in
    Cfg.iter_instrs
      (fun b i ->
        match Instr.def i.Instr.op with
        | Some _
          when (not (Instr.has_side_effect i.Instr.op))
               && Sxe_analysis.Chains.du_of_instr chains i = [] ->
            dead := (b.Cfg.bid, i.Instr.iid) :: !dead
        | _ -> ())
      f;
    List.iter (fun (bid, iid) -> ignore (Cfg.remove_instr (Cfg.block f bid) iid)) !dead;
    !dead <> []

  let run (f : Cfg.func) =
    let changed = ref false in
    while run_once f do
      changed := true
    done;
    !changed
end

(** Local CSE killing entries by iterating copies of its tables. *)
module Localcse_ref = struct
  module Exprs = Sxe_opt.Exprs

  let run (f : Cfg.func) =
    let changed = ref false in
    Cfg.iter_blocks
      (fun b ->
        (* expression key -> register currently holding its value *)
        let avail : (Exprs.key, Instr.reg) Hashtbl.t = Hashtbl.create 16 in
        let info : (Exprs.key, Instr.reg list * string option) Hashtbl.t = Hashtbl.create 16 in
        let to_delete = ref [] in
        List.iter
          (fun (i : Instr.t) ->
            let deleted = ref false in
            (match Exprs.of_op i.op with
            | Some (key, _, _) when Hashtbl.mem avail key -> (
                let src = Hashtbl.find avail key in
                match i.op with
                | Instr.Sext _ | Instr.Zext _ ->
                    (* re-extending the same register is a no-op: drop it *)
                    to_delete := i.Instr.iid :: !to_delete;
                    deleted := true;
                    changed := true
                | _ -> (
                    match Instr.def i.op with
                    | Some dst when dst <> src ->
                        Cfg.set_op b i (Instr.Mov { dst; src; ty = Cfg.reg_ty f dst });
                        changed := true
                    | _ -> ()))
            | _ -> ());
            if not !deleted then begin
              (* invalidate: expressions killed by this instruction, and
                 expressions whose holding register it overwrites *)
              Hashtbl.iter
                (fun key (operands, sym) ->
                  if Exprs.kills i (key, operands, sym) then begin
                    Hashtbl.remove avail key;
                    Hashtbl.remove info key
                  end)
                (Hashtbl.copy info);
              (match Instr.def i.op with
              | Some d ->
                  Hashtbl.iter
                    (fun key v ->
                      if v = d then begin
                        Hashtbl.remove avail key;
                        Hashtbl.remove info key
                      end)
                    (Hashtbl.copy avail)
              | None -> ());
              (* record the value this instruction now holds; an op whose
                 destination is among its own operands (i = i + 1) computes
                 from the pre-definition value and must not be recorded —
                 except extensions, whose new register value equals the
                 expression over itself *)
              match Exprs.of_op i.op with
              | Some (key, operands, sym) -> (
                  match Instr.def i.op with
                  | Some d
                    when (not (List.mem d operands))
                         ||
                         match i.op with Instr.Sext _ | Instr.Zext _ -> true | _ -> false ->
                      Hashtbl.replace avail key d;
                      Hashtbl.replace info key (operands, sym)
                  | _ -> ())
              | None -> ()
            end)
          (Cfg.body b);
        List.iter (fun iid -> ignore (Cfg.remove_instr b iid)) !to_delete)
      f;
    !changed
end

(** Step 2 as {!Sxe_opt.Pipeline.run_func} runs it, with the reference
    [Dce] and [Localcse]. *)
let step2_ref ?(pre = true) (f : Cfg.func) =
  let open Sxe_opt in
  let iterate () =
    let rounds = ref 0 in
    let continue_ = ref true in
    while !continue_ && !rounds < 12 do
      incr rounds;
      let c1 = Constfold.run f in
      let c2 = Copyprop.run f in
      let c3 = Localcse_ref.run f in
      let c4 = Simplify.run f in
      let c5 = Dce_ref.run f in
      let c6 = Deadstore.run f in
      continue_ := c1 || c2 || c3 || c4 || c5 || c6
    done
  in
  iterate ();
  if pre then begin
    ignore (Lcm.run f);
    iterate ()
  end

(** The interprocedural summary table computed by three blind rounds,
    as [(function name, interval option)] in program order. *)
let summary_ref ?(rounds = 3) (p : Prog.t) =
  let module Range = Sxe_analysis.Range in
  let return_range (rng : Range.t) (f : Cfg.func) : Range.interval option =
    let reach = Cfg.reachable f in
    let acc = ref None in
    Cfg.iter_blocks
      (fun b ->
        if reach.(b.Cfg.bid) then
          match Cfg.term b with
          | Instr.Ret (Some (r, Types.I32)) ->
              let iv = Range.at_exit rng ~bid:b.Cfg.bid r in
              acc := Some (match !acc with None -> iv | Some a -> Range.join a iv)
          | _ -> ())
      f;
    !acc
  in
  let t = Hashtbl.create 16 in
  for _ = 1 to rounds do
    let prev = Hashtbl.copy t in
    Prog.iter_funcs
      (fun f ->
        if f.Cfg.ret = Some Types.I32 then begin
          let rng = Range.compute ~call_ranges:(fun n -> Hashtbl.find_opt prev n) f in
          match return_range rng f with
          | Some iv -> Hashtbl.replace t f.Cfg.name iv
          | None -> Hashtbl.remove t f.Cfg.name
        end)
      p
  done;
  Prog.fold_funcs (fun acc f -> (f.Cfg.name, Hashtbl.find_opt t f.Cfg.name) :: acc) [] p
  |> List.rev
