(** Interprocedural return-range summaries.

    The intraprocedural {!Range} analysis treats every [I32] call result
    as [top], which is exactly where the residue auditor loses precision:
    a helper that demonstrably returns a small non-negative value (an
    accessor, a clamped index computation) feeds [top] into every caller
    and turns provable facts into "unknown". This module computes, once
    per program, the join of each function's [I32] return-site intervals
    and exposes the table in the shape {!Range.compute}'s [call_ranges]
    hook expects, so one summary is reused across every call site of
    every caller.

    The fixpoint is a small fixed number of rounds of re-analysis. Round
    1 analyses every function with call results at [top] — sound by the
    soundness of {!Range} itself. Round [k] analyses with round
    [k - 1]'s summaries, which the induction hypothesis makes sound
    over-approximations, so each round (including the last, which is the
    published table) is sound on its own; more rounds only tighten
    call-chain facts ([f] calling [g] calling a constant needs two).
    Recursive functions are handled by the same argument — their round-1
    summary assumed nothing.

    A round that reproduces the previous round's table ends the loop
    early: each round is a deterministic function of the previous table,
    so every later round would reproduce it too and the published table
    is the one the full count of rounds would give. The round count stays
    a cap, not a convergence bound — running past it could tighten facts
    and move the Table 1/2 counters. *)

open Sxe_ir

type t = (string, Range.interval) Hashtbl.t

let default_rounds = 3

(** Join of the returned register's interval over every reachable
    [Ret (r, I32)] site; [None] when the function has no reachable I32
    return (it never delivers a value to callers). *)
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

(** Same bindings: a round reading [a] computes what one reading [b]
    does. *)
let same_table (a : t) (b : t) =
  Hashtbl.length a = Hashtbl.length b
  && Hashtbl.fold (fun k v ok -> ok && Hashtbl.find_opt b k = Some v) a true

let compute ?(rounds = default_rounds) (p : Prog.t) : t =
  let t = Hashtbl.create 16 in
  let rec round k =
    if k <= rounds then begin
      (* read the previous round's table while writing this round's: a
         half-updated table would make the result depend on function
         order *)
      let prev = Hashtbl.copy t in
      Prog.iter_funcs
        (fun f ->
          if f.Cfg.ret = Some Types.I32 then begin
            let rng = Range.compute ~call_ranges:(fun n -> Hashtbl.find_opt prev n) f in
            match return_range rng f with
            | Some iv -> Hashtbl.replace t f.Cfg.name iv
            | None -> Hashtbl.remove t f.Cfg.name
          end)
        p;
      if not (same_table t prev) then round (k + 1)
    end
  in
  round 1;
  t

let find (t : t) fname = Hashtbl.find_opt t fname

(** The table in {!Range.compute}'s [call_ranges] shape. *)
let call_ranges (t : t) : string -> Range.interval option = find t
