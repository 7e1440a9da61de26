(** Dead code elimination over DU chains.

    An instruction is dead when it defines a register no use can observe
    and it has no side effect (stores, calls, allocations and potentially
    throwing instructions are side-effecting; see
    {!Sxe_ir.Instr.has_side_effect}). Removal exposes further dead code:
    the uses of a removed instruction no longer count for the definitions
    that reach them. The chains are built once and the pass retires dead
    definitions from a worklist, counting each definition's remaining
    uses. The counts stay exact without a rebuild: deleting a definition
    that reaches no use cannot make another definition reach a new use,
    since any such use would have been reached by the deleted one. Repeated
    removal has a unique fixpoint, so the removed set is the one a
    rebuild-every-round loop finds. *)

open Sxe_ir
module Chains = Sxe_analysis.Chains

let run (f : Cfg.func) =
  let chains = Chains.build f in
  (* instruction id -> uses its value still reaches, for removable defs *)
  let live_uses : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let dead = ref [] in
  Cfg.iter_instrs
    (fun _ i ->
      match Instr.def i.Instr.op with
      | Some _ when not (Instr.has_side_effect i.Instr.op) ->
          let n = List.length (Chains.du_of_instr chains i) in
          Hashtbl.replace live_uses i.Instr.iid n;
          if n = 0 then dead := i :: !dead
      | _ -> ())
    f;
  let changed = !dead <> [] in
  let rec retire = function
    | [] -> ()
    | (i : Instr.t) :: rest ->
        ignore (Cfg.remove_instr (Cfg.block f (Chains.block_of_instr chains i)) i.Instr.iid);
        (* a use reached by a def is recorded once per instruction, however
           many operands name the register *)
        let regs = List.sort_uniq compare (Instr.uses i.Instr.op) in
        let newly_dead =
          List.fold_left
            (fun acc r ->
              List.fold_left
                (fun acc d ->
                  match d with
                  | Sxe_analysis.Reaching.DIns (d : Instr.t) -> (
                      match Hashtbl.find_opt live_uses d.iid with
                      | Some n ->
                          Hashtbl.replace live_uses d.iid (n - 1);
                          if n = 1 then d :: acc else acc
                      | None -> acc)
                  | Sxe_analysis.Reaching.DParam _ -> acc)
                acc (Chains.ud_at_instr chains i r))
            rest regs
        in
        retire newly_dead
  in
  retire !dead;
  changed
