(** Generic iterative bit-vector dataflow solver.

    Solves forward or backward problems over {!Sxe_util.Bitset} facts by
    repeated sweeps in reverse postorder (forward) or postorder
    (backward) over the blocks marked dirty. Two entry points: [solve]
    takes an arbitrary monotone block transfer function;
    [solve_gen_kill] specializes to the classic [out = gen ∪ (in \ kill)]
    form used by reaching definitions and LCM's anticipability and
    availability. *)

open Sxe_util

type direction = Forward | Backward
type meet = Union | Inter

type result = {
  inb : Bitset.t array;  (** fact at block entry (in program order) *)
  outb : Bitset.t array;  (** fact at block exit (in program order) *)
}

exception No_convergence of { analysis : string; func : string }

let () =
  Printexc.register_printer (function
    | No_convergence { analysis; func } ->
        Some (Printf.sprintf "%s: no convergence on function %s" analysis func)
    | _ -> None)

(** [solve ~f ~dir ~meet ~universe ~transfer ~boundary] iterates to a
    fixpoint. [transfer bid input] maps the block's input fact (entry fact
    for [Forward], exit fact for [Backward]) to its output fact and must be
    monotone. [boundary] is the initial fact at the entry (forward) or at
    every exit block (backward). With [Inter] meet, interior facts start at
    top (all ones). *)
let solve ~(f : Sxe_ir.Cfg.func) ~dir ~meet ~universe ~transfer ~boundary =
  let n = Sxe_ir.Cfg.num_blocks f in
  let preds = Sxe_ir.Cfg.preds f in
  let succs bid = Sxe_ir.Cfg.succs (Sxe_ir.Cfg.block f bid) in
  let reachable = Sxe_ir.Cfg.reachable f in
  let top () =
    let s = Bitset.create universe in
    (match meet with Inter -> Bitset.fill s | Union -> ());
    s
  in
  (* Interior facts start at top on BOTH sides: for an [Inter] problem
     the solution of interest is the greatest fixpoint, and an
     empty-initialized [outb] would feed bottom into the first meet at
     a loop header (through its back edge), collapsing the header — and
     everything after it — to the least fixpoint instead. For [Union],
     [top ()] is empty and this is the usual bottom start. *)
  let inb = Array.init n (fun _ -> top ()) in
  let outb = Array.init n (fun _ -> top ()) in
  let order =
    match dir with
    | Forward -> Sxe_ir.Cfg.rpo f
    | Backward -> Sxe_ir.Cfg.postorder f
  in
  let sources bid = match dir with Forward -> preds.(bid) | Backward -> succs bid in
  let is_boundary bid =
    match dir with
    | Forward -> bid = Sxe_ir.Cfg.entry f
    | Backward -> succs bid = []
  in
  let compute_in bid =
    let srcs = List.filter (fun s -> reachable.(s)) (sources bid) in
    if is_boundary bid && srcs = [] then Bitset.copy boundary
    else begin
      let acc =
        match meet with
        | Union ->
            let acc = Bitset.create universe in
            if is_boundary bid then Bitset.assign ~dst:acc boundary;
            acc
        | Inter -> (
            (* meet of sources; boundary blocks additionally meet the
               boundary fact *)
            match srcs with
            | [] -> Bitset.copy boundary
            | s :: _ ->
                let acc = Bitset.copy outb.(s) in
                if is_boundary bid then ignore (Bitset.inter_into ~dst:acc boundary);
                acc)
      in
      List.iter
        (fun s ->
          match meet with
          | Union -> ignore (Bitset.union_into ~dst:acc outb.(s))
          | Inter -> ignore (Bitset.inter_into ~dst:acc outb.(s)))
        srcs;
      acc
    end
  in
  (* Sweeps over the reachable blocks in [order] (rpo forward, postorder
     backward) until none is dirty. Every reachable block starts dirty; a
     block whose output fact changes marks its dependents, the blocks
     whose [compute_in] reads [outb.(bid)]: successors for a forward
     problem, predecessors for a backward one. A dependent later in the
     order is visited in the same sweep, an earlier one (across a back
     edge) in the next. *)
  let dependents bid = match dir with Forward -> succs bid | Backward -> preds.(bid) in
  let dirty = Array.copy reachable in
  let visits = ref 0 in
  let limit = ((n + 1) * (universe + 2) * 4) + 64 in
  while Array.exists Fun.id dirty do
    List.iter
      (fun bid ->
        if dirty.(bid) then begin
          dirty.(bid) <- false;
          incr visits;
          if !visits > limit then
            raise (No_convergence { analysis = "Dataflow.solve"; func = f.Sxe_ir.Cfg.name });
          let i = compute_in bid in
          Bitset.assign ~dst:inb.(bid) i;
          let o = transfer bid i in
          if not (Bitset.equal o outb.(bid)) then begin
            Bitset.assign ~dst:outb.(bid) o;
            List.iter (fun d -> if reachable.(d) then dirty.(d) <- true) (dependents bid)
          end
        end)
      order
  done;
  match dir with
  | Forward -> { inb; outb }
  | Backward -> { inb = outb; outb = inb }
(* for Backward, [inb]/[outb] of the result are re-expressed in program
   order: the fact at block entry is the transfer output. *)

(** Classic gen/kill form. [gen]/[kill] are per-block; for [Forward],
    [out = gen ∪ (in \ kill)]; for [Backward], [in = gen ∪ (out \ kill)]
    with the result still reported in program order. *)
let solve_gen_kill ~f ~dir ~meet ~universe ~gen ~kill ~boundary =
  let transfer bid input =
    let x = Bitset.copy input in
    ignore (Bitset.diff_into ~dst:x (kill bid));
    ignore (Bitset.union_into ~dst:x (gen bid));
    x
  in
  solve ~f ~dir ~meet ~universe ~transfer ~boundary
