(** Partial redundancy elimination by lazy code motion
    (Knoop–Rüthing–Steffen via the Drechsler–Stadel edge formulation).

    This is the paper's Step 2 CSE: "we employ a variant of the partial
    redundancy elimination algorithm for common sub-expression elimination.
    This optimization moves an expression backward in the control flow
    graph, and thus loop-invariant sign extensions can be moved out of the
    loop."

    Requires the CFG normalized by {!Split_edges} (fresh empty entry, no
    critical edges). Four bit-vector systems over the expression universe:

    - anticipability (backward, intersection),
    - availability (forward, intersection),
    - earliestness (per edge, from the previous two),
    - laterness (forward, intersection, over blocks: each edge's
      earliest set is owned by its source or its target),

    then INSERT(i,j) = LATER(i,j) ∧ ¬LATERIN(j) and
    DELETE(b) = ANTLOC(b) ∧ ¬LATERIN(b).

    Rewriting gives each moved expression a fresh register [t]: inserted
    edges compute [t = e]; every surviving original computation becomes
    [t = e; dst = t]; deleted (upward-exposed) computations become
    [dst = t]. *)

open Sxe_util
open Sxe_ir

type einfo = {
  key : Exprs.key;
  operands : Instr.reg list;
  sym : string option;
  template : Instr.op;  (** a representative occurrence *)
}

let collect_exprs (f : Cfg.func) =
  let tbl : (Exprs.key, int) Hashtbl.t = Hashtbl.create 64 in
  let infos = ref [] in
  let n = ref 0 in
  Cfg.iter_instrs
    (fun _ i ->
      match Exprs.of_op i.Instr.op with
      | Some (key, operands, sym) ->
          if not (Hashtbl.mem tbl key) then begin
            Hashtbl.replace tbl key !n;
            infos := { key; operands; sym; template = i.Instr.op } :: !infos;
            incr n
          end
      | None -> ())
    f;
  (Array.of_list (List.rev !infos), tbl)

let run (f : Cfg.func) =
  Split_edges.run f;
  let infos, index = collect_exprs f in
  let nexpr = Array.length infos in
  if nexpr = 0 then false
  else begin
    let nblocks = Cfg.num_blocks f in
    let antloc = Array.init nblocks (fun _ -> Bitset.create nexpr) in
    let comp = Array.init nblocks (fun _ -> Bitset.create nexpr) in
    let transp = Array.init nblocks (fun _ -> Bitset.create nexpr) in
    Array.iter Bitset.fill transp;
    (* local predicates *)
    Cfg.iter_blocks
      (fun b ->
        let killed = Bitset.create nexpr in
        List.iter
          (fun (i : Instr.t) ->
            (match Exprs.of_op i.op with
            | Some (key, _, _) ->
                let e = Hashtbl.find index key in
                if not (Bitset.mem killed e) then Bitset.add antloc.(b.bid) e;
                Bitset.add comp.(b.bid) e
            | None -> ());
            Array.iteri
              (fun e info ->
                if Exprs.kills i (info.key, info.operands, info.sym) then begin
                  Bitset.add killed e;
                  Bitset.remove comp.(b.bid) e;
                  Bitset.remove transp.(b.bid) e
                end)
              infos)
          (Cfg.body b))
      f;
    let empty = Bitset.create nexpr in
    (* anticipability: backward, intersection *)
    let ant =
      Sxe_analysis.Dataflow.solve_gen_kill ~f ~dir:Sxe_analysis.Dataflow.Backward ~meet:Sxe_analysis.Dataflow.Inter ~universe:nexpr
        ~gen:(fun b -> antloc.(b))
        ~kill:(fun b ->
          let k = Bitset.copy transp.(b) in
          (* kill = ¬transp *)
          let inv = Bitset.create nexpr in
          Bitset.fill inv;
          ignore (Bitset.diff_into ~dst:inv k);
          inv)
        ~boundary:empty
    in
    (* availability: forward, intersection *)
    let av =
      Sxe_analysis.Dataflow.solve_gen_kill ~f ~dir:Sxe_analysis.Dataflow.Forward ~meet:Sxe_analysis.Dataflow.Inter ~universe:nexpr
        ~gen:(fun b -> comp.(b))
        ~kill:(fun b ->
          let inv = Bitset.create nexpr in
          Bitset.fill inv;
          ignore (Bitset.diff_into ~dst:inv transp.(b));
          inv)
        ~boundary:empty
    in
    let reach = Cfg.reachable f in
    let entry = Cfg.entry f in
    (* earliest, per edge *)
    let edges = ref [] in
    Cfg.iter_blocks
      (fun b ->
        if reach.(b.bid) then
          List.iter (fun s -> edges := (b.bid, s) :: !edges) (Cfg.succs b))
      f;
    let edges = List.rev !edges in
    let earliest (i, j) =
      let e = Bitset.copy ant.Sxe_analysis.Dataflow.inb.(j) in
      ignore (Bitset.diff_into ~dst:e av.Sxe_analysis.Dataflow.outb.(i));
      if i <> entry then begin
        (* ∧ (¬transp(i) ∨ ¬antout(i)): remove exprs transparent in i and
           anticipated at i's exit (those can move even earlier) *)
        let blocked = Bitset.copy transp.(i) in
        ignore (Bitset.inter_into ~dst:blocked ant.Sxe_analysis.Dataflow.outb.(i));
        ignore (Bitset.diff_into ~dst:e blocked)
      end;
      e
    in
    (* laterness: forward, intersection, over blocks. With no critical
       edges, each edge's EARLIEST set belongs either to its source (the
       source's only out-edge: own_out) or to its target (the target's
       only in-edge: own_in). A block's exit fact is then
       LATER(i,j) ∖ own_in(j) for each of its out-edges (i,j), and
       LATERIN(j) = inb(j) ∪ own_in(j). *)
    let own_in = Array.init nblocks (fun _ -> Bitset.create nexpr) in
    let own_out = Array.init nblocks (fun _ -> Bitset.create nexpr) in
    List.iter
      (fun ((i, j) as ed) ->
        let single_succ = List.length (Cfg.succs (Cfg.block f i)) = 1 in
        Bitset.assign ~dst:(if single_succ then own_out.(i) else own_in.(j)) (earliest ed))
      edges;
    let lat =
      Sxe_analysis.Dataflow.solve ~f ~dir:Sxe_analysis.Dataflow.Forward ~meet:Sxe_analysis.Dataflow.Inter ~universe:nexpr
        ~transfer:(fun b input ->
          let x = Bitset.copy input in
          ignore (Bitset.union_into ~dst:x own_in.(b));
          ignore (Bitset.diff_into ~dst:x antloc.(b));
          ignore (Bitset.union_into ~dst:x own_out.(b));
          x)
        ~boundary:empty
    in
    let laterin = lat.Sxe_analysis.Dataflow.inb in
    Array.iteri (fun b s -> ignore (Bitset.union_into ~dst:s own_in.(b))) laterin;
    (* insert / delete: INSERT(i,j) = LATER(i,j) ∖ LATERIN(j), and
       LATER(i,j) = outb(i) ∪ own_in(j), whose own_in part LATERIN(j)
       contains *)
    let insert_of (i, j) =
      let s = Bitset.copy lat.Sxe_analysis.Dataflow.outb.(i) in
      ignore (Bitset.diff_into ~dst:s laterin.(j));
      s
    in
    let delete_of bid =
      if bid = entry then Bitset.create nexpr
      else begin
        let s = Bitset.copy antloc.(bid) in
        ignore (Bitset.diff_into ~dst:s laterin.(bid));
        s
      end
    in
    (* decide which expressions actually move *)
    let moved = Bitset.create nexpr in
    Cfg.iter_blocks (fun b -> if reach.(b.bid) then
        ignore (Bitset.union_into ~dst:moved (delete_of b.bid))) f;
    if Bitset.is_empty moved then false
    else begin
      (* fresh holding register per moved expression *)
      let treg = Array.make nexpr (-1) in
      Bitset.iter
        (fun e -> treg.(e) <- Cfg.fresh_reg f (Exprs.result_ty f infos.(e).template))
        moved;
      (* 1. rewrite original computations (before inserting new code, so
            the rewriter never sees its own materializations) *)
      Cfg.iter_blocks
        (fun b ->
          if reach.(b.bid) then begin
            let del = delete_of b.bid in
            let killed = Bitset.create nexpr in
            let new_body = ref [] in
            let emit i = new_body := i :: !new_body in
            List.iter
              (fun (i : Instr.t) ->
                (match Exprs.of_op i.op with
                | Some (key, _, _)
                  when (match Hashtbl.find_opt index key with
                       | Some e -> Bitset.mem moved e
                       | None -> false) -> (
                    let e = Hashtbl.find index key in
                    let dst = Option.get (Instr.def i.op) in
                    let upward_exposed = not (Bitset.mem killed e) in
                    if upward_exposed && Bitset.mem del e then begin
                      (* redundant: copy from the holding register *)
                      Cfg.set_op b i (Instr.Mov { dst; src = treg.(e); ty = Cfg.reg_ty f dst });
                      emit i
                    end
                    else begin
                      (* surviving computation: compute into t, copy out *)
                      List.iter emit (Exprs.materialize f infos.(e).template ~dst:treg.(e));
                      Cfg.set_op b i (Instr.Mov { dst; src = treg.(e); ty = Cfg.reg_ty f dst });
                      emit i
                    end)
                | _ -> emit i);
                Array.iteri
                  (fun e info ->
                    if Exprs.kills i (info.key, info.operands, info.sym) then
                      Bitset.add killed e)
                  infos)
              (Cfg.body b);
            Cfg.set_body b (List.rev !new_body)
          end)
        f;
      (* 2. insertions on edges *)
      List.iter
        (fun (i, j) ->
          let ins = insert_of (i, j) in
          ignore (Bitset.inter_into ~dst:ins moved);
          Bitset.iter
            (fun e ->
              let seq = Exprs.materialize f infos.(e).template ~dst:treg.(e) in
              let bi = Cfg.block f i and bj = Cfg.block f j in
              if List.length (Cfg.succs bi) = 1 then
                List.iter (fun ins_i -> Cfg.append_instr bi ins_i) seq
              else
                (* no critical edges: j has a single predecessor *)
                List.iter (fun ins_i -> Cfg.prepend_instr bj ins_i) (List.rev seq))
            ins)
        edges;
      true
    end
  end
