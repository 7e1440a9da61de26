(** Local common-subexpression elimination within basic blocks.

    A later occurrence of an expression whose operands are untouched since
    an earlier occurrence is replaced by a copy from the earlier result.
    Works on full 64-bit values (see {!Exprs}), so it composes with the
    extension machinery: in particular, back-to-back [r = extend(r)]
    pairs collapse, since an extension is transparent to its own
    expression. *)

open Sxe_ir

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
            Hashtbl.filter_map_inplace
              (fun key ((operands, sym) as e) ->
                if Exprs.kills i (key, operands, sym) then begin
                  Hashtbl.remove avail key;
                  None
                end
                else Some e)
              info;
            (match Instr.def i.op with
            | Some d ->
                Hashtbl.filter_map_inplace
                  (fun key v ->
                    if v = d then begin
                      Hashtbl.remove info key;
                      None
                    end
                    else Some v)
                  avail
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
