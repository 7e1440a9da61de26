(** Pluggable IR lint framework.

    A rule inspects a solved certification instance (fixpoint states
    are available through {!Certify.scan}, pure structure through the
    function itself) and reports findings. A rule set is a plain list:
    the drivers run {!builtins} unless given another ([sxopt lint]
    appends the auditor's rules). Findings are hygiene
    diagnostics, not soundness verdicts: soundness is {!Certify}'s job.

    Severities: [Error] should fail a build (none of the built-in rules
    defaults to it — an optimizer that leaves redundant extensions is
    imprecise, not wrong); [Warning] is a missed-optimization or debris
    diagnostic; [Info] is structural commentary. *)

open Sxe_ir

type severity = Info | Warning | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

type finding = {
  rule : string;
  severity : severity;
  fname : string;
  bid : int;
  iid : int option;
  idx : int option;
      (** 0-based position of the instruction within its block body;
          [None] for terminator- or block-level findings. Carried so
          SARIF regions (and any renderer that wants a positional
          location) are precise without re-walking the function. *)
  message : string;
}

type rule = {
  name : string;
  doc : string;
  severity : severity;
  check : Certify.solution -> Cfg.func -> finding list;
}

(* ------------------------------------------------------------------ *)
(* Built-in rules                                                      *)
(* ------------------------------------------------------------------ *)

(** Position of instruction [iid] within its block body, so every rule
    reports a (function, block label, instruction index) location
    uniformly. [None] iid (terminator/block findings) stays [None]. *)
let instr_index (f : Cfg.func) ~bid ~iid =
  match iid with
  | None -> None
  | Some iid ->
      let rec go k = function
        | [] -> None
        | (i : Instr.t) :: rest -> if i.Instr.iid = iid then Some k else go (k + 1) rest
      in
      go 0 (Cfg.body (Cfg.block f bid))

let mk rule severity (f : Cfg.func) ~bid ~iid fmt =
  Printf.ksprintf
    (fun message ->
      { rule; severity; fname = f.Cfg.name; bid; iid;
        idx = instr_index f ~bid ~iid; message })
    fmt

(* The static analogue of what the eliminator should have caught: a
   32-bit sign extension whose operand the certifier already proves
   extended. Fires liberally on the baseline variant (which eliminates
   nothing) — that is the point of the measurement. *)
let redundant_sext : rule =
  let check sol f =
    let acc = ref [] in
    Certify.scan sol (fun ~bid ~state item ->
        match item with
        | `I { Instr.iid; op = Instr.Sext { r; from = Types.W32 } } ->
            if (state r).Extstate.ext then
              acc :=
                mk "redundant-sext" Warning f ~bid ~iid:(Some iid)
                  "r%d is already sign-extended; this extend() is redundant" r
                :: !acc
        | _ -> ());
    List.rev !acc
  in
  { name = "redundant-sext";
    doc = "sign extension of an operand the certifier proves already extended";
    severity = Warning; check }

(* JustExt is an analysis-time marker; the elimination phase removes
   every one it plants. Any survivor in final IR is debris. *)
let dead_justext : rule =
  let check _sol f =
    Cfg.fold_instrs
      (fun acc b (i : Instr.t) ->
        match i.Instr.op with
        | Instr.JustExt { r } ->
            mk "dead-justext" Warning f ~bid:b.Cfg.bid ~iid:(Some i.Instr.iid)
              "leftover dummy extension of r%d (JustExt generates no code and \
               should have been removed)" r
            :: acc
        | _ -> acc)
      [] f
    |> List.rev
  in
  { name = "dead-justext";
    doc = "dummy extension marker surviving past the elimination phase";
    severity = Warning; check }

let unreachable_block : rule =
  let check _sol f =
    let reachable = Cfg.reachable f in
    let acc = ref [] in
    for bid = Cfg.num_blocks f - 1 downto 0 do
      if not reachable.(bid) then
        acc :=
          mk "unreachable-block" Warning f ~bid ~iid:None
            "block B%d is unreachable from the entry" bid
          :: !acc
    done;
    !acc
  in
  { name = "unreachable-block";
    doc = "block with no path from the entry (DCE leftovers)";
    severity = Warning; check }

(* A critical edge (multi-successor source into multi-predecessor sink)
   cannot host an insertion point, which costs Lcm placement precision;
   the IR has no edge splitter, so these are worth knowing about. *)
let critical_edge : rule =
  let check _sol f =
    let preds = Cfg.preds f in
    let reachable = Cfg.reachable f in
    let acc = ref [] in
    Cfg.iter_blocks
      (fun b ->
        if reachable.(b.Cfg.bid) then
          match Cfg.succs b with
          | _ :: _ :: _ as ss ->
              List.iter
                (fun s ->
                  match preds.(s) with
                  | _ :: _ :: _ ->
                      acc :=
                        mk "critical-edge" Info f ~bid:b.Cfg.bid ~iid:None
                          "critical edge B%d -> B%d limits code-motion \
                           placement (Lcm cannot insert on it)" b.Cfg.bid s
                        :: !acc
                  | _ -> ())
                ss
          | _ -> ())
      f;
    List.rev !acc
  in
  { name = "critical-edge";
    doc = "CFG edge both source- and sink-shared, unusable for insertions";
    severity = Info; check }

(* A copy of a copy within one block is exactly what copy propagation
   collapses; surviving chains mean a pass ran out of iterations or a
   rewrite reintroduced one. *)
let mov_chain : rule =
  let check _sol f =
    let acc = ref [] in
    Cfg.iter_blocks
      (fun b ->
        let last_mov : (int, Instr.reg) Hashtbl.t = Hashtbl.create 8 in
        List.iter
          (fun (i : Instr.t) ->
            (match i.Instr.op with
            | Instr.Mov { dst; src; ty } when ty <> Types.F64 && dst <> src ->
                if Hashtbl.mem last_mov src && Cfg.reg_ty f src = Cfg.reg_ty f dst
                then
                  acc :=
                    mk "mov-chain" Info f ~bid:b.Cfg.bid ~iid:(Some i.Instr.iid)
                      "r%d is a copy of a copy (via r%d); copy propagation \
                       should have collapsed this chain" dst src
                    :: !acc
            | _ -> ());
            match i.Instr.op with
            | Instr.Mov { dst; src; ty = _ } when dst <> src ->
                Hashtbl.replace last_mov dst src;
                (* a redefinition of a chain head breaks chains through it *)
                Hashtbl.iter
                  (fun d s -> if s = dst then Hashtbl.remove last_mov d)
                  (Hashtbl.copy last_mov)
            | op -> (
                match Instr.def op with
                | Some d ->
                    Hashtbl.remove last_mov d;
                    Hashtbl.iter
                      (fun d' s -> if s = d then Hashtbl.remove last_mov d')
                      (Hashtbl.copy last_mov)
                | None -> ()))
          (Cfg.body b))
      f;
    List.rev !acc
  in
  { name = "mov-chain";
    doc = "register copied from a register that is itself a block-local copy";
    severity = Info; check }

(* Both compare operands block-locally constant: Constfold (which folds
   through its own constant environment) should have decided the
   comparison. *)
let const_cmp : rule =
  let check _sol f =
    let acc = ref [] in
    Cfg.iter_blocks
      (fun b ->
        let consts : (int, int64) Hashtbl.t = Hashtbl.create 8 in
        List.iter
          (fun (i : Instr.t) ->
            (match i.Instr.op with
            | Instr.Cmp { l; r; _ }
              when Hashtbl.mem consts l && Hashtbl.mem consts r ->
                acc :=
                  mk "const-cmp" Info f ~bid:b.Cfg.bid ~iid:(Some i.Instr.iid)
                    "both operands of this compare (r%d, r%d) are constants; \
                     it is constant-foldable" l r
                  :: !acc
            | _ -> ());
            match i.Instr.op with
            | Instr.Const { dst; v; ty = Types.I32 | Types.I64 } ->
                Hashtbl.replace consts dst v
            | op -> (
                match Instr.def op with
                | Some d -> Hashtbl.remove consts d
                | None -> ()))
          (Cfg.body b))
      f;
    List.rev !acc
  in
  { name = "const-cmp";
    doc = "materialized compare of two block-local constants";
    severity = Info; check }

let builtins =
  [ redundant_sext; dead_justext; unreachable_block; critical_edge;
    mov_chain; const_cmp ]

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

(** Run [rules] (default: {!builtins}) over one function, solving the
    certification instance once and sharing it. *)
let run_func ?maxlen ?call_ranges ?(rules = builtins) (f : Cfg.func) : finding list =
  let sol = Certify.solve ?maxlen ?call_ranges f in
  List.concat_map (fun r -> r.check sol f) rules

let run_prog ?maxlen ?rules (p : Prog.t) : finding list =
  let call_ranges =
    Sxe_analysis.Summary.call_ranges (Sxe_analysis.Summary.compute p)
  in
  List.rev
    (Prog.fold_funcs
       (fun acc f -> List.rev_append (run_func ?maxlen ~call_ranges ?rules f) acc)
       [] p)

let finding_to_string (fi : finding) =
  let pos = match fi.idx with Some k -> Printf.sprintf "#%d" k | None -> "" in
  Printf.sprintf "%s: %s %s%s: [%s] %s"
    (severity_to_string fi.severity)
    fi.fname
    (Certify.loc_to_string ~bid:fi.bid ~iid:fi.iid)
    pos fi.rule fi.message

let max_severity (fs : finding list) : severity option =
  let rank = function Info -> 0 | Warning -> 1 | Error -> 2 in
  List.fold_left
    (fun acc (fi : finding) ->
      match acc with
      | Some s when rank s >= rank fi.severity -> acc
      | _ -> Some fi.severity)
    None fs
