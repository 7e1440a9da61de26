(** UD/DU chains (Aho–Sethi–Ullman), the structure the paper's
    [EliminateOneExtend] traverses, with incremental maintenance under
    deletion of same-register extensions.

    A {e use site} is an instruction or a block terminator; a {e def site}
    is an instruction or a function parameter ({!Reaching.def_site}).
    [UD(use, r)] is the set of definitions of [r] that may reach [use];
    [DU(def)] is the set of uses its value may reach. Both directions are
    kept consistent.

    Deleting a sign extension [r = extend(r)] rewires in O(|UD| · |DU|):
    every use the extension reached is afterwards reached by every
    definition that reached the extension — precisely the paper's deletion
    step, whose cost Table 3 accounts under "sign extension optimizations".
    A qcheck property (test suite) checks incremental = full rebuild. *)

open Sxe_util
open Sxe_ir

type use_site = UIns of Instr.t | UTerm of int  (** terminator of block [bid] *)

let use_key = function UIns i -> i.Instr.iid | UTerm bid -> -1 - bid

type t = {
  func : Cfg.func;
  ud : (int * int, Reaching.def_site list ref) Hashtbl.t;
      (** (use key, reg) -> reaching defs *)
  du : (int, use_site list ref) Hashtbl.t;  (** def key -> reached uses *)
  block_of : (int, int) Hashtbl.t;  (** instruction id -> block id *)
}

let same_def a b = Reaching.def_key a = Reaching.def_key b
let same_use a b = use_key a = use_key b

let build (f : Cfg.func) =
  let rd = Reaching.compute f in
  let ud = Hashtbl.create 256 in
  let du = Hashtbl.create 256 in
  let block_of = Hashtbl.create 256 in
  let du_of key =
    match Hashtbl.find_opt du key with
    | Some r -> r
    | None ->
        let r = ref [] in
        Hashtbl.replace du key r;
        r
  in
  (* ensure every def has a DU entry, even if empty *)
  for id = 0 to Reaching.universe rd - 1 do
    ignore (du_of (Reaching.def_key (Reaching.def_of_id rd id)))
  done;
  (* current reaching defs per register, replayed through each block *)
  let cur : Reaching.def_site list array = Array.make (Cfg.num_regs f) [] in
  Cfg.iter_blocks
    (fun b ->
      Array.fill cur 0 (Array.length cur) [];
      Bitset.iter
        (fun id ->
          let site = Reaching.def_of_id rd id in
          let r = Reaching.def_site_reg site in
          cur.(r) <- site :: cur.(r))
        (Reaching.in_of_block rd b.bid);
      let record_use use r =
        let defs = cur.(r) in
        Hashtbl.replace ud (use_key use, r) (ref defs);
        List.iter
          (fun d ->
            let l = du_of (Reaching.def_key d) in
            if not (List.exists (same_use use) !l) then l := use :: !l)
          defs
      in
      List.iter
        (fun (i : Instr.t) ->
          Hashtbl.replace block_of i.iid b.bid;
          List.iter (fun r -> record_use (UIns i) r) (Instr.uses i.op);
          match Instr.def i.op with
          | None -> ()
          | Some r -> cur.(r) <- [ DIns i ])
        (Cfg.body b);
      List.iter (fun r -> record_use (UTerm b.bid) r) (Instr.term_uses (Cfg.term b)))
    f;
  { func = f; ud; du; block_of }

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(** Definitions of [r] reaching instruction [i] (which must use [r]). *)
let ud_at_instr t (i : Instr.t) r =
  match Hashtbl.find_opt t.ud (i.Instr.iid, r) with Some l -> !l | None -> []

(** Definitions of [r] reaching the terminator of block [bid]. *)
let ud_at_term t bid r =
  match Hashtbl.find_opt t.ud (-1 - bid, r) with Some l -> !l | None -> []

(** Uses reached by a definition site. *)
let du_of_site t site =
  match Hashtbl.find_opt t.du (Reaching.def_key site) with Some l -> !l | None -> []

let du_of_instr t (i : Instr.t) = du_of_site t (Reaching.DIns i)
let block_of_instr t (i : Instr.t) = Hashtbl.find t.block_of i.Instr.iid

(** Is the instruction still present (not deleted through these chains)? *)
let contains t (i : Instr.t) = Hashtbl.mem t.block_of i.Instr.iid

(* ------------------------------------------------------------------ *)
(* Incremental deletion                                                *)
(* ------------------------------------------------------------------ *)

(** [delete_same_reg_def t i] removes instruction [i] — which must define
    and use the same register, i.e. a [Sext]/[Zext]/[JustExt] — from both
    the chains and its block body. Uses previously reached by [i] become
    reached by the definitions that reached [i]. *)
let delete_same_reg_def t (i : Instr.t) =
  let r =
    match i.Instr.op with
    | Instr.Sext { r; _ } | Instr.Zext { r; _ } | Instr.JustExt { r } -> r
    | _ -> invalid_arg "Chains.delete_same_reg_def: not a same-register def"
  in
  let self_def = Reaching.DIns i in
  let d_prev =
    List.filter (fun d -> not (same_def d self_def)) (ud_at_instr t i r)
  in
  let reached =
    List.filter (fun u -> not (same_use u (UIns i))) (du_of_instr t i)
  in
  (* 1. rewire each reached use: drop [i], add the defs that reached [i] *)
  List.iter
    (fun u ->
      match Hashtbl.find_opt t.ud (use_key u, r) with
      | None -> ()
      | Some l ->
          let without = List.filter (fun d -> not (same_def d self_def)) !l in
          let added =
            List.filter (fun d -> not (List.exists (same_def d) without)) d_prev
          in
          l := added @ without)
    reached;
  (* 2. rewire each previous def: drop the use [i], add [i]'s reached uses *)
  List.iter
    (fun d ->
      match Hashtbl.find_opt t.du (Reaching.def_key d) with
      | None -> ()
      | Some l ->
          let without = List.filter (fun u -> not (same_use u (UIns i))) !l in
          let added =
            List.filter (fun u -> not (List.exists (same_use u) without)) reached
          in
          l := added @ without)
    d_prev;
  (* 3. drop [i]'s own entries *)
  Hashtbl.remove t.ud (i.Instr.iid, r);
  Hashtbl.remove t.du i.Instr.iid;
  (* 4. remove from the block body *)
  let bid = Hashtbl.find t.block_of i.Instr.iid in
  ignore (Cfg.remove_instr (Cfg.block t.func bid) i.Instr.iid);
  Hashtbl.remove t.block_of i.Instr.iid

(* ------------------------------------------------------------------ *)
(* Normalized dump (for the incremental-vs-rebuild property test)       *)
(* ------------------------------------------------------------------ *)

let snapshot t =
  let uds =
    Hashtbl.fold
      (fun (u, r) l acc -> ((u, r), List.sort compare (List.map Reaching.def_key !l)) :: acc)
      t.ud []
    |> List.filter (fun (_, l) -> l <> [])
    |> List.sort compare
  in
  let dus =
    Hashtbl.fold
      (fun d l acc -> (d, List.sort compare (List.map use_key !l)) :: acc)
      t.du []
    |> List.filter (fun (_, l) -> l <> [])
    |> List.sort compare
  in
  (uds, dus)
