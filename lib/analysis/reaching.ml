(** Reaching definitions.

    Definition sites are function parameters (which reach the entry) and
    every register-defining instruction. The solver is the classic forward
    union bit-vector problem; {!Chains} replays blocks over its solution to
    build UD/DU chains. *)

open Sxe_util
open Sxe_ir

type def_site = DParam of Instr.reg | DIns of Instr.t

let def_site_reg = function DParam r -> r | DIns i -> Option.get (Instr.def i.op)

(** Stable identity for a definition site (parameters are negative). *)
let def_key = function DParam r -> -1 - r | DIns i -> i.Instr.iid

type t = {
  defs : def_site array;  (** def id -> site *)
  defs_of_reg : Bitset.t array;  (** reg -> def ids defining it *)
  sol : Dataflow.result;  (** per-block in/out sets of def ids *)
}

let compute (f : Cfg.func) =
  let defs = ref [] and count = ref 0 in
  let add site =
    defs := site :: !defs;
    incr count
  in
  List.iter (fun (r, _) -> add (DParam r)) f.params;
  Cfg.iter_blocks
    (fun b ->
      List.iter (fun i -> if Instr.def i.Instr.op <> None then add (DIns i)) (Cfg.body b))
    f;
  let defs = Array.of_list (List.rev !defs) in
  let universe = Array.length defs in
  let def_ids = Hashtbl.create (2 * universe) in
  Array.iteri (fun id site -> Hashtbl.replace def_ids (def_key site) id) defs;
  let nregs = Cfg.num_regs f in
  let defs_of_reg = Array.init nregs (fun _ -> Bitset.create universe) in
  Array.iteri (fun id site -> Bitset.add defs_of_reg.(def_site_reg site) id) defs;
  let nblocks = Cfg.num_blocks f in
  let gen = Array.init nblocks (fun _ -> Bitset.create universe) in
  let kill = Array.init nblocks (fun _ -> Bitset.create universe) in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match Instr.def i.Instr.op with
          | None -> ()
          | Some r ->
              let id = Hashtbl.find def_ids i.Instr.iid in
              (* later defs of r in the block supersede earlier gens *)
              ignore (Bitset.diff_into ~dst:gen.(b.bid) defs_of_reg.(r));
              Bitset.add gen.(b.bid) id;
              ignore (Bitset.union_into ~dst:kill.(b.bid) defs_of_reg.(r)))
        (Cfg.body b))
    f;
  let boundary = Bitset.create universe in
  List.iteri (fun i _ -> Bitset.add boundary i) f.params;
  let sol =
    Dataflow.solve_gen_kill ~f ~dir:Dataflow.Forward ~meet:Dataflow.Union ~universe
      ~gen:(fun b -> gen.(b))
      ~kill:(fun b -> kill.(b))
      ~boundary
  in
  { defs; defs_of_reg; sol }

let universe t = Array.length t.defs
let def_of_id t id = t.defs.(id)

(** Definitions reaching the entry of block [b]. *)
let in_of_block t b = t.sol.Dataflow.inb.(b)
