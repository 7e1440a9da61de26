(** Reaching definitions and UD/DU chain tests, including the property
    that incremental chain update under extension deletion matches a full
    rebuild. *)

open Sxe_ir
open Sxe_ir.Types
open Sxe_analysis
module B = Builder

(* Figure-3-like straight loop for hand-checked chains *)
let loop_func () =
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let start = List.hd params in
  let i = B.gload b I32 "mem" in
  let ext0 = B.sext b i in
  let h = B.new_block b and ex = B.new_block b in
  B.jmp b h;
  B.switch b h;
  let one = B.iconst b 1 in
  B.binop_to b Sub ~dst:i i one;
  let ext1 = B.sext b i in
  B.br b Gt i start ~ifso:h ~ifnot:ex;
  B.switch b ex;
  B.retv b I32 i;
  (B.func b, i, ext0, ext1)

let test_reaching_and_chains () =
  let f, i, ext0, ext1 = loop_func () in
  let chains = Chains.build f in
  (* defs of i reaching the loop's subtract: entry extension or loop
     extension *)
  let blk = Cfg.block f 1 in
  let sub = List.nth (Cfg.body blk) 1 in
  (match sub.Instr.op with Instr.Binop { op = Sub; _ } -> () | _ -> Alcotest.fail "shape");
  let defs = Chains.ud_at_instr chains sub i in
  let keys = List.sort compare (List.map Reaching.def_key defs) in
  Alcotest.(check (list int)) "defs of i at subtract"
    (List.sort compare [ ext0.Instr.iid; ext1.Instr.iid ])
    keys;
  (* the loop extension's value reaches the branch and the subtract and
     the return *)
  let uses = Chains.du_of_instr chains ext1 in
  Alcotest.(check int) "loop ext reaches 3 uses" 3 (List.length uses)

let test_incremental_deletion_hand () =
  let f, i, ext0, ext1 = loop_func () in
  let chains = Chains.build f in
  Chains.delete_same_reg_def chains ext1;
  (* now the subtract is reached by the entry ext and by itself (around
     the back edge) *)
  let blk = Cfg.block f 1 in
  let sub = List.hd (List.filter (fun (x : Instr.t) ->
      match x.Instr.op with Instr.Binop { op = Sub; _ } -> true | _ -> false) (Cfg.body blk))
  in
  let defs = Chains.ud_at_instr chains sub i in
  let keys = List.sort compare (List.map Reaching.def_key defs) in
  Alcotest.(check (list int)) "rewired defs"
    (List.sort compare [ ext0.Instr.iid; sub.Instr.iid ])
    keys;
  (* the incremental result matches a rebuild on the mutated function *)
  let rebuilt = Chains.build f in
  Alcotest.(check bool) "snapshot equal" true (Chains.snapshot chains = Chains.snapshot rebuilt)

(* ------------------------------------------------------------------ *)
(* Random-CFG property: incremental == rebuild, for every extension     *)
(* ------------------------------------------------------------------ *)

let build_random ?(allow_justext = true) nregs nblocks (recipe : int list) : Cfg.func =
  let b, _ = B.create ~name:"rand" ~params:[ I32 ] ~ret:I32 () in
  let regs = Array.init nregs (fun _ -> B.iconst b 7) in
  let blocks = Array.make nblocks 0 in
  for k = 1 to nblocks - 1 do
    blocks.(k) <- B.new_block b
  done;
  let r = ref recipe in
  let next () =
    match !r with
    | [] -> 3
    | x :: rest ->
        r := rest;
        abs x
  in
  let reg () = regs.(next () mod nregs) in
  let fill bid ~is_last =
    if bid = 0 then () else B.switch b blocks.(bid);
    let n_instr = next () mod 4 in
    for _ = 1 to n_instr do
      match next () mod 5 with
      | 0 -> ignore (B.sext b (reg ()))
      | 1 -> B.binop_to b Add ~dst:(reg ()) (reg ()) (reg ())
      | 2 -> B.mov_to b ~dst:(reg ()) ~src:(reg ()) I32
      | 3 -> B.binop_to b And ~dst:(reg ()) (reg ()) (reg ())
      | _ ->
          (* a JustExt marker's claim is only valid when placed by the
             compiler; generators of source-level IR must not emit it *)
          if allow_justext then ignore (B.justext b (reg ()))
          else B.binop_to b Sub ~dst:(reg ()) (reg ()) (reg ())
    done;
    if is_last then B.retv b I32 (reg ())
    else
      match next () mod 3 with
      | 0 -> B.jmp b blocks.(next () mod nblocks)
      | 1 -> B.retv b I32 (reg ())
      | _ ->
          B.br b Lt (reg ()) (reg ())
            ~ifso:blocks.(next () mod nblocks)
            ~ifnot:blocks.(next () mod nblocks)
  in
  for k = 0 to nblocks - 1 do
    fill k ~is_last:(k = nblocks - 1)
  done;
  let f = B.func b in
  Validate.check f;
  f

let all_sexts f =
  let out = ref [] in
  Cfg.iter_instrs (fun _ i -> if Instr.is_sext i.Instr.op then out := i :: !out) f;
  List.rev !out

let prop_incremental_matches_rebuild =
  let open QCheck in
  let gen = small_list int in
  Test.make ~name:"chain deletion: incremental = rebuild" ~count:300 gen (fun recipe ->
      let f = build_random 4 4 recipe in
      let chains = Chains.build f in
      (* delete every extension one by one, checking after each step *)
      List.for_all
        (fun ext ->
          Chains.delete_same_reg_def chains ext;
          Chains.snapshot chains = Chains.snapshot (Chains.build f))
        (all_sexts f))

(* property: UD and DU are mutually consistent after a build *)
let prop_chains_consistent =
  let open QCheck in
  Test.make ~name:"UD/DU mutual consistency" ~count:300 (small_list int) (fun recipe ->
      let f = build_random 5 5 recipe in
      let chains = Chains.build f in
      let ok = ref true in
      Cfg.iter_instrs
        (fun _ i ->
          List.iter
            (fun r ->
              List.iter
                (fun d ->
                  let dus = Chains.du_of_site chains d in
                  if
                    not
                      (List.exists
                         (function Chains.UIns u -> u.Instr.iid = i.Instr.iid | _ -> false)
                         dus)
                  then ok := false)
                (Chains.ud_at_instr chains i r))
            (Instr.uses i.Instr.op))
        f;
      !ok)

(* -- liveness -------------------------------------------------------- *)

let test_liveness () =
  let b, params = B.create ~name:"f" ~params:[ I32; I32 ] ~ret:I32 () in
  let x = List.hd params and y = List.nth params 1 in
  let t = B.add b x y in
  let dead = B.add b t t in
  let s = B.add b t x in
  B.retv b I32 s;
  let f = B.func b in
  let live = Liveness.compute f in
  (* nothing is live into the entry block beyond the parameters used *)
  let li = Liveness.live_in live 0 in
  Alcotest.(check bool) "x live-in" true (Sxe_util.Bitset.mem li x);
  Alcotest.(check bool) "y live-in" true (Sxe_util.Bitset.mem li y);
  let after = Liveness.live_after_each live 0 in
  (* t is live after its definition; the dead add's result is not *)
  let t_def = List.nth (Cfg.body (Cfg.block f 0)) 0 in
  let dead_def = List.nth (Cfg.body (Cfg.block f 0)) 1 in
  let after_of iid = List.assoc iid after in
  Alcotest.(check bool) "t live after def" true (Sxe_util.Bitset.mem (after_of t_def.Instr.iid) t);
  Alcotest.(check bool) "dead result not live" false
    (Sxe_util.Bitset.mem (after_of dead_def.Instr.iid) dead);
  Alcotest.(check bool) "s live at end" true
    (Sxe_util.Bitset.mem (Liveness.live_out live 0) s = false)
(* s is consumed by the terminator inside the block; block live-out is
   empty since there are no successors *)

let test_liveness_across_loop () =
  let b, params = B.create ~name:"g" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let acc = B.iconst b 0 in
  let h = B.new_block b and body = B.new_block b and ex = B.new_block b in
  B.jmp b h;
  B.switch b h;
  B.br b Lt acc x ~ifso:body ~ifnot:ex;
  B.switch b body;
  B.binop_to b Add ~dst:acc acc x;
  B.jmp b h;
  B.switch b ex;
  B.retv b I32 acc;
  let f = B.func b in
  let live = Liveness.compute f in
  (* x is live around the loop; acc is live into the header *)
  Alcotest.(check bool) "x live into body" true
    (Sxe_util.Bitset.mem (Liveness.live_in live body) x);
  Alcotest.(check bool) "acc live into header" true
    (Sxe_util.Bitset.mem (Liveness.live_in live h) acc)

(* A transfer that is not even a function of its input (a block's output
   flips on every visit) never reaches a fixpoint around the loop: the
   solver stops at its bound with the typed exception, which the daemon
   answers in its own error category instead of as a crash. *)
let test_no_convergence () =
  let f, _, _, _ = loop_func () in
  let flip = Array.make (Cfg.num_blocks f) false in
  let transfer bid _ =
    flip.(bid) <- not flip.(bid);
    let s = Sxe_util.Bitset.create 1 in
    if flip.(bid) then Sxe_util.Bitset.add s 0;
    s
  in
  (match
     Dataflow.solve ~f ~dir:Dataflow.Forward ~meet:Dataflow.Union ~universe:1 ~transfer
       ~boundary:(Sxe_util.Bitset.create 1)
   with
  | _ -> Alcotest.fail "a flipping transfer converged"
  | exception (Dataflow.No_convergence { analysis; func } as e) ->
      Alcotest.(check (pair string string)) "analysis and function"
        ("Dataflow.solve", "f") (analysis, func);
      Alcotest.(check string) "daemon category" "no_convergence"
        (Sxe_serve.Compile_one.error_category e));
  Alcotest.(check string) "anything else is internal" "internal"
    (Sxe_serve.Compile_one.error_category (Failure "boom"))

(* ------------------------------------------------------------------ *)
(* Visit counts: the solver's cost per block stays flat as functions   *)
(* grow. Counts, never time: each case counts the calls to the         *)
(* transfer function it passes in.                                     *)
(* ------------------------------------------------------------------ *)

(* [main] of [src] after the [all] pipeline. *)
let compiled_main src =
  let p = Sxe_lang.Frontend.compile src in
  ignore (Sxe_core.Pass.compile (Sxe_core.Config.new_all ()) p);
  Prog.find_func p "main"

let reachable_blocks f =
  Array.fold_left (fun n r -> if r then n + 1 else n) 0 (Cfg.reachable f)

(* Reaching-definitions-shaped gen/kill sets: one bit per defining
   instruction; a block generates its last definition of each register
   and kills every other definition of the registers it defines. *)
let gen_kill (f : Cfg.func) =
  let nb = Cfg.num_blocks f in
  let defs = ref [] and universe = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun (i : Instr.t) ->
          Option.iter
            (fun r ->
              defs := (!universe, r, b.Cfg.bid) :: !defs;
              incr universe)
            (Instr.def i.Instr.op))
        (Cfg.body b))
    f;
  let universe = !universe in
  let sets () = Array.init nb (fun _ -> Sxe_util.Bitset.create universe) in
  let gen = sets () and kill = sets () in
  let last = Hashtbl.create 64 in
  (* [!defs] is in reverse program order: the first seen is the last *)
  List.iter
    (fun (d, r, bid) ->
      if not (Hashtbl.mem last (bid, r)) then begin
        Hashtbl.replace last (bid, r) ();
        Sxe_util.Bitset.add gen.(bid) d
      end)
    !defs;
  List.iter
    (fun (d, r, _) ->
      Hashtbl.iter (fun (bid, r') () -> if r' = r then Sxe_util.Bitset.add kill.(bid) d) last)
    !defs;
  Array.iteri (fun b k -> ignore (Sxe_util.Bitset.diff_into ~dst:k gen.(b))) kill;
  (universe, gen, kill)

let counted transfer =
  let calls = ref 0 in
  ((fun bid input -> incr calls; transfer bid input), calls)

let gen_kill_visits f ~dir ~meet =
  let universe, gen, kill = gen_kill f in
  let transfer, calls =
    counted (fun bid input ->
        let x = Sxe_util.Bitset.copy input in
        ignore (Sxe_util.Bitset.diff_into ~dst:x kill.(bid));
        ignore (Sxe_util.Bitset.union_into ~dst:x gen.(bid));
        x)
  in
  ignore
    (Dataflow.solve ~f ~dir ~meet ~universe ~transfer
       ~boundary:(Sxe_util.Bitset.create universe));
  !calls

(* The certifier's instance, set up as [Certify.solve] sets it up. *)
let certify_visits f =
  let module T = Sxe_check.Transfer in
  let module E = Sxe_check.Extstate in
  let env = T.make f in
  let universe = E.universe ~nregs:(T.nregs env) in
  let boundary = Sxe_util.Bitset.create universe in
  Sxe_util.Bitset.fill boundary;
  List.iter (fun (r, ty) -> if ty = I32 then E.set boundary r E.extended) f.Cfg.params;
  let copies = T.copies_create () in
  let transfer, calls = counted (T.block_transfer env copies) in
  ignore (Dataflow.solve ~f ~dir:Dataflow.Forward ~meet:Dataflow.Inter ~universe ~transfer ~boundary);
  !calls

let test_visit_counts () =
  List.iter
    (fun (family, gen) ->
      List.iter
        (fun n ->
          let f = compiled_main (gen n) in
          let blocks = reachable_blocks f in
          let check what calls =
            if calls > 3 * blocks then
              Alcotest.failf "%s at n = %d, %s: %d transfer calls for %d blocks (%.1f per block)"
                family n what calls blocks
                (float_of_int calls /. float_of_int blocks)
          in
          List.iter
            (fun (what, dir, meet) -> check what (gen_kill_visits f ~dir ~meet))
            [ ("forward union", Dataflow.Forward, Dataflow.Union);
              ("forward intersection", Dataflow.Forward, Dataflow.Inter);
              ("backward union", Dataflow.Backward, Dataflow.Union);
              ("backward intersection", Dataflow.Backward, Dataflow.Inter) ];
          check "certifier" (certify_visits f))
        [ 40; 80; 160 ])
    [ ("loop chain", Helpers.loop_chain); ("diamond chain", Helpers.diamond_chain) ]

let suite =
  [
    Alcotest.test_case "liveness basics" `Quick test_liveness;
    Alcotest.test_case "liveness across loop" `Quick test_liveness_across_loop;
    Alcotest.test_case "reaching defs and chains" `Quick test_reaching_and_chains;
    Alcotest.test_case "incremental deletion (hand)" `Quick test_incremental_deletion_hand;
    QCheck_alcotest.to_alcotest prop_incremental_matches_rebuild;
    QCheck_alcotest.to_alcotest prop_chains_consistent;
    Alcotest.test_case "non-monotone transfer: typed non-convergence" `Quick
      test_no_convergence;
    Alcotest.test_case "at most 3 transfer calls per block" `Quick test_visit_counts;
  ]
