(** Parity of the allocation-free analyses with their reference
    implementations ({!Legacy}), and the allocation gate.

    - Every [Range.before]/[after]/[at_exit] answer about a live tracked
      register, for every block and instruction, equals the round-robin
      fixpoint's; a register dead at a block's entry answers [top].
    - The printed IR after Step 2 equals the one Step 2 gives with the
      rebuild-every-round DCE and the copying local CSE.
    - [Summary]'s early exit publishes the table three blind rounds give.

    The range checks run wherever the compiler computes ranges: on the
    frontend IR (the summaries), after Step 2, after insertion (the
    eliminator) and on the optimized output (the certifier). They cover
    the 24 registry and extras sources under all 12 variants, and 240
    random and mutated raw-IR CFGs. *)

open Sxe_ir
module Range = Sxe_analysis.Range
module Range_ref = Legacy.Range_ref

let iv = Alcotest.(pair int64 int64)

let tracked_regs (f : Cfg.func) =
  List.filter (fun r -> Cfg.reg_ty f r = Types.I32) (List.init (Cfg.num_regs f) Fun.id)

(** The tracked registers of a bit set, ascending. *)
let tracked_of (f : Cfg.func) set =
  List.filter (fun r -> Cfg.reg_ty f r = Types.I32) (Sxe_util.Bitset.elements set)

(** Fail unless the two fixpoints answer alike every query about a live
    register: before an instruction, the registers it uses and those live
    after it that it does not define; after it, those live after it and
    its destination; at a block's exit, those live out of it and the
    terminator's operands. {!Range} answers [top] for a register not live
    into the block until the block defines it, where the dense reference
    answers its join. The reference answers come from one replay per
    block of the reference entry states, which is what its queries
    compute one register at a time. *)
let check_range ?call_ranges ~what (f : Cfg.func) =
  let t = Range.compute ?call_ranges f in
  let o = Range_ref.compute ?call_ranges f in
  let live = Sxe_analysis.Liveness.compute f in
  let tracked r = Cfg.reg_ty f r = Types.I32 in
  let check q bid iid r got want =
    if got <> want then
      Alcotest.check iv
        (Printf.sprintf "%s: %s %s B%d i%d r%d" what f.Cfg.name q bid iid r)
        want got
  in
  Cfg.iter_blocks
    (fun b ->
      let bid = b.Cfg.bid in
      let st = Array.copy o.Range_ref.entry_states.(bid) in
      let live_after = Sxe_analysis.Liveness.live_after_each live bid in
      List.iter2
        (fun (i : Instr.t) (iid, after) ->
          assert (iid = i.Instr.iid);
          let def = Instr.def i.Instr.op in
          let live_before =
            List.filter (fun r -> Some r <> def) (tracked_of f after)
            @ List.filter tracked (Instr.uses i.Instr.op)
          in
          List.iter
            (fun r ->
              check "before" bid iid r (Range.before t ~bid ~iid r) (Range_ref.sget st r))
            live_before;
          Range.transfer ?call_ranges ~tracked:o.Range_ref.tracked st i;
          List.iter
            (fun r ->
              check "after" bid iid r (Range.after t ~bid ~iid r) (Range_ref.sget st r))
            (tracked_of f after @ List.filter tracked (Option.to_list def)))
        (Cfg.body b) live_after;
      List.iter
        (fun r ->
          check "at_exit" bid (-1) r (Range.at_exit t ~bid r) (Range_ref.at_exit o ~bid r))
        (tracked_of f (Sxe_analysis.Liveness.live_out live bid)
        @ List.filter tracked (Instr.term_uses (Cfg.term b))))
    f

(** Fail unless Step 2 prints the same IR as the reference Step 2. *)
let check_step2 ~what ~pre (f : Cfg.func) =
  let g = Clone.clone_func f and h = Clone.clone_func f in
  Sxe_opt.Pipeline.run_func ~pre g;
  Legacy.step2_ref ~pre h;
  Alcotest.(check string)
    (Printf.sprintf "%s: step 2 of %s" what f.Cfg.name)
    (Printer.func_to_string h) (Printer.func_to_string g)

(** Compile [p] under [config] and run every check at every stage where
    the compiler computes ranges. [seen] skips functions already checked
    under the same summaries. *)
let check_compile ?(seen = Hashtbl.create 16) ~what (config : Sxe_core.Config.t) (p : Prog.t) =
  let summary = Sxe_analysis.Summary.compute p in
  let call_ranges = Sxe_analysis.Summary.call_ranges summary in
  let check_once f =
    let key = Printer.func_to_string f in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      check_range ~call_ranges ~what f
    end
  in
  Prog.iter_funcs check_once p;
  let stage_check ~stage f =
    if stage = "convert" then begin
      check_step2 ~what ~pre:config.Sxe_core.Config.pre f;
      let g = Clone.clone_func f in
      Sxe_opt.Pipeline.run_func ~pre:config.Sxe_core.Config.pre g;
      check_once g;
      if config.Sxe_core.Config.elimination = Sxe_core.Config.Elim_ud_du then begin
        Sxe_core.Insertion.run config g (Sxe_core.Stats.create ());
        check_once g
      end
    end
  in
  ignore (Sxe_core.Pass.compile ~stage_check config p);
  Prog.iter_funcs check_once p

let sources () =
  Sxe_workloads.Registry.all ~scale:1 () @ Sxe_workloads.Registry.extras ~scale:1 ()

let test_workloads () =
  let srcs = sources () in
  Alcotest.(check int) "24 sources" 24 (List.length srcs);
  List.iter
    (fun (w : Sxe_workloads.Registry.t) ->
      let base = Sxe_lang.Frontend.compile w.source in
      let seen = Hashtbl.create 64 in
      List.iter
        (fun (config : Sxe_core.Config.t) ->
          check_compile ~seen
            ~what:(w.name ^ "/" ^ config.Sxe_core.Config.name)
            config (Clone.clone_prog base))
        (Sxe_core.Config.all ()))
    srcs

(* Each link of the chain needs one more round; [r] is recursive. *)
let call_chain =
  {|
int h(int x) { return x & 7; }
int g(int x) { return h(x) + 1; }
int f(int x) { return g(x) * 2; }
int e(int x) { return f(x) - 3; }
int r(int n) { if (n <= 0) { return 0; } return r(n - 1) & 15; }
void main() { checksum(e(5)); checksum(r(4)); }
|}

let test_summary_early_exit () =
  let same ?rounds what src =
    let p = Sxe_lang.Frontend.compile src in
    let summary = Sxe_analysis.Summary.compute ?rounds p in
    List.iter
      (fun (name, want) ->
        Alcotest.(check (option iv))
          (what ^ ": summary of " ^ name)
          want
          (Sxe_analysis.Summary.find summary name))
      (Legacy.summary_ref ?rounds p)
  in
  List.iter (fun (w : Sxe_workloads.Registry.t) -> same w.name w.source) (sources ());
  for rounds = 1 to 6 do
    same ~rounds (Printf.sprintf "call chain, %d rounds" rounds) call_chain
  done

(* Random and mutated raw-IR CFGs: shapes MiniJ cannot produce. *)

let random_prog s = Sxe_fuzz.Gen_ir.of_seed ~nregs:8 ~nblocks:10 s

let mutated_prog s =
  let rng = Sxe_fuzz.Rng.create ~seed:s in
  let f = Sxe_fuzz.Gen_ir.generate ~nregs:8 ~nblocks:10 rng in
  ignore (Sxe_fuzz.Mutate.mutate_n rng 3 f);
  Validate.check f;
  Sxe_fuzz.Gen_ir.wrap f

(** Case seeds, printed with the program they generate. *)
let arb_seed prog =
  QCheck.make
    ~print:(fun s -> Printf.sprintf "seed %d:\n%s" s (Printer.prog_to_string (prog s)))
    (QCheck.Gen.int_bound 0x3FFFFFFF)

let ir_holds prog s =
  let p = prog s in
  let what = Printf.sprintf "seed %d" s in
  Prog.iter_funcs (check_range ~what) p;
  check_compile ~what (Sxe_core.Config.new_all ()) (Clone.clone_prog p);
  check_compile ~what (Sxe_core.Config.baseline ()) p;
  true

let prop_random_ir =
  QCheck.Test.make ~name:"random IR CFGs: range and step 2 parity" ~count:120
    (arb_seed random_prog) (ir_holds random_prog)

let prop_mutated_ir =
  QCheck.Test.make ~name:"mutated IR CFGs: range and step 2 parity" ~count:120
    (arb_seed mutated_prog) (ir_holds mutated_prog)

(* The allocation gate. Words are counted as allocated directly in the
   major heap: promotions are left out, since how many minor-heap words
   a minor collection happens to find live depends on when the minor
   heap fills, not on the code measured. *)

let major_direct_words fn =
  Gc.full_major ();
  let s0 = Gc.quick_stat () in
  fn ();
  let s1 = Gc.quick_stat () in
  int_of_float
    (s1.Gc.major_words -. s0.Gc.major_words -. (s1.Gc.promoted_words -. s0.Gc.promoted_words))

let huffman_main () =
  let w = Sxe_workloads.Registry.find ~scale:1 "Huffman" in
  let p = Sxe_lang.Frontend.compile w.source in
  ignore (Sxe_core.Pass.compile (Sxe_core.Config.new_all ()) p);
  Prog.find_func p "main"

(** The budget scales with the live sets, not with [nblocks · nregs]: a
    few words per live register at each block boundary (its place in a
    register array and in an entry or exit state), plus four arrays of
    up to [2·nregs + 1] words for the per-register tables, the dense
    scratch state among them. The dense states this replaced took
    105 378 words on Huffman [main], against a budget here of about
    10 000. *)
let test_allocation () =
  let f = huffman_main () in
  let nregs = Cfg.num_regs f and nblocks = Cfg.num_blocks f in
  let live = Sxe_analysis.Liveness.compute f in
  let live_words = ref 0 in
  for b = 0 to nblocks - 1 do
    live_words :=
      !live_words
      + Sxe_util.Bitset.cardinal (Sxe_analysis.Liveness.live_in live b)
      + Sxe_util.Bitset.cardinal (Sxe_analysis.Liveness.live_out live b)
      + 2
  done;
  let t = ref (Range.compute f) in
  let words = major_direct_words (fun () -> t := Range.compute f) in
  let budget = (4 * !live_words) + (4 * ((2 * nregs) + 1)) in
  if words > budget then
    Alcotest.failf "Range.compute on %s (%d regs, %d blocks): %d major words > %d" f.Cfg.name
      nregs nblocks words budget;
  let regs = tracked_regs f in
  let sweep () =
    Cfg.iter_instrs
      (fun b i ->
        List.iter
          (fun r -> ignore (Range.before !t ~bid:b.Cfg.bid ~iid:i.Instr.iid r))
          regs)
      f
  in
  Alcotest.(check int) "Range.before sweep: major words" 0 (major_direct_words sweep)

(* Dead registers. *)

module B = Builder

let first_iid (f : Cfg.func) bid = (List.hd (Cfg.body (Cfg.block f bid))).Instr.iid

(* [x] is dead at [B1]: the sparse fixpoint answers [top] there, where
   the dense reference answers the join of the predecessors, [5]. *)
let test_dead_register_top () =
  let b, _ = B.create ~name:"f" ~params:[] ~ret:I32 () in
  let x = B.iconst b 5 in
  let b1 = B.new_block b in
  B.jmp b b1;
  B.switch b b1;
  B.retv b I32 (B.iconst b 7);
  let f = B.func b in
  let t = Range.compute f and o = Range_ref.compute f in
  let iid = first_iid f b1 in
  Alcotest.check iv "reference: x before B1" (5L, 5L) (Range_ref.before o ~bid:b1 ~iid x);
  (* a replay of B0 sets x; the next query must not see it *)
  Alcotest.check iv "x after its definition" (5L, 5L) (Range.after t ~bid:0 ~iid:(first_iid f 0) x);
  Alcotest.check iv "x before B1" Range.top (Range.before t ~bid:b1 ~iid x);
  Alcotest.check iv "x at the exit of B1" Range.top (Range.at_exit t ~bid:b1 x);
  Alcotest.check iv "x at the exit of B0" (5L, 5L) (Range.at_exit t ~bid:0 x)

(* The first loop's counter [i] grows by 3 per iteration and the loop
   exits on [j], so [i] leaves the loop unrefined and still climbing
   through the threshold hops. It is dead at the second loop's header
   [h2], whose own counter [k] settles within a few visits. The dense
   reference counts each growth of [i] at [h2] as a growing visit of
   [h2]; the sparse fixpoint does not, so its widening of [k] can come
   later. Either the two agree at [h2]'s live registers, or the sparse
   interval of [k] holds every value [k] takes there in a run. (They
   agree: [k] is [0, 10] at [h2] in both, and the dead [i] is [top].) *)
let dead_counter_func () =
  let b, _ = B.create ~name:"f" ~params:[] ~ret:I32 () in
  let zero = B.iconst b 0 and one = B.iconst b 1 and three = B.iconst b 3 in
  let hundred = B.iconst b 100 and ten = B.iconst b 10 in
  let i = B.mov b zero and j = B.mov b zero in
  let h1 = B.new_block b and b1 = B.new_block b and x1 = B.new_block b in
  let h2 = B.new_block b and b2 = B.new_block b and x2 = B.new_block b in
  B.jmp b h1;
  B.switch b h1;
  B.br b Lt j hundred ~ifso:b1 ~ifnot:x1;
  B.switch b b1;
  B.binop_to b Add ~dst:i i three;
  B.binop_to b Add ~dst:j j one;
  B.jmp b h1;
  B.switch b x1;
  let k = B.mov b zero in
  B.jmp b h2;
  B.switch b h2;
  (* a copy of [k] at the top of [h2], for the run to watch *)
  let probe = B.mov b k in
  B.br b Lt k ten ~ifso:b2 ~ifnot:x2;
  B.switch b b2;
  B.binop_to b Add ~dst:k k one;
  B.jmp b h2;
  B.switch b x2;
  B.retv b I32 (B.add b k probe);
  (B.func b, h2, i, k)

let test_dead_counter_widening () =
  let f, h2, i, k = dead_counter_func () in
  let t = Range.compute f and o = Range_ref.compute f in
  let iid = first_iid f h2 in
  let live = Sxe_analysis.Liveness.compute f in
  let live_regs = tracked_of f (Sxe_analysis.Liveness.live_in live h2) in
  Alcotest.(check bool) "i is dead at h2" false (List.mem i live_regs);
  Alcotest.check iv "dead i answers top at h2" Range.top (Range.before t ~bid:h2 ~iid i);
  let differ =
    List.filter (fun r -> Range.before t ~bid:h2 ~iid r <> Range_ref.before o ~bid:h2 ~iid r)
      live_regs
  in
  if differ <> [] then begin
    Alcotest.(check (list int)) "only k may differ at h2" [ k ] differ;
    let seen = ref [] in
    let p = Helpers.prog_of_func f in
    let caller, _ = B.create ~name:"main" ~params:[] () in
    (match B.call caller ~ret:I32 "f" [] with
    | Some r -> ignore (B.call caller "checksum" [ (r, I32) ])
    | None -> assert false);
    B.ret caller;
    Prog.add_func p (B.func caller);
    p.Prog.main <- "main";
    let watch fn w v = if fn = "f" && w = iid then seen := v :: !seen in
    let out = Sxe_vm.Interp.run ~mode:`Canonical ~watch p in
    Alcotest.(check bool) "the run ends normally" true (out.Sxe_vm.Interp.trap = None);
    let lo, hi = Range.before t ~bid:h2 ~iid k in
    Alcotest.(check int) "k reaches h2 eleven times" 11 (List.length !seen);
    List.iter
      (fun v ->
        let v = Sxe_ir.Eval.sext32 v in
        if v < lo || v > hi then Alcotest.failf "k = %Ld at h2, outside (%Ld, %Ld)" v lo hi)
      !seen
  end

let suite =
  [
    Alcotest.test_case "workloads x variants: range and step 2 parity" `Slow test_workloads;
    Alcotest.test_case "summary early exit = three blind rounds" `Quick test_summary_early_exit;
    Alcotest.test_case "allocation: Range.compute and queries" `Quick test_allocation;
    QCheck_alcotest.to_alcotest prop_random_ir;
    QCheck_alcotest.to_alcotest prop_mutated_ir;
    Alcotest.test_case "a dead register answers top" `Quick test_dead_register_top;
    Alcotest.test_case "dead counter growing at a settled loop header" `Quick
      test_dead_counter_widening;
  ]
