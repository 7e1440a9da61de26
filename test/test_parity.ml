(** Parity of the allocation-free analyses with their reference
    implementations ({!Legacy}), and the allocation gate.

    - Every [Range.before]/[after]/[at_exit] answer, for every block,
      instruction and tracked register, equals the round-robin fixpoint's.
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

(** Fail unless the two fixpoints answer every query on [f] alike. The
    reference answers for every register come from one replay per block
    of the reference entry states, which is what its queries compute one
    register at a time. *)
let check_range ?call_ranges ~what (f : Cfg.func) =
  let t = Range.compute ?call_ranges f in
  let o = Range_ref.compute ?call_ranges f in
  let regs = tracked_regs f in
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
      List.iter
        (fun (i : Instr.t) ->
          let iid = i.Instr.iid in
          List.iter
            (fun r ->
              check "before" bid iid r (Range.before t ~bid ~iid r) (Range_ref.sget st r))
            regs;
          Range.transfer ?call_ranges ~tracked:o.Range_ref.tracked st i;
          List.iter
            (fun r ->
              check "after" bid iid r (Range.after t ~bid ~iid r) (Range_ref.sget st r))
            regs)
        (Cfg.body b);
      List.iter
        (fun r ->
          check "at_exit" bid (-1) r (Range.at_exit t ~bid r) (Range_ref.at_exit o ~bid r))
        regs)
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
        (Helpers.all_variants ()))
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

let test_allocation () =
  let f = huffman_main () in
  let nregs = Cfg.num_regs f and nblocks = Cfg.num_blocks f in
  let t = ref (Range.compute f) in
  let words = major_direct_words (fun () -> t := Range.compute f) in
  let budget = ((2 * nblocks) + 4) * ((2 * nregs) + 1) in
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

let suite =
  [
    Alcotest.test_case "workloads x variants: range and step 2 parity" `Slow test_workloads;
    Alcotest.test_case "summary early exit = three blind rounds" `Quick test_summary_early_exit;
    Alcotest.test_case "allocation: Range.compute and queries" `Quick test_allocation;
    QCheck_alcotest.to_alcotest prop_random_ir;
    QCheck_alcotest.to_alcotest prop_mutated_ir;
  ]
