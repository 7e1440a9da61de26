(** Unit tests for the elimination analysis: AnalyzeDEF cases, AnalyzeUSE
    propagation, and each of Theorems 1-4 (Section 3). *)

open Sxe_ir

let compile_with cfg src =
  let prog = Sxe_lang.Frontend.compile src in
  let stats = Sxe_core.Pass.compile cfg prog in
  Validate.check_prog prog;
  (prog, stats)

let theorem_count (stats : Sxe_core.Stats.t) n = stats.Sxe_core.Stats.by_theorem.(n)

let run_ok src prog =
  let reference = Helpers.reference_outcome src in
  let out = Sxe_vm.Interp.run ~mode:`Faithful prog in
  Alcotest.(check bool) "observable equivalence" true (Sxe_vm.Interp.equivalent reference out);
  out

(* -- AnalyzeDEF ------------------------------------------------------- *)

let test_def_and_mask () =
  (* j & 0x0fffffff: the extension after it is redundant (Case 1, the
     paper's AND example) *)
  let src =
    {|
global int g;
void main() {
  int j = g;
  j = j & 0x0fffffff;
  double d = (double) j;    /* requiring use */
  checksum_double(d);
}
|}
  in
  let prog, stats = compile_with (Sxe_core.Config.basic_ud_du ()) src in
  ignore (run_ok src prog);
  (* extensions generated after the load and the AND; both disappear: the
     AND-extension by Case 1, the load extension because no requiring use
     observes it (the AND absorbs the upper bits) *)
  Alcotest.(check int) "nothing remains" 0 stats.Sxe_core.Stats.remaining

let test_def_div_result_extended () =
  let src =
    {|
global int g;
void main() {
  int q = g / 3;
  double d = (double) q;
  checksum_double(d);
}
|}
  in
  let prog, stats = compile_with (Sxe_core.Config.basic_ud_du ()) src in
  ignore (run_ok src prog);
  (* the division's operand needs the load extension, but the quotient is
     a genuine int32: the extension after the division goes *)
  Alcotest.(check int) "only the operand extension remains" 1 stats.Sxe_core.Stats.remaining

let test_def_div_overflow_kept () =
  (* [min_int / -1] leaves 2^31 in the 64-bit register, so the
     extension after a division by a possible -1 stays: every variant
     prints the Java quotient, min_int *)
  let src =
    {|
int main() {
  int[] a = new int[2];
  a[0] = -2147483647 - 1;
  a[1] = -1;
  int q = a[0] / a[1];
  long l = q;
  print_long(l);
  double d = q;
  print_double(d);
  return 0;
}
|}
  in
  ignore (Helpers.check_all_variants ~name:"min_int / -1" src)

let test_use_not_required_by_store () =
  (* a 32-bit store never needs extended sources *)
  let src =
    {|
global int g;
global int h;
void main() {
  int x = g + 1;
  h = x;
  checksum(h);
}
|}
  in
  let prog, stats = compile_with (Sxe_core.Config.basic_ud_du ()) src in
  ignore (run_ok src prog);
  (* checksum(h) reloads h: its own extension chain; x's extension dies *)
  Alcotest.(check bool) "add extension eliminated" true
    (stats.Sxe_core.Stats.eliminated >= 1)

(* -- Theorems --------------------------------------------------------- *)

let upcount_src =
  {|
void main() {
  int n = 40;
  int[] a = new int[n];
  int i = 0;
  while (i < n) { a[i] = i; i = i + 1; }
  int t = 0;
  i = 0;
  while (i != n) { t = t + a[i]; i = i + 2; }
  print_int(t);
  checksum(t);
}
|}

(* The second loop tests on [i != n] and strides by 2 so the interval
   analysis cannot prove the increment free of int32 wrap (a bounds
   check refines the subscript to [0, 2^31-2], so a stride of 1 would
   let no-overflow reasoning prove the increment extended outright and
   Theorem 2 would never be consulted). Only Theorem 2's bounds-check
   argument covers the access. *)

let test_theorem2_upcount () =
  let prog, stats = compile_with (Sxe_core.Config.array ()) upcount_src in
  ignore (run_ok upcount_src prog);
  Alcotest.(check bool) "T2 fired" true (theorem_count stats 2 > 0)

let downcount_src =
  {|
global int mem;
void main() {
  int n = 40;
  int[] a = new int[n];
  int k = 0;
  while (k < n) { a[k] = 3 * k; k = k + 1; }
  mem = n;
  int t = 0;
  int i = mem;
  do { i = i - 1; t += a[i]; } while (i > 0);
  print_int(t);
  checksum(t);
}
|}

let test_theorem4_downcount () =
  let prog, stats = compile_with (Sxe_core.Config.array ()) downcount_src in
  ignore (run_ok downcount_src prog);
  (* i - 1 has addend -1: inside Theorem 4's Java bound [-1, 0x7fffffff]
     but outside Theorem 2's [0, ...] *)
  Alcotest.(check bool) "T4 fired" true (theorem_count stats 4 > 0)

let test_theorem1_upper_zero () =
  (* Theorem 1 in isolation, on hand-built post-conversion IR: the
     subscript is a zero-extended 32-bit memory read (IA64), so its upper
     bits are zero by the load form — but its signed int32 range is
     unknown, so no range fact proves it sign-extended. Only Theorem 1
     covers the access. *)
  let open Sxe_ir in
  let open Sxe_ir.Types in
  let module B = Builder in
  let b, params = B.create ~name:"t1" ~params:[ Ref ] ~ret:I32 () in
  let a = List.hd params in
  let i = B.gload b ~lext:LZero I32 "mem" in       (* upper 32 bits zero *)
  let ext = B.sext b i in
  let v = B.arrload b AI32 a i in
  B.retv b I32 v;
  let f = B.func b in
  Validate.check f;
  let stats = Sxe_core.Stats.create () in
  let _chain_time = Sxe_core.Eliminate.run (Sxe_core.Config.array ()) f stats in
  Alcotest.(check int) "T1 fired" 1 stats.Sxe_core.Stats.by_theorem.(1);
  ignore ext;
  Alcotest.(check int) "subscript extension eliminated" 0 (Sxe_core.Eliminate.count_sext32 f)

let test_theorem3_sub_from_zero_extended () =
  (* Theorem 3 in isolation, on hand-built post-conversion IR: the
     subscript is i - j where i is a zero-extended memory read (IA64) with
     no extension of its own, and 0 <= j <= 7 by a mask. Only the
     subscript extension exists; Theorem 3 must prove it redundant. *)
  let open Sxe_ir in
  let open Sxe_ir.Types in
  let module B = Builder in
  let b, params = B.create ~name:"t3" ~params:[ Ref; I32 ] ~ret:I32 () in
  let a = List.hd params and j0 = List.nth params 1 in
  let i = B.gload b ~lext:LZero I32 "mem" in       (* upper 32 bits zero *)
  let seven = B.iconst b 7 in
  let j = B.and_ b j0 seven in                     (* 0 <= j <= 7 *)
  let sub = B.sub b i j in
  let ext = B.sext b sub in
  let v = B.arrload b AI32 a sub in
  B.retv b I32 v;
  let f = B.func b in
  Validate.check f;
  let stats = Sxe_core.Stats.create () in
  let _chain_time = Sxe_core.Eliminate.run (Sxe_core.Config.array ()) f stats in
  Alcotest.(check int) "T3 fired" 1 stats.Sxe_core.Stats.by_theorem.(3);
  ignore ext;
  Alcotest.(check int) "subscript extension eliminated" 0 (Sxe_core.Eliminate.count_sext32 f)

let test_unbounded_subscript_kept () =
  (* a[i+j] with j unconstrained: no theorem applies, the extension must
     stay *)
  let src =
    {|
global int gi;
global int gj;
void main() {
  int n = 16;
  int[] a = new int[n];
  gi = 3; gj = 5;
  int i = gi;
  int j = gj;
  int t = a[i + j];
  checksum(t);
}
|}
  in
  let prog, stats = compile_with (Sxe_core.Config.array ()) src in
  ignore (run_ok src prog);
  Alcotest.(check bool) "subscript extension kept" true (stats.Sxe_core.Stats.remaining >= 1)

let test_array_declines_unprovable_range () =
  (* AnalyzeARRAY's side condition is the range proof 0 <= j <= 0x7ffffffe.
     Here j = x + y of two extended but otherwise unknown loads: the sum is
     neither provably extended (Add destroys it) nor range-bounded, so no
     theorem may fire and the subscript extension must stay; masking the
     operands first bounds the sum and lets it go. *)
  let open Sxe_ir in
  let open Sxe_ir.Types in
  let module B = Builder in
  let build masked =
    let b, params = B.create ~name:"ad" ~params:[ Ref ] ~ret:I32 () in
    let a = List.hd params in
    let x0 = B.gload b ~lext:LSign I32 "gx" in
    let y0 = B.gload b ~lext:LSign I32 "gy" in
    let x, y =
      if masked then
        let m = B.iconst b 0xFF in
        (B.and_ b x0 m, B.and_ b y0 m)
      else (x0, y0)
    in
    let j = B.add b x y in
    ignore (B.sext b j);
    let v = B.arrload b AI32 a j in
    B.retv b I32 v;
    B.func b
  in
  let eliminate f =
    Validate.check f;
    let stats = Sxe_core.Stats.create () in
    let _ = Sxe_core.Eliminate.run (Sxe_core.Config.array ()) f stats in
    (Sxe_core.Eliminate.count_sext32 f, stats)
  in
  let kept, stats = eliminate (build false) in
  Alcotest.(check int) "unprovable subscript extension kept" 1 kept;
  Alcotest.(check int) "no theorem fired" 0
    (Array.fold_left ( + ) 0 stats.Sxe_core.Stats.by_theorem);
  let kept_masked, _ = eliminate (build true) in
  Alcotest.(check int) "bounded subscript extension eliminated" 0 kept_masked

(* [opaque = true] launders the allocation through a call so the access
   cannot see the array's length; Theorem 4 then depends on the configured
   maxlen, as in Figure 10's discussion. *)
let figure10_src ?(opaque = false) step =
  Printf.sprintf
    {|
global int mem;
int[] make(int n) { return new int[n]; }
void main() {
  int n = 30;
  int[] a = %s;
  int k = 0;
  while (k < n) { a[k] = k * 5; k = k + 1; }
  mem = n;
  int t = 0;
  int i = mem;
  do { i = i - %d; t += a[i]; } while (i > 0);
  print_int(t);
  checksum(t);
}
|}
    (if opaque then "make(n)" else "new int[n]")
    step

let test_figure10_maxlen () =
  (* Figure 10: with step 2, the in-loop subscript extension is removable
     only when the maximum array size is known to be < 0x7fffffff; the
     default (Java) bound must keep it *)
  let src = figure10_src ~opaque:true 2 in
  let prog_default, _ = compile_with (Sxe_core.Config.array ()) src in
  let prog_limited, stats_limited =
    compile_with (Sxe_core.Config.array ~maxlen:0x7fff0001L ()) src
  in
  let out_default = run_ok src prog_default in
  let out_limited = run_ok src prog_limited in
  Alcotest.(check bool) "limited maxlen executes fewer extensions" true
    (Int64.compare out_limited.Sxe_vm.Interp.sext32 out_default.Sxe_vm.Interp.sext32 < 0);
  Alcotest.(check bool) "T4 fired only under the limit" true
    (theorem_count stats_limited 4 > 0)

let test_known_allocation_refines_maxlen () =
  (* the array is allocated with a small constant length reaching the
     access: Theorem 4's maxlen comes from the allocation *)
  let src = figure10_src ~opaque:false 2 in
  let prog, stats = compile_with (Sxe_core.Config.array ()) src in
  ignore (run_ok src prog);
  (* new int[30] is visible to the access (single def), so step -2 is
     admissible even under the default configuration *)
  Alcotest.(check bool) "T4 via allocation bound" true (theorem_count stats 4 > 0)

(* -- 8/16-bit extensions ---------------------------------------------- *)

let test_sub_width_elimination () =
  let src =
    {|
void main() {
  int n = 32;
  byte[] a = new byte[n];
  int k = 0;
  while (k < n) { a[k] = k - 16; k = k + 1; }
  int t = 0;
  k = 0;
  while (k < n) {
    int v = a[k];        /* byte load: sext8 */
    byte c = (byte) v;   /* second sext8: redundant, value already byte */
    t = t + c;
    k = k + 1;
  }
  print_int(t);
  checksum(t);
}
|}
  in
  let reference = Helpers.reference_outcome src in
  let prog, _ = compile_with (Sxe_core.Config.new_all ()) src in
  let out = Sxe_vm.Interp.run ~mode:`Faithful prog in
  Alcotest.(check bool) "equivalent" true (Sxe_vm.Interp.equivalent reference out);
  (* at most one 8-bit extension per iteration remains *)
  Alcotest.(check bool) "redundant sext8 eliminated" true
    (Int64.compare out.Sxe_vm.Interp.sext_sub (Int64.of_int (32 + 8)) <= 0)

let test_upper_zero_chains () =
  (* upper-zero facts propagate through masks and copies; Or needs both
     sides *)
  let open Sxe_ir in
  let open Sxe_ir.Types in
  let module B = Builder in
  let b, params = B.create ~name:"uz" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let u = B.gload b ~lext:LZero I32 "g" in   (* upper zero *)
  let m = B.and_ b x u in                    (* And: either side suffices *)
  let c = B.mov b ~ty:I32 m in               (* copies preserve *)
  let o = B.or_ b c x in                     (* Or with unknown x: lost *)
  B.retv b I32 o;
  let f = B.func b in
  let chains = Sxe_analysis.Chains.build f in
  let ranges = Sxe_analysis.Range.compute f in
  let stats = Sxe_core.Stats.create () in
  let ctx =
    Sxe_core.Analyze.create ~f ~chains ~ranges ~maxlen:Sxe_ir.Types.max_array_length
      ~array_enabled:true ~stats
  in
  let def_of reg =
    let found = ref None in
    Cfg.iter_instrs (fun _ i -> if Instr.def i.Instr.op = Some reg then found := Some i) f;
    Sxe_analysis.Reaching.DIns (Option.get !found)
  in
  Alcotest.(check bool) "load upper zero" true (Sxe_core.Analyze.upper_zero ctx (def_of u));
  Alcotest.(check bool) "and keeps it" true (Sxe_core.Analyze.upper_zero ctx (def_of m));
  Alcotest.(check bool) "copy keeps it" true (Sxe_core.Analyze.upper_zero ctx (def_of c));
  Alcotest.(check bool) "or loses it" false (Sxe_core.Analyze.upper_zero ctx (def_of o));
  (* the masked value is also provably sign-extended only when the mask
     bounds it below 2^31 — here x is unknown, so And(x, upper-zero-load)
     has zero upper bits but an unknown sign bit: not extended *)
  Alcotest.(check bool) "upper-zero alone is not extended" true
    (Sxe_core.Analyze.analyze_def ctx (def_of m))

let test_maxlen_for_chases_copies () =
  let open Sxe_ir in
  let open Sxe_ir.Types in
  let module B = Builder in
  let b, params = B.create ~name:"ml" ~params:[ I32 ] ~ret:I32 () in
  let i = List.hd params in
  let n = B.iconst b 17 in
  let a0 = B.newarr b AI32 n in
  let a1 = B.mov b ~ty:Ref a0 in
  let a2 = B.mov b ~ty:Ref a1 in
  let v = B.arrload b AI32 a2 i in
  B.retv b I32 v;
  let f = B.func b in
  let chains = Sxe_analysis.Chains.build f in
  let ranges = Sxe_analysis.Range.compute f in
  let stats = Sxe_core.Stats.create () in
  let ctx =
    Sxe_core.Analyze.create ~f ~chains ~ranges ~maxlen:Sxe_ir.Types.max_array_length
      ~array_enabled:true ~stats
  in
  let access = ref None in
  Cfg.iter_instrs
    (fun _ ins -> match ins.Instr.op with Instr.ArrLoad _ -> access := Some ins | _ -> ())
    f;
  Alcotest.(check int64) "allocation bound found through two copies" 17L
    (Sxe_core.Analyze.maxlen_for ctx (Option.get !access) a2)

let test_zext_elimination () =
  (* beyond the paper: a zero extension over an IA64 byte load (already
     zero-extended) is removed; over an unknown value it stays *)
  let open Sxe_ir in
  let open Sxe_ir.Types in
  let module B = Builder in
  let count_zext f =
    Cfg.fold_instrs
      (fun n _ i -> match i.Instr.op with Instr.Zext _ -> n + 1 | _ -> n)
      0 f
  in
  let b, params = B.create ~name:"z" ~params:[ Ref; I32 ] ~ret:I32 () in
  let a = List.hd params and i = List.nth params 1 in
  let v = B.arrload b AI8 a i in
  ignore (B.zext b ~from:W8 v);          (* redundant: ld1 zero-extends *)
  let u = B.gload b ~lext:LZero I32 "g" in
  ignore (B.zext b ~from:W8 u);          (* required: upper 24 of low 32 unknown *)
  let s = B.add b v u in
  B.retv b I32 s;
  let f = B.func b in
  Validate.check f;
  let stats = Sxe_core.Stats.create () in
  let _ = Sxe_core.Eliminate.run (Sxe_core.Config.array ()) f stats in
  Alcotest.(check int) "one zext remains" 1 (count_zext f)

let suite =
  [
    Alcotest.test_case "AnalyzeDEF: AND with positive operand" `Quick test_def_and_mask;
    Alcotest.test_case "AnalyzeDEF: division result extended" `Quick test_def_div_result_extended;
    Alcotest.test_case "AnalyzeDEF: min_int / -1 keeps its extension" `Quick
      test_def_div_overflow_kept;
    Alcotest.test_case "AnalyzeUSE: stores don't require" `Quick test_use_not_required_by_store;
    Alcotest.test_case "Theorem 2: up-counting loop" `Quick test_theorem2_upcount;
    Alcotest.test_case "Theorem 4: down-counting loop" `Quick test_theorem4_downcount;
    Alcotest.test_case "Theorem 1: zero-extended index" `Quick test_theorem1_upper_zero;
    Alcotest.test_case "Theorem 3: subtraction" `Quick test_theorem3_sub_from_zero_extended;
    Alcotest.test_case "no theorem: extension kept" `Quick test_unbounded_subscript_kept;
    Alcotest.test_case "AnalyzeARRAY declines unprovable range" `Quick
      test_array_declines_unprovable_range;
    Alcotest.test_case "Figure 10: maxlen-dependent" `Quick test_figure10_maxlen;
    Alcotest.test_case "maxlen from allocation" `Quick test_known_allocation_refines_maxlen;
    Alcotest.test_case "8-bit extension elimination" `Quick test_sub_width_elimination;
    Alcotest.test_case "zero-extension elimination (extension)" `Quick test_zext_elimination;
    Alcotest.test_case "upper-zero fact chains" `Quick test_upper_zero_chains;
    Alcotest.test_case "maxlen chases reference copies" `Quick test_maxlen_for_chases_copies;
  ]
