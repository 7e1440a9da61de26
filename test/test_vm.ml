(** Interpreter tests: faithful upper-bit semantics, trap behaviour,
    counters, the cost model, and branch profiling. *)

open Sxe_ir
open Sxe_ir.Types
module B = Builder

let test_faithful_vs_canonical () =
  (* A handwritten unsound program: i2d of an unextended zero-extended
     load. Canonical mode (32-bit machine) sees -1; faithful mode sees
     2^32-1 — the divergence the optimizer must never create. *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let x = B.gload b ~lext:LZero I32 "g" in
  let d = B.i2d b x in
  (match B.call b "checksum_double" [ (d, F64) ] with Some _ -> assert false | None -> ());
  B.ret b;
  let f = B.func b in
  let mk () =
    let p = Helpers.prog_of_func f in
    Prog.declare_global p "g" I32;
    p
  in
  (* store -1 into the global first: wrap in a main that stores *)
  let store_first p =
    let b2, _ = B.create ~name:"boot" ~params:[] () in
    let m1 = B.iconst b2 (-1) in
    B.gstore b2 I32 "g" m1;
    (match B.call b2 "main" [] with Some _ -> assert false | None -> ());
    B.ret b2;
    Prog.add_func p (B.func b2);
    p.Prog.main <- "boot";
    p
  in
  let faithful = Sxe_vm.Interp.run ~mode:`Faithful (store_first (mk ())) in
  let canonical = Sxe_vm.Interp.run ~mode:`Canonical (store_first (mk ())) in
  Alcotest.(check bool) "modes diverge on unsound code" false
    (Int64.equal faithful.Sxe_vm.Interp.checksum canonical.Sxe_vm.Interp.checksum)

let test_canonical_zext32 () =
  (* The canonical 32-bit machine re-extends after a [zextend32] of an
     I32 register, as after every other 32-bit definition, so [i2d] sees
     the negative value. Step 1 assumes this when it places an extension
     after the [zextend32]; with a reference that kept the zeroed upper
     half, every variant diverges on this program. *)
  let build ~zext =
    let b, _ = B.create ~name:"main" ~params:[] () in
    let x = B.const b ~ty:I32 (-845209278L) in
    if zext then ignore (B.zext b x);
    let d = B.i2d b x in
    (match B.call b "checksum_double" [ (d, F64) ] with Some _ -> assert false | None -> ());
    B.ret b;
    Helpers.prog_of_func (B.func b)
  in
  let plain = Sxe_vm.Interp.run ~mode:`Canonical (build ~zext:false) in
  List.iter
    (fun (name, engine, fuse) ->
      let out = Sxe_vm.Interp.run ~mode:`Canonical ~engine ~fuse (build ~zext:true) in
      Alcotest.(check int64) (name ^ ": zextend32 keeps the 32-bit value")
        plain.Sxe_vm.Interp.checksum out.Sxe_vm.Interp.checksum)
    [
      ("structural", `Structural, Sxe_vm.Fuse.Off);
      ("precode", `Precode, Sxe_vm.Fuse.Off);
      ("fused", `Precode, Sxe_vm.Fuse.All);
    ];
  Alcotest.(check int) "every variant agrees with the reference" 0
    (List.length (Sxe_fuzz.Oracle.check (Sxe_fuzz.Oracle.Ir (build ~zext:true))))

let test_wild_access_trap () =
  (* bounds check passes on the low 32 bits but the full register is
     garbage: the machine model traps *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let len = B.iconst b 10 in
  let a = B.newarr b AI32 len in
  (* craft idx = 2 + 2^32 via 64-bit-visible arithmetic: W32 add of
     0x7fffffff + 0x80000001 = 0x1_0000_0000 + 0 ... use two positive
     constants whose 64-bit sum exceeds 2^32 with low bits = 2 *)
  let c1 = B.const b ~ty:I32 0x7FFFFFFFL in
  let c2 = B.const b ~ty:I32 0x7FFFFFFFL in
  let t = B.add b c1 c2 in
  (* t = 0xFFFFFFFE (low32 = -2), upper zero... make idx = t + 4: full =
     0x1_0000_0002, low32 = 2: in bounds as 32-bit, wild as 64-bit *)
  let four = B.iconst b 4 in
  let idx = B.add b t four in
  let v = B.arrload b AI32 a idx in
  ignore (B.call b "checksum" [ (v, I32) ]);
  B.ret b;
  let out = Sxe_vm.Interp.run ~mode:`Faithful (Helpers.prog_of_func (B.func b)) in
  Alcotest.(check (option string)) "wild access trapped" (Some "wild-access")
    out.Sxe_vm.Interp.trap

let test_counters () =
  let src =
    {|
void main() {
  int t = 0;
  for (int i = 0; i < 10; i = i + 1) { t = t + i; }
  checksum(t);
}
|}
  in
  let prog = Sxe_lang.Frontend.compile src in
  let stats = Sxe_core.Pass.compile (Sxe_core.Config.baseline ()) prog in
  ignore stats;
  let out = Sxe_vm.Interp.run ~mode:`Faithful prog in
  Alcotest.(check bool) "instructions counted" true (Int64.compare out.executed 20L > 0);
  Alcotest.(check bool) "extensions counted" true (Int64.compare out.sext32 0L > 0);
  Alcotest.(check bool) "cycles >= instructions" true
    (Int64.compare out.cycles out.executed >= 0)

let test_fuel () =
  let src = {|void main() { int i = 0; while (i < 1000000) { i = i + 1; } }|} in
  let prog = Sxe_lang.Frontend.compile src in
  let out = Sxe_vm.Interp.run ~mode:`Canonical ~fuel:1000L prog in
  Alcotest.(check (option string)) "fuel trap" (Some "fuel-exhausted") out.Sxe_vm.Interp.trap

let test_profile_collection () =
  let src =
    {|
void main() {
  int taken = 0;
  for (int i = 0; i < 100; i = i + 1) {
    if (i % 4 == 0) { taken = taken + 1; }
  }
  checksum(taken);
}
|}
  in
  let prog = Sxe_lang.Frontend.compile src in
  let profile = Sxe_vm.Profile.create () in
  let out = Sxe_vm.Interp.run ~mode:`Canonical ~profile prog in
  Alcotest.(check (option string)) "ran" None out.Sxe_vm.Interp.trap;
  (* some conditional edge must show a ~25% probability *)
  let found = ref false in
  Hashtbl.iter
    (fun (fn, src_b, dst_b) _ ->
      match Sxe_vm.Profile.probability profile fn ~src:src_b ~dst:dst_b with
      | Some p when p > 0.2 && p < 0.3 -> found := true
      | _ -> ())
    profile.Sxe_vm.Profile.edges;
  Alcotest.(check bool) "a quarter-probability edge observed" true !found

let test_recursion () =
  let src =
    {|
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
void main() { print_int(fib(18)); }
|}
  in
  let prog = Sxe_lang.Frontend.compile src in
  let out = Sxe_vm.Interp.run ~mode:`Canonical prog in
  Alcotest.(check string) "fib(18)" "2584" (String.trim out.Sxe_vm.Interp.output)

let test_stack_overflow_traps () =
  let src =
    {|
int down(int n) { return down(n + 1); }
void main() { print_int(down(0)); }
|}
  in
  let prog = Sxe_lang.Frontend.compile src in
  let out = Sxe_vm.Interp.run ~mode:`Canonical prog in
  Alcotest.(check (option string)) "deep recursion traps" (Some "stack-overflow")
    out.Sxe_vm.Interp.trap

let test_builtin_output_order () =
  let src =
    {|
void main() {
  print_int(1);
  print_double(2.5);
  print_long(3L);
}
|}
  in
  let prog = Sxe_lang.Frontend.compile src in
  let out = Sxe_vm.Interp.run prog in
  Alcotest.(check string) "ordered output" "1\n2.5\n3" (String.trim out.Sxe_vm.Interp.output)

let test_justext_free () =
  (* dummy extensions cost nothing and do not count *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let x = B.iconst b 3 in
  ignore (B.justext b x);
  ignore (B.call b "checksum" [ (x, I32) ]);
  B.ret b;
  let out = Sxe_vm.Interp.run (Helpers.prog_of_func (B.func b)) in
  Alcotest.(check int64) "no sext32 counted" 0L out.Sxe_vm.Interp.sext32

let suite =
  [
    Alcotest.test_case "faithful vs canonical modes" `Quick test_faithful_vs_canonical;
    Alcotest.test_case "canonical zextend32 re-extends" `Quick test_canonical_zext32;
    Alcotest.test_case "wild access traps" `Quick test_wild_access_trap;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "fuel" `Quick test_fuel;
    Alcotest.test_case "branch profiling" `Quick test_profile_collection;
    Alcotest.test_case "recursion" `Quick test_recursion;
    Alcotest.test_case "stack overflow traps" `Quick test_stack_overflow_traps;
    Alcotest.test_case "builtin output order" `Quick test_builtin_output_order;
    Alcotest.test_case "dummy extensions are free" `Quick test_justext_free;
  ]
