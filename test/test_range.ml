(** Value-range analysis tests: transfer precision, branch refinement,
    loop widening/narrowing, and soundness against the interpreter. *)

open Sxe_ir
open Sxe_ir.Types
open Sxe_analysis
module B = Builder

let range_of_last_def f reg =
  (* range of [reg] after the last instruction of the entry block *)
  let blk = Cfg.block f 0 in
  let last = List.nth (Cfg.body blk) (List.length (Cfg.body blk) - 1) in
  let t = Range.compute f in
  Range.after t ~bid:0 ~iid:last.Instr.iid reg

let test_const_and_arith () =
  let b, _ = B.create ~name:"f" ~params:[] ~ret:I32 () in
  let x = B.iconst b 10 in
  let y = B.iconst b 3 in
  let s = B.add b x y in
  let d = B.div b s y in
  B.retv b I32 d;
  let f = B.func b in
  Alcotest.(check (pair int64 int64)) "10+3" (13L, 13L) (range_of_last_def f s);
  Alcotest.(check (pair int64 int64)) "13/3" (4L, 4L) (range_of_last_def f d)

let test_and_mask () =
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let m = B.iconst b 0xFF in
  let r = B.and_ b x m in
  B.retv b I32 r;
  let f = B.func b in
  Alcotest.(check (pair int64 int64)) "x & 0xff" (0L, 255L) (range_of_last_def f r)

let test_rem_range () =
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let m = B.iconst b 10 in
  let r = B.rem_ b x m in
  B.retv b I32 r;
  Alcotest.(check (pair int64 int64)) "x % 10" (-9L, 9L) (range_of_last_def (B.func b) r)

let test_branch_refinement () =
  (* if (x < 10 && x >= 0) then ... range of x in the then-branch *)
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let ten = B.iconst b 10 in
  let zero = B.iconst b 0 in
  let b1 = B.new_block b and b2 = B.new_block b and b3 = B.new_block b in
  B.br b Lt x ten ~ifso:b1 ~ifnot:b3;
  B.switch b b1;
  B.br b Ge x zero ~ifso:b2 ~ifnot:b3;
  B.switch b b2;
  let probe = B.add b x zero in
  B.retv b I32 probe;
  B.switch b b3;
  B.retv b I32 x;
  let f = B.func b in
  let t = Range.compute f in
  (* at the entry of b2, x is in [0, 9] *)
  let lo, hi =
    let blk = Cfg.block f b2 in
    let first = List.hd (Cfg.body blk) in
    Range.before t ~bid:b2 ~iid:first.Instr.iid x
  in
  Alcotest.(check (pair int64 int64)) "refined x" (0L, 9L) (lo, hi)

let test_loop_counter () =
  (* for (i = 0; i < 100; i++): in the body, i in [0, 99] *)
  let b, _ = B.create ~name:"f" ~params:[] ~ret:I32 () in
  let i = B.iconst b 0 in
  let hundred = B.iconst b 100 in
  let one = B.iconst b 1 in
  let h = B.new_block b and body = B.new_block b and ex = B.new_block b in
  B.jmp b h;
  B.switch b h;
  B.br b Lt i hundred ~ifso:body ~ifnot:ex;
  B.switch b body;
  let probe = B.add b i one in
  B.binop_to b Add ~dst:i i one;
  B.jmp b h;
  B.switch b ex;
  B.retv b I32 i;
  let f = B.func b in
  let t = Range.compute f in
  let blk = Cfg.block f body in
  let first = List.hd (Cfg.body blk) in
  let lo, hi = Range.before t ~bid:body ~iid:first.Instr.iid i in
  ignore probe;
  Alcotest.(check (pair int64 int64)) "loop body counter" (0L, 99L) (lo, hi);
  (* after the loop, i >= 100 *)
  let rlo, _rhi =
    let eblk = Cfg.block f ex in
    ignore eblk;
    (* query before the terminator: use the entry state via a probe on a
       register untouched in ex — the exit block has no body, so query the
       branch refinement through [before] of the terminator is not
       supported; instead check the body upper bound held. *)
    (100L, 100L)
  in
  ignore rlo

let test_loop_variable_bound () =
  (* for (i = 0; i < n; i++) with n itself only branch-bounded: widening
     first pushes i to the type maximum, then the narrowing passes must
     recover the [i < n] body bound from the back edge *)
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let n = List.hd params in
  let thousand = B.iconst b 1000 in
  let zero = B.iconst b 0 in
  let i = B.mov b ~ty:I32 zero in
  let one = B.iconst b 1 in
  let h = B.new_block b and body = B.new_block b and ex = B.new_block b in
  B.br b Lt n thousand ~ifso:h ~ifnot:ex;
  B.switch b h;
  B.br b Lt i n ~ifso:body ~ifnot:ex;
  B.switch b body;
  let probe = B.add b i zero in
  B.binop_to b Add ~dst:i i one;
  B.jmp b h;
  B.switch b ex;
  B.retv b I32 i;
  let f = B.func b in
  let t = Range.compute f in
  let first = List.hd (Cfg.body (Cfg.block f body)) in
  ignore probe;
  let lo, hi = Range.before t ~bid:body ~iid:first.Instr.iid i in
  Alcotest.(check int64) "body lower bound survives widening" 0L lo;
  (* n < 1000 on the loop path, so i < n keeps i <= 998 in the body *)
  Alcotest.(check int64) "body upper bound recovered from i < n" 998L hi

let test_array_refinement () =
  (* after a[i], i is within [0, 2^31-2] *)
  let b, params = B.create ~name:"f" ~params:[ Ref; I32 ] ~ret:I32 () in
  let a = List.hd params and i = List.nth params 1 in
  let v = B.arrload b AI32 a i in
  let probe = B.add b i v in
  B.retv b I32 probe;
  let f = B.func b in
  let t = Range.compute f in
  let blk = Cfg.block f 0 in
  let add = List.nth (Cfg.body blk) 1 in
  let lo, hi = Range.before t ~bid:0 ~iid:add.Instr.iid i in
  Alcotest.(check int64) "lower bound" 0L lo;
  Alcotest.(check int64) "upper bound" (Int64.sub Range.i32_max 1L) hi

let test_w8_boundary_narrowing () =
  (* A truncating extension keeps an in-window range exact and collapses
     anything that pokes past a window boundary, at both edges. *)
  let probe lo hi mk_ext expect =
    let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
    let x = List.hd params in
    let lo_c = B.iconst b lo and hi_c = B.iconst b hi in
    let b1 = B.new_block b and b2 = B.new_block b and b3 = B.new_block b in
    B.br b Ge x lo_c ~ifso:b1 ~ifnot:b3;
    B.switch b b1;
    B.br b Le x hi_c ~ifso:b2 ~ifnot:b3;
    B.switch b b2;
    (* x in [lo, hi] here; apply the extension under test *)
    let ext = mk_ext b x in
    B.retv b I32 x;
    B.switch b b3;
    B.retv b I32 x;
    let f = B.func b in
    let t = Range.compute f in
    Alcotest.(check (pair int64 int64))
      (Printf.sprintf "[%d,%d]" lo hi)
      expect
      (Range.after t ~bid:b2 ~iid:ext.Instr.iid x)
  in
  let sext8 b x = B.sext b ~from:W8 x in
  let sext16 b x = B.sext b ~from:W16 x in
  (* exactly the window: exact range survives *)
  probe (-128) 127 sext8 (-128L, 127L);
  probe 0 127 sext8 (0L, 127L);
  (* one past either boundary: collapse to the full window *)
  probe 0 128 sext8 (-128L, 127L);
  probe (-129) 0 sext8 (-128L, 127L);
  (* W16 boundaries behave identically at their window *)
  probe (-32768) 32767 sext16 (-32768L, 32767L);
  probe (-32769) 32767 sext16 (-32768L, 32767L);
  probe 100 32768 sext16 (-32768L, 32767L)

let test_zext_boundary_narrowing () =
  let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let m = B.iconst b 200 in
  let r = B.and_ b x m in
  (* r in [0, 200]: inside the zext8 window, so the range is kept *)
  let z = B.zext b ~from:W8 r in
  B.retv b I32 r;
  let f = B.func b in
  let t = Range.compute f in
  Alcotest.(check (pair int64 int64))
    "in-window range survives zext8" (0L, 200L)
    (Range.after t ~bid:0 ~iid:z.Instr.iid r);
  (* a possibly-negative operand collapses to the full [0, 255] window *)
  let b2, params2 = B.create ~name:"g" ~params:[ I32 ] ~ret:I32 () in
  let y = List.hd params2 in
  let z2 = B.zext b2 ~from:W8 y in
  B.retv b2 I32 y;
  let g = B.func b2 in
  let t2 = Range.compute g in
  Alcotest.(check (pair int64 int64))
    "unknown operand collapses to the window" (0L, 255L)
    (Range.after t2 ~bid:0 ~iid:z2.Instr.iid y)

let test_negative_stride_loop () =
  (* for (i = 100; i > 0; i -= 3): in the body i is in [1, 100]; the
     descending update must not destroy the lower bound recovered from
     the back edge. *)
  let b, _ = B.create ~name:"f" ~params:[] ~ret:I32 () in
  let i = B.iconst b 100 in
  let zero = B.iconst b 0 in
  let three = B.iconst b 3 in
  let h = B.new_block b and body = B.new_block b and ex = B.new_block b in
  B.jmp b h;
  B.switch b h;
  B.br b Gt i zero ~ifso:body ~ifnot:ex;
  B.switch b body;
  let probe = B.add b i zero in
  B.binop_to b Sub ~dst:i i three;
  B.jmp b h;
  B.switch b ex;
  B.retv b I32 i;
  let f = B.func b in
  let t = Range.compute f in
  ignore probe;
  let first = List.hd (Cfg.body (Cfg.block f body)) in
  let lo, hi = Range.before t ~bid:body ~iid:first.Instr.iid i in
  Alcotest.(check int64) "body upper bound" 100L hi;
  Alcotest.(check int64) "body lower bound from i > 0" 1L lo;
  (* after the decrement, i may go as low as -2 *)
  let dec = List.nth (Cfg.body (Cfg.block f body)) 1 in
  let lo2, _hi2 = Range.after t ~bid:body ~iid:dec.Instr.iid i in
  Alcotest.(check int64) "post-decrement lower bound" (-2L) lo2

(* soundness: for random straight-line integer arithmetic on a random
   input, every value the canonical machine computes lies within the
   interval [Range] gives its definition. All eleven binops are drawn;
   the right operand is a constant or an earlier register; constants and
   the input lean towards the values where interval rules break: 0, +-1,
   the int32 extremes and the 8- and 16-bit sign and width boundaries. *)
let prop_range_sound =
  let open QCheck in
  let edgy =
    Gen.(
      frequency
        [
          ( 3,
            oneofl
              [ 0; 1; -1; -2; 2; 31; -2147483648; 2147483647; 0x7F; 0x80; 0xFF; 0x7FFF;
                0x8000; 0xFFFF ] );
          (2, small_signed_int);
          (1, int_range (-2147483648) 2147483647);
        ])
  in
  let ops = [| Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; AShr; LShr |] in
  let step = Gen.(triple (int_bound 10) (opt ~ratio:0.7 edgy) nat) in
  let print (steps, input) =
    Printf.sprintf "input=%d [%s]" input
      (String.concat "; "
         (List.map
            (fun (sel, k, pick) ->
              Printf.sprintf "(%s %s #%d)" (Types.string_of_binop ops.(sel))
                (match k with Some k -> string_of_int k | None -> "reg")
                pick)
            steps))
  in
  Test.make ~name:"range analysis is sound on straight-line code" ~count:500
    (make ~print Gen.(pair (list_size (int_range 1 8) step) edgy))
    (fun (steps, input) ->
      let b, params = B.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
      let regs = ref [ List.hd params ] in
      List.iter
        (fun (sel, k, pick) ->
          let nth i = List.nth !regs (i mod List.length !regs) in
          let rhs = match k with Some k -> B.iconst b k | None -> nth (pick / 7) in
          regs := B.binop b ops.(sel) (nth pick) rhs :: !regs)
        steps;
      B.retv b I32 (List.hd !regs);
      let f = B.func b in
      let t = Range.compute f in
      let p = Helpers.prog_of_func f in
      let caller, _ = B.create ~name:"main" ~params:[] () in
      let arg = B.const caller ~ty:I32 (Sxe_ir.Eval.sext32 (Int64.of_int input)) in
      ignore (B.call caller ~ret:I32 "f" [ (arg, I32) ]);
      B.ret caller;
      Sxe_ir.Prog.add_func p (B.func caller);
      p.Sxe_ir.Prog.main <- "main";
      (* every integer definition of [f], as the canonical machine
         computed it, up to a trap (division by zero) *)
      let seen = ref [] in
      let watch fname iid v = if fname = "f" then seen := (iid, v) :: !seen in
      ignore (Sxe_vm.Interp.run ~mode:`Canonical ~watch p);
      List.for_all
        (fun (i : Instr.t) ->
          match (Instr.def i.Instr.op, List.assoc_opt i.Instr.iid !seen) with
          | Some d, Some v ->
              let lo, hi = Range.after t ~bid:0 ~iid:i.Instr.iid d in
              Int64.compare lo v <= 0 && Int64.compare v hi <= 0
              || Test.fail_reportf "def %d = %Ld outside [%Ld, %Ld]" i.Instr.iid v lo hi
          | _ -> true)
        (Cfg.body (Cfg.block f 0)))

let suite =
  [
    Alcotest.test_case "constants and arithmetic" `Quick test_const_and_arith;
    Alcotest.test_case "and mask" `Quick test_and_mask;
    Alcotest.test_case "rem range" `Quick test_rem_range;
    Alcotest.test_case "branch refinement" `Quick test_branch_refinement;
    Alcotest.test_case "loop counter" `Quick test_loop_counter;
    Alcotest.test_case "loop with variable bound" `Quick test_loop_variable_bound;
    Alcotest.test_case "array access refinement" `Quick test_array_refinement;
    Alcotest.test_case "W8/W16 window boundaries" `Quick test_w8_boundary_narrowing;
    Alcotest.test_case "zext window boundaries" `Quick test_zext_boundary_narrowing;
    Alcotest.test_case "negative stride loop" `Quick test_negative_stride_loop;
    QCheck_alcotest.to_alcotest prop_range_sound;
  ]
