(** Tests of the IR substrate: evaluation semantics, classification
    predicates, validation, builder and printer. *)

open Sxe_ir
open Sxe_ir.Types

let i64 = Alcotest.int64

(* -- Eval ------------------------------------------------------------ *)

let test_eval_extensions () =
  Alcotest.check i64 "sext32 of 0x80000000" 0xFFFFFFFF80000000L (Eval.sext32 0x80000000L);
  Alcotest.check i64 "sext32 idempotent" (-5L) (Eval.sext32 (-5L));
  Alcotest.check i64 "zext32" 0xFFFFFFFFL (Eval.zext32 (-1L));
  Alcotest.check i64 "sext8" (-1L) (Eval.sext8 0xFFL);
  Alcotest.check i64 "sext8 positive" 127L (Eval.sext8 0x7FL);
  Alcotest.check i64 "sext16" (-2L) (Eval.sext16 0xFFFEL);
  Alcotest.check i64 "zext16" 0xFFFEL (Eval.zext16 0xFFFFFFFFFFFFFFFEL);
  Alcotest.(check bool) "is_sign_extended_32 yes" true (Eval.is_sign_extended_32 (-7L));
  Alcotest.(check bool)
    "is_sign_extended_32 no" false
    (Eval.is_sign_extended_32 0x80000000L);
  Alcotest.(check bool) "is_upper_zero yes" true (Eval.is_upper_zero_32 0xFFFFFFFFL);
  Alcotest.(check bool) "is_upper_zero no" false (Eval.is_upper_zero_32 (-1L))

let test_eval_binops () =
  (* 32-bit ops are full 64-bit operations: upper bits are real *)
  Alcotest.check i64 "add past 2^31" 0x80000000L (Eval.binop Add W32 0x7FFFFFFFL 1L);
  Alcotest.check i64 "sub below -2^31" 0xFFFFFFFF7FFFFFFFL
    (Eval.binop Sub W32 (Eval.sext32 0x80000000L) 1L);
  (* shift amounts are masked *)
  Alcotest.check i64 "shl masks amount" 2L (Eval.binop Shl W32 1L 33L);
  Alcotest.check i64 "shl64 masks amount" 4L (Eval.binop Shl W64 1L 66L);
  (* ashr observes full register *)
  Alcotest.check i64 "ashr of garbage upper" 0x40000000L (Eval.binop AShr W32 0x80000000L 1L);
  (* lshr32 zero-extends its source internally *)
  Alcotest.check i64 "lshr32" 0x7FFFFFFFL (Eval.binop LShr W32 (-1L) 1L);
  (* Java division corner: min_int / -1 wraps, no trap *)
  Alcotest.check i64 "min/-1 wraps" 0x80000000L
    (Eval.binop Div W32 (Eval.sext32 0x80000000L) (-1L));
  Alcotest.check i64 "rem min/-1" 0L (Eval.binop Rem W32 (Eval.sext32 0x80000000L) (-1L));
  Alcotest.check_raises "div by zero" Eval.Division_by_zero (fun () ->
      ignore (Eval.binop Div W32 5L 0L));
  (* the w32 zero check inspects low bits only *)
  Alcotest.check_raises "div by garbage-upper zero" Eval.Division_by_zero (fun () ->
      ignore (Eval.binop Div W32 5L 0x1_0000_0000L))

let test_eval_cmp () =
  (* cmp4 ignores upper 32 bits *)
  Alcotest.(check bool) "cmp4 ignores upper" true (Eval.cmp Eq W32 0xFFFFFFFF00000005L 5L);
  Alcotest.(check bool) "cmp4 signed" true (Eval.cmp Lt W32 0xFFFFFFFFL 0L);
  (* 0xFFFFFFFF as a 32-bit value is -1 < 0 *)
  Alcotest.(check bool) "cmp8 uses full" false (Eval.cmp Eq W64 0xFFFFFFFF00000005L 5L);
  Alcotest.(check bool) "NaN compares" false (Eval.fcmp Le nan 0.0);
  Alcotest.(check bool) "NaN ne" true (Eval.fcmp Ne nan nan)

let test_eval_conversions () =
  Alcotest.check i64 "d2i saturates high" 0x7FFFFFFFL (Eval.d2i 1e18);
  Alcotest.check i64 "d2i saturates low" (Eval.sext32 0x80000000L) (Eval.d2i (-1e18));
  Alcotest.check i64 "d2i NaN" 0L (Eval.d2i nan);
  Alcotest.check i64 "d2l saturates" Int64.max_int (Eval.d2l 1e30);
  Alcotest.(check (float 0.0)) "i2d full register" 4294967295.0 (Eval.i2d 0xFFFFFFFFL)
(* i2d of an unextended -1 register produces 2^32-1: the bug the
   optimization must never introduce *)

(* -- classification --------------------------------------------------- *)

let test_classification () =
  let reg_ty _ = I32 in
  let i2d = Instr.I2D { dst = 1; src = 0 } in
  Alcotest.(check (list int)) "i2d requires src" [ 0 ] (Instr.required_ext_uses ~reg_ty i2d);
  let add = Instr.Binop { dst = 2; op = Add; l = 0; r = 1; w = W32 } in
  Alcotest.(check (list int)) "add requires nothing" [] (Instr.required_ext_uses ~reg_ty add);
  Alcotest.(check (list int)) "add propagates demand" [ 0; 1 ] (Instr.demand_propagates_to add);
  let div = Instr.Binop { dst = 2; op = Div; l = 0; r = 1; w = W32 } in
  Alcotest.(check (list int)) "div requires both" [ 0; 1 ] (Instr.required_ext_uses ~reg_ty div);
  let ashr = Instr.Binop { dst = 2; op = AShr; l = 0; r = 1; w = W32 } in
  Alcotest.(check (list int)) "ashr requires value only" [ 0 ]
    (Instr.required_ext_uses ~reg_ty ashr);
  (* the 64-bit divide leaves min_int / -1 as 2^31 ("min/-1 wraps") *)
  Alcotest.(check bool) "div result not always extended" false
    (Instr.def_always_extended div);
  Alcotest.(check bool) "rem result extended" true
    (Instr.def_always_extended (Instr.Binop { dst = 2; op = Rem; l = 0; r = 1; w = W32 }));
  Alcotest.(check bool) "add result not extended" false (Instr.def_always_extended add);
  Alcotest.(check bool)
    "sext extended" true
    (Instr.def_always_extended (Instr.Sext { r = 0; from = W32 }));
  Alcotest.(check bool)
    "zext8 extended" true
    (Instr.def_always_extended (Instr.Zext { r = 0; from = W8 }));
  Alcotest.(check bool)
    "zext32 not extended" false
    (Instr.def_always_extended (Instr.Zext { r = 0; from = W32 }));
  Alcotest.(check bool)
    "ia64 load upper zero" true
    (Instr.def_upper_zero
       (Instr.ArrLoad { dst = 1; arr = 0; idx = 2; elem = AI32; lext = LZero }));
  Alcotest.(check bool)
    "lwa load extended" true
    (Instr.def_always_extended
       (Instr.ArrLoad { dst = 1; arr = 0; idx = 2; elem = AI32; lext = LSign }))

(* -- validation -------------------------------------------------------- *)

let test_validate_ok () =
  let b, _ = Builder.create ~name:"f" ~params:[ I32 ] ~ret:I32 () in
  let x = Builder.iconst b 41 in
  let one = Builder.iconst b 1 in
  let s = Builder.add b x one in
  Builder.retv b I32 s;
  Validate.check (Builder.func b)

let test_validate_type_error () =
  let b, _ = Builder.create ~name:"f" ~params:[] () in
  let x = Builder.iconst b 1 in
  let y = Builder.fconst b 2.0 in
  let f = Builder.func b in
  (* force an ill-typed instruction *)
  Cfg.append_instr (Cfg.block f 0)
    (Cfg.mk_instr f (Instr.Binop { dst = x; op = Add; l = x; r = y; w = W32 }));
  Builder.ret b;
  Alcotest.(check bool) "detects type error" true (Validate.errors f <> [])

let test_validate_label_error () =
  let b, _ = Builder.create ~name:"f" ~params:[] () in
  Builder.jmp b 99;
  Alcotest.(check bool) "detects bad label" true (Validate.errors (Builder.func b) <> [])

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_printer_roundtrip_smoke () =
  let b, _ = Builder.create ~name:"f" ~params:[ I32; Ref ] ~ret:I32 () in
  let x = Builder.iconst b 7 in
  ignore (Builder.sext b x);
  Builder.retv b I32 x;
  let s = Printer.func_to_string (Builder.func b) in
  Alcotest.(check bool) "prints extend" true (contains_substring s "extend32")

(* property: W32 wrap-tolerant operators agree with Int32 reference
   semantics on the low 32 bits, whatever garbage sits in the upper 32 *)
let prop_eval_w32_model =
  let open QCheck in
  let garbage = Gen.oneofl [ 0L; 0x1234_5678_0000_0000L; -0x7654_0000_0000_0000L ] in
  let gen =
    Gen.tup4 (Gen.oneofl [ Add; Sub; Mul; And; Or; Xor; Shl; LShr ])
      (Gen.map Int64.of_int Gen.int) (Gen.map Int64.of_int Gen.int) garbage
  in
  Test.make ~name:"W32 ops match Int32 model on low bits" ~count:500 (make gen)
    (fun (op, a, b, g) ->
      let a32 = Int32.of_int (Int64.to_int a) and b32 = Int32.of_int (Int64.to_int b) in
      let full_a = Int64.logor (Int64.of_int32 a32 |> Eval.zext32) g in
      let full_b = Int64.of_int32 b32 in
      let got = Eval.low32 (Eval.binop op W32 full_a full_b) in
      let expect32 =
        match op with
        | Add -> Int32.add a32 b32
        | Sub -> Int32.sub a32 b32
        | Mul -> Int32.mul a32 b32
        | And -> Int32.logand a32 b32
        | Or -> Int32.logor a32 b32
        | Xor -> Int32.logxor a32 b32
        | Shl -> Int32.shift_left a32 (Int32.to_int b32 land 31)
        | LShr -> Int32.shift_right_logical a32 (Int32.to_int b32 land 31)
        | _ -> assert false
      in
      Int64.equal got (Eval.zext32 (Int64.of_int32 expect32)))

(* property: the (kind × width) extension algebra. For every width,
   extension after truncation is determined by the low bits alone
   (zext∘trunc and sext∘trunc are idempotent projections), zext always
   lands in [0, 2^w), and on values whose w-bit image is non-negative
   the two kinds coincide — the conversion fact the optimizer uses. *)
let prop_ext_roundtrips =
  let open QCheck in
  let boundaries =
    [
      0L; 1L; -1L; 127L; 128L; -128L; -129L; 255L; 256L;
      32767L; 32768L; -32768L; -32769L; 65535L; 65536L;
      0x7FFF_FFFFL; 0x8000_0000L; -0x8000_0000L; -0x8000_0001L;
      0xFFFF_FFFFL; 0x1_0000_0000L; Int64.min_int; Int64.max_int;
    ]
  in
  let gen =
    Gen.pair
      (Gen.oneofl [ W8; W16; W32 ])
      (Gen.oneof [ Gen.oneofl boundaries; Gen.map Int64.of_int Gen.int ])
  in
  Test.make ~name:"extension round-trips and sext/zext agreement" ~count:1000
    (make gen) (fun (w, v) ->
      let sx = Eval.sext_from w and zx = Eval.zext_from w in
      let bits = match w with W8 -> 8 | W16 -> 16 | W32 -> 32 | W64 -> 64 in
      let lim = Int64.shift_left 1L bits in
      (* both extensions look only at the low w bits *)
      Int64.equal (sx v) (sx (zx v))
      && Int64.equal (zx v) (zx (sx v))
      (* idempotence *)
      && Int64.equal (sx v) (sx (sx v))
      && Int64.equal (zx v) (zx (zx v))
      (* zext lands in the unsigned window *)
      && zx v >= 0L
      && zx v < lim
      (* sext lands in the signed window *)
      && sx v >= Int64.neg (Int64.shift_right_logical lim 1)
      && sx v < Int64.shift_right_logical lim 1
      (* sext of a non-negative image IS zext (and vice versa) *)
      && (if sx v >= 0L then Int64.equal (sx v) (zx v)
          else not (Int64.equal (sx v) (zx v)))
      (* the two images agree modulo 2^w *)
      && Int64.equal (Int64.logand (sx v) (Int64.pred lim)) (Int64.logand (zx v) (Int64.pred lim)))

(* property: W32 div/rem match Java semantics when fed extended operands *)
let prop_eval_divrem_model =
  let open QCheck in
  Test.make ~name:"W32 div/rem match Int32 model on extended inputs" ~count:500
    (pair int int) (fun (a, b) ->
      let a32 = Int32.of_int a and b32 = Int32.of_int b in
      let fa = Int64.of_int32 a32 and fb = Int64.of_int32 b32 in
      if Int32.equal b32 0l then
        (try
           ignore (Eval.binop Div W32 fa fb);
           false
         with Eval.Division_by_zero -> true)
      else begin
        let q = Eval.low32 (Eval.binop Div W32 fa fb) in
        let r = Eval.low32 (Eval.binop Rem W32 fa fb) in
        Int64.equal q (Eval.zext32 (Int64.of_int32 (Int32.div a32 b32)))
        && Int64.equal r (Eval.zext32 (Int64.of_int32 (Int32.rem a32 b32)))
      end)

(* -- The static def predicates against the faithful machine ---------- *)

let boundaries =
  [ 0L; 1L; -1L; -2147483648L; 2147483647L; 0x7FL; 0x80L; -0x80L; 0xFFL; 0x7FFFL;
    0x8000L; -0x8000L; 0xFFFFL ]

let float_boundaries =
  [| 0.0; -0.5; 255.9; 2147483647.5; -2147483648.5; 4294967295.0; 1e19; -1e19;
     infinity; neg_infinity; nan |]

(* Every opcode with an I32 destination, over registers [x] and [y]
   holding the sign-extended int32 values [vx] and [vy] (the gen-def
   invariant) and over the double [fv]. The operands are set up first;
   the in-place extensions work on copies of [x], and the divisions,
   which may trap, come last. *)
let def_ops b ~vx ~x ~y ~fv : Instr.op list =
  let module B = Builder in
  let d () = B.fresh b I32 in
  let zero () = B.iconst b 0 in
  let copy () = B.mov b x in
  let load elem lext =
    let arr = B.newarr b elem (B.iconst b 1) in
    B.arrstore b elem arr (zero ()) x;
    Instr.ArrLoad { dst = d (); arr; idx = zero (); elem; lext }
  in
  let gload lext =
    B.gstore b I32 "g" x;
    Instr.GLoad { dst = d (); sym = "g"; ty = I32; lext }
  in
  let binop op = Instr.Binop { dst = d (); op; l = x; r = y; w = W32 } in
  [
    Instr.Const { dst = d (); ty = I32; v = vx };
    Instr.Mov { dst = d (); src = x; ty = I32 };
    Instr.Unop { dst = d (); op = Neg; src = x; w = W32 };
    Instr.Unop { dst = d (); op = Not; src = x; w = W32 };
    Instr.Cmp { dst = d (); cond = Lt; l = x; r = y; w = W32 };
    Instr.FCmp { dst = d (); cond = Lt; l = B.i2d b x; r = B.fconst b fv };
    Instr.D2I { dst = d (); src = B.fconst b fv };
    Instr.D2I { dst = d (); src = B.i2d b x };
    (* a length in [0, 255]: the boundaries would allocate gigabytes *)
    Instr.ArrLen { dst = d (); arr = B.newarr b AI8 (B.iconst b (Int64.to_int vx land 0xFF)) };
    Instr.JustExt { r = copy () };
  ]
  @ List.concat_map
      (fun from -> [ Instr.Sext { r = copy (); from }; Instr.Zext { r = copy (); from } ])
      [ W8; W16; W32 ]
  @ List.concat_map
      (fun lext -> gload lext :: List.map (fun e -> load e lext) [ AI8; AI16; AI32 ])
      [ LSign; LZero ]
  @ List.map binop [ Add; Sub; Mul; And; Or; Xor; Shl; AShr; LShr; Rem; Div ]

(* Run every [def_ops] instruction once on the faithful machine. Where
   [def_always_extended] holds, the value written must be sext32-fixed;
   where [def_upper_zero] holds, its upper 32 bits must be zero. The
   first violation, if any. *)
let def_predicate_violation (vx, vy, fv) : string option =
  let module B = Builder in
  let b, _ = B.create ~name:"main" ~params:[] () in
  let x = B.const b ~ty:I32 vx in
  let y = B.const b ~ty:I32 vy in
  let tested = List.map (B.emit b) (def_ops b ~vx ~x ~y ~fv) in
  B.ret b;
  let seen = Hashtbl.create 64 in
  let watch _ iid v = Hashtbl.replace seen iid v in
  ignore
    (Sxe_vm.Interp.run ~mode:`Faithful ~watch
       (Helpers.prog_of_func ~globals:[ ("g", I32) ] (B.func b)));
  List.find_map
    (fun (i : Instr.t) ->
      let broken pred holds =
        Format.asprintf "%a at x=%Ld y=%Ld f=%h: %s, but the machine wrote %Ld"
          Printer.pp_op i.Instr.op vx vy fv pred holds
      in
      match Hashtbl.find_opt seen i.Instr.iid with
      | None -> None (* a division by zero trapped before it *)
      | Some v when Instr.def_always_extended i.Instr.op && Eval.sext32 v <> v ->
          Some (broken "def_always_extended" v)
      | Some v when Instr.def_upper_zero i.Instr.op && not (Eval.is_upper_zero_32 v) ->
          Some (broken "def_upper_zero" v)
      | Some _ -> None)
    tested

let test_def_predicates_boundaries () =
  List.iteri
    (fun k vx ->
      List.iteri
        (fun j vy ->
          let fv = float_boundaries.((k + j) mod Array.length float_boundaries) in
          Option.iter Alcotest.fail (def_predicate_violation (vx, vy, fv)))
        boundaries)
    boundaries

let prop_def_predicates =
  let open QCheck in
  let value =
    Gen.(
      frequency
        [
          (3, oneofl boundaries);
          (1, map Int64.of_int (int_range (-2147483648) 2147483647));
        ])
  in
  let double = Gen.(frequency [ (1, oneofa float_boundaries); (1, float) ]) in
  Test.make ~name:"static def predicates hold on the faithful machine" ~count:300
    (make
       ~print:(fun (x, y, f) -> Printf.sprintf "x=%Ld y=%Ld f=%h" x y f)
       (Gen.triple value value double))
    (fun c ->
      match def_predicate_violation c with
      | None -> true
      | Some msg -> Test.fail_report msg)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_eval_w32_model;
    QCheck_alcotest.to_alcotest prop_ext_roundtrips;
    QCheck_alcotest.to_alcotest prop_eval_divrem_model;
    Alcotest.test_case "def predicates on the boundary grid" `Quick
      test_def_predicates_boundaries;
    QCheck_alcotest.to_alcotest prop_def_predicates;
    Alcotest.test_case "eval extensions" `Quick test_eval_extensions;
    Alcotest.test_case "eval binops" `Quick test_eval_binops;
    Alcotest.test_case "eval compare" `Quick test_eval_cmp;
    Alcotest.test_case "eval conversions" `Quick test_eval_conversions;
    Alcotest.test_case "use/def classification" `Quick test_classification;
    Alcotest.test_case "validate accepts good IR" `Quick test_validate_ok;
    Alcotest.test_case "validate rejects type error" `Quick test_validate_type_error;
    Alcotest.test_case "validate rejects bad label" `Quick test_validate_label_error;
    Alcotest.test_case "printer smoke" `Quick test_printer_roundtrip_smoke;
  ]
