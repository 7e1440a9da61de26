(** Tests for the extension-state certifier and the lint framework:
    certification of every workload under every variant, rejection of
    hand-built miscompiles with precise locations and witness chains,
    the built-in lint rules, the oracle's [Certify] divergence class,
    and the paranoid per-stage gate. *)

open Sxe_ir
open Sxe_ir.Types
module B = Builder
module Check = Sxe_check.Check
module Certify = Sxe_check.Certify
module Lint = Sxe_check.Lint

let need = Alcotest.testable
    (fun ppf -> function
      | Certify.Needs_extended -> Format.fprintf ppf "Needs_extended"
      | Certify.Needs_zero_extended -> Format.fprintf ppf "Needs_zero_extended"
      | Certify.Needs_subscript -> Format.fprintf ppf "Needs_subscript")
    ( = )

(* ------------------------------------------------------------------ *)
(* Certification of sound compiles                                     *)
(* ------------------------------------------------------------------ *)

(** The acceptance matrix: every registry workload (and extras), under
    every pipeline variant, must certify after compilation. *)
let test_workloads_certify () =
  let ws =
    Sxe_workloads.Registry.all ~scale:1 ()
    @ Sxe_workloads.Registry.extras ~scale:1 ()
  in
  List.iter
    (fun (w : Sxe_workloads.Registry.t) ->
      let base = Sxe_lang.Frontend.compile w.source in
      List.iter
        (fun (cfg : Sxe_core.Config.t) ->
          let p = Clone.clone_prog base in
          ignore (Sxe_core.Pass.compile cfg p);
          match Check.certify_prog p with
          | [] -> ()
          | e :: _ ->
              Alcotest.failf "%s / %s: %s" w.name cfg.Sxe_core.Config.name
                (Certify.error_to_string e))
        (Sxe_core.Config.all ()))
    ws

let test_corpus_certifies () =
  let entries = Sxe_fuzz.Corpus.load_dir (Helpers.fixture "corpus") in
  Alcotest.(check bool) "corpus present" true (entries <> []);
  List.iter
    (fun (name, case) ->
      let base = Sxe_fuzz.Oracle.prog_of_case case in
      List.iter
        (fun (cfg : Sxe_core.Config.t) ->
          let p = Clone.clone_prog base in
          ignore (Sxe_core.Pass.compile cfg p);
          match Check.certify_prog p with
          | [] -> ()
          | e :: _ ->
              Alcotest.failf "%s / %s: %s" name cfg.Sxe_core.Config.name
                (Certify.error_to_string e))
        (Sxe_core.Config.all ()))
    entries

(** The refinement rule is load-bearing: in [while (i < n) a[i] = i;]
    the eliminator deletes the subscript extension (Theorem 2), and the
    certifier can only re-prove the access safe because an array use
    refines its index — and the index's whole copy class — to
    subscript-safe for the rest of the path. *)
let test_loop_subscript_certifies_after_elimination () =
  let src =
    {|
void main() {
  int n = 40;
  int[] a = new int[n];
  int i = 0;
  while (i < n) { a[i] = i; i = i + 1; }
  int t = 0;
  i = 0;
  while (i < n) { t = t + a[i]; i = i + 1; }
  checksum(t);
}
|}
  in
  let prog = Sxe_lang.Frontend.compile src in
  let stats = Sxe_core.Pass.compile (Sxe_core.Config.new_all ()) prog in
  Alcotest.(check bool) "something was eliminated" true
    (stats.Sxe_core.Stats.eliminated > 0);
  Alcotest.(check int) "certified" 0 (List.length (Check.certify_prog prog))

(* ------------------------------------------------------------------ *)
(* Rejection of miscompiled functions                                  *)
(* ------------------------------------------------------------------ *)

(** An [l2i] truncation leaves garbage upper bits; feeding it to [i2d]
    (which converts the full register) without an extension is exactly
    the miscompile the certifier exists to catch. *)
let test_miscompile_rejected_with_location () =
  let b, params = B.create ~name:"bad" ~params:[ I64 ] ~ret:F64 () in
  let q = List.hd params in
  let x = B.mov b ~ty:I32 q in
  let d = B.i2d b x in
  B.retv b F64 d;
  let f = B.func b in
  Validate.check f;
  match Check.certify f with
  | [ e ] ->
      Alcotest.(check string) "function" "bad" e.Certify.fname;
      Alcotest.(check int) "block" 0 e.Certify.bid;
      let i2d = List.nth (Cfg.body (Cfg.block f 0)) 1 in
      Alcotest.(check (option int)) "instruction" (Some i2d.Instr.iid) e.Certify.iid;
      Alcotest.(check int) "register" x e.Certify.reg;
      Alcotest.check need "need" Certify.Needs_extended e.Certify.need;
      Alcotest.(check bool) "state is not extended" false
        e.Certify.state.Sxe_check.Extstate.ext
  | es -> Alcotest.failf "expected exactly one error, got %d" (List.length es)

let test_extension_repairs_miscompile () =
  let b, params = B.create ~name:"good" ~params:[ I64 ] ~ret:F64 () in
  let q = List.hd params in
  let x = B.mov b ~ty:I32 q in
  ignore (B.sext b x);
  let d = B.i2d b x in
  B.retv b F64 d;
  let f = B.func b in
  Validate.check f;
  Alcotest.(check int) "certified once extended" 0 (List.length (Check.certify f))

let test_garbage_subscript_rejected () =
  let b, params = B.create ~name:"sub" ~params:[ Ref; I64 ] ~ret:I32 () in
  let a = List.hd params and q = List.nth params 1 in
  let i = B.mov b ~ty:I32 q in
  (* [LSign] keeps the loaded value itself unobjectionable (the I32
     return is an ABI-extended use): only the index may be reported *)
  let v = B.arrload b ~lext:LSign AI32 a i in
  B.retv b I32 v;
  let f = B.func b in
  Validate.check f;
  match Check.certify f with
  | [ e ] ->
      Alcotest.(check int) "register" i e.Certify.reg;
      Alcotest.check need "need" Certify.Needs_subscript e.Certify.need
  | es -> Alcotest.failf "expected exactly one error, got %d" (List.length es)

(** The witness walk follows copies back to the origin of the unproven
    state: from the failing use through the [Mov] chain to the [l2i]
    that manufactured the garbage. *)
let test_witness_follows_copy_chain () =
  let b, params = B.create ~name:"wit" ~params:[ I64 ] ~ret:F64 () in
  let q = List.hd params in
  let x = B.mov b ~ty:I32 q in
  let y = B.mov b ~ty:I32 x in
  let z = B.mov b ~ty:I32 y in
  let d = B.i2d b z in
  B.retv b F64 d;
  let f = B.func b in
  let body = Cfg.body (Cfg.block f 0) in
  let iid_of n = (List.nth body n).Instr.iid in
  match Check.certify f with
  | [ e ] ->
      Alcotest.(check bool) "witness nonempty" true (e.Certify.witness <> []);
      Alcotest.(check bool) "witness reaches the l2i through both copies" true
        (List.mem (0, iid_of 0) e.Certify.witness
        && List.mem (0, iid_of 1) e.Certify.witness
        && List.mem (0, iid_of 2) e.Certify.witness)
  | es -> Alcotest.failf "expected exactly one error, got %d" (List.length es)

(** Garbage flowing around a loop is still garbage: the fix for the
    solver's interior initialization must not make back-edge facts
    vacuously true. *)
let test_loop_carried_garbage_rejected () =
  let b, params = B.create ~name:"loopbad" ~params:[ I64; I32 ] ~ret:F64 () in
  let q = List.hd params and n = List.nth params 1 in
  let x = B.mov b ~ty:I32 q in
  let zero = B.iconst b 0 in
  let h = B.new_block b and body = B.new_block b and ex = B.new_block b in
  B.jmp b h;
  B.switch b h;
  B.br b Lt zero n ~ifso:body ~ifnot:ex;
  B.switch b body;
  B.jmp b h;
  B.switch b ex;
  let d = B.i2d b x in
  B.retv b F64 d;
  let f = B.func b in
  Validate.check f;
  match Check.certify f with
  | [ e ] ->
      Alcotest.(check int) "fails in the exit block" ex e.Certify.bid;
      Alcotest.(check int) "register" x e.Certify.reg
  | es -> Alcotest.failf "expected exactly one error, got %d" (List.length es)

(* ------------------------------------------------------------------ *)
(* Lint rules                                                          *)
(* ------------------------------------------------------------------ *)

let findings_for rule f =
  List.filter (fun (fi : Lint.finding) -> fi.Lint.rule = rule) (Lint.run_func f)

let test_lint_redundant_sext () =
  let b, _ = B.create ~name:"rs" ~params:[] ~ret:I32 () in
  let c = B.iconst b 5 in
  ignore (B.sext b c);
  B.retv b I32 c;
  let f = B.func b in
  Alcotest.(check int) "constant re-extension flagged" 1
    (List.length (findings_for "redundant-sext" f));
  (* the same extension over genuinely unknown upper bits is required *)
  let b, params = B.create ~name:"rs2" ~params:[ I64 ] ~ret:F64 () in
  let x = B.mov b ~ty:I32 (List.hd params) in
  ignore (B.sext b x);
  B.retv b F64 (B.i2d b x);
  let g = B.func b in
  Alcotest.(check int) "required extension not flagged" 0
    (List.length (findings_for "redundant-sext" g))

let test_lint_dead_justext () =
  let b, params = B.create ~name:"dj" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  ignore (B.justext b x);
  B.retv b I32 x;
  let f = B.func b in
  Alcotest.(check int) "leftover JustExt flagged" 1
    (List.length (findings_for "dead-justext" f))

let test_lint_unreachable_block () =
  let b, params = B.create ~name:"ub" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  B.retv b I32 x;
  let dead = B.new_block b in
  B.switch b dead;
  B.retv b I32 x;
  let f = B.func b in
  match findings_for "unreachable-block" f with
  | [ fi ] -> Alcotest.(check int) "names the orphan block" dead fi.Lint.bid
  | fis -> Alcotest.failf "expected one finding, got %d" (List.length fis)

let test_lint_critical_edge () =
  (* B0 branches to B1/B2 and B1 falls through to B2: the edge B0->B2
     leaves a multi-successor source for a multi-predecessor sink *)
  let b, params = B.create ~name:"ce" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let b1 = B.new_block b and b2 = B.new_block b in
  B.br b Lt x x ~ifso:b1 ~ifnot:b2;
  B.switch b b1;
  B.jmp b b2;
  B.switch b b2;
  B.retv b I32 x;
  let f = B.func b in
  match findings_for "critical-edge" f with
  | [ fi ] -> Alcotest.(check int) "source block" 0 fi.Lint.bid
  | fis -> Alcotest.failf "expected one finding, got %d" (List.length fis)

let test_lint_mov_chain () =
  let b, params = B.create ~name:"mc" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let y = B.mov b ~ty:I32 x in
  let z = B.mov b ~ty:I32 y in
  B.retv b I32 z;
  Alcotest.(check int) "copy of a copy flagged" 1
    (List.length (findings_for "mov-chain" (B.func b)));
  (* redefining the chain head invalidates the chain *)
  let b, params = B.create ~name:"mc2" ~params:[ I32 ] ~ret:I32 () in
  let x = List.hd params in
  let y = B.mov b ~ty:I32 x in
  B.binop_to b Add ~dst:y y y;
  let z = B.mov b ~ty:I32 y in
  B.retv b I32 z;
  Alcotest.(check int) "broken chain not flagged" 0
    (List.length (findings_for "mov-chain" (B.func b)))

let test_lint_const_cmp () =
  let b, _ = B.create ~name:"cc" ~params:[] ~ret:I32 () in
  let c1 = B.iconst b 1 in
  let c2 = B.iconst b 2 in
  let r = B.cmp b Lt c1 c2 in
  B.retv b I32 r;
  Alcotest.(check int) "constant compare flagged" 1
    (List.length (findings_for "const-cmp" (B.func b)))

let test_lint_registry_and_severity () =
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " registered") true
        (Lint.find_rule name <> None))
    [ "redundant-sext"; "dead-justext"; "unreachable-block"; "critical-edge";
      "mov-chain"; "const-cmp" ];
  Alcotest.(check bool) "no findings, no severity" true
    (Lint.max_severity [] = None);
  let b, _ = B.create ~name:"sv" ~params:[] ~ret:I32 () in
  let c1 = B.iconst b 1 in
  let c2 = B.iconst b 2 in
  let r = B.cmp b Lt c1 c2 in
  ignore (B.sext b c1);
  B.retv b I32 r;
  let fs = Lint.run_func (B.func b) in
  Alcotest.(check bool) "warning dominates info" true
    (Lint.max_severity fs = Some Lint.Warning)

(* The registry starts from the immutable built-in base list, and
   [register] is idempotent by name: re-registering replaces rather than
   duplicates, and built-ins themselves are never mutated. *)
let test_lint_registry_frozen_builtins () =
  let builtin_names = List.map (fun (r : Lint.rule) -> r.Lint.name) Lint.builtins in
  Alcotest.(check int) "six built-ins" 6 (List.length builtin_names);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " in registry") true (Lint.find_rule name <> None))
    builtin_names;
  let noop name : Lint.rule =
    { name; doc = "noop"; severity = Lint.Info; check = (fun _ _ -> []) }
  in
  let before = List.length (Lint.rules ()) in
  Lint.register (noop "test-frozen-probe");
  Lint.register (noop "test-frozen-probe");
  Alcotest.(check int) "re-registration is idempotent" (before + 1)
    (List.length (Lint.rules ()));
  (* shadowing a built-in replaces it in the registry but leaves the
     immutable base list alone *)
  Lint.register (noop "const-cmp");
  Alcotest.(check int) "shadowing does not grow the registry" (before + 1)
    (List.length (Lint.rules ()));
  Alcotest.(check bool) "builtins list unaffected" true
    (List.exists
       (fun (r : Lint.rule) -> r.Lint.name = "const-cmp" && r.Lint.doc <> "noop")
       Lint.builtins);
  (* restore the real rule for the rest of the suite *)
  Lint.register
    (List.find (fun (r : Lint.rule) -> r.Lint.name = "const-cmp") Lint.builtins)

(* Concurrent readers and writers must never observe a torn rule list:
   every snapshot contains all six built-in names exactly once. *)
let test_lint_registry_concurrent () =
  let noop name : Lint.rule =
    { name; doc = "noop"; severity = Lint.Info; check = (fun _ _ -> []) }
  in
  let torn = Atomic.make false in
  let worker k () =
    for _ = 1 to 200 do
      Lint.register (noop (Printf.sprintf "test-conc-%d" k));
      let names = List.map (fun (r : Lint.rule) -> r.Lint.name) (Lint.rules ()) in
      let count n = List.length (List.filter (String.equal n) names) in
      if List.exists (fun (r : Lint.rule) -> count r.Lint.name <> 1) Lint.builtins
      then Atomic.set torn true
    done
  in
  let ds = List.init 4 (fun k -> Domain.spawn (worker k)) in
  List.iter Domain.join ds;
  Alcotest.(check bool) "no torn registry snapshot" false (Atomic.get torn);
  Alcotest.(check int) "all four probes registered" 4
    (List.length
       (List.filter
          (fun (r : Lint.rule) ->
            String.length r.Lint.name >= 10 && String.sub r.Lint.name 0 10 = "test-conc-")
          (Lint.rules ())))

let test_lint_custom_rule () =
  let saw = ref 0 in
  let rule : Lint.rule =
    { name = "test-probe"; doc = "counts functions"; severity = Lint.Info;
      check = (fun _sol f -> incr saw;
                [ { Lint.rule = "test-probe"; severity = Lint.Info;
                    fname = f.Cfg.name; bid = 0; iid = None; idx = None;
                    message = "hi" } ]) }
  in
  Lint.register rule;
  let b, _ = B.create ~name:"cu" ~params:[] ~ret:I32 () in
  let c = B.iconst b 1 in
  B.retv b I32 c;
  let fs = Lint.run_func (B.func b) in
  (* unregister by replacing with a no-op so other tests stay unaffected *)
  Lint.register { rule with check = (fun _ _ -> []) };
  Alcotest.(check int) "custom rule ran" 1 !saw;
  Alcotest.(check bool) "custom finding reported" true
    (List.exists (fun (fi : Lint.finding) -> fi.Lint.rule = "test-probe") fs)

(* ------------------------------------------------------------------ *)
(* Oracle integration: the Certify divergence class                    *)
(* ------------------------------------------------------------------ *)

(** A program whose miscompilation is dynamically invisible: the global
    defaults to zero, so deleting the extension of its [l2i] truncation
    never changes an observable — only the certifier can object. *)
let certify_direction_case () =
  let b, _ = B.create ~name:"main" ~params:[] ~ret:I32 () in
  let g = B.gload b I64 "g" in
  let x = B.mov b ~ty:I32 g in
  let three = B.iconst b 3 in
  let q = B.div b x three in
  B.retv b I32 q;
  Helpers.prog_of_func ~globals:[ ("g", I64) ] (B.func b)

let test_oracle_certify_class () =
  let sound = Sxe_fuzz.Oracle.check (Sxe_fuzz.Oracle.Ir (certify_direction_case ())) in
  Alcotest.(check (list string)) "sound compile has no failures" []
    (List.map (Format.asprintf "%a" Sxe_fuzz.Oracle.pp_failure) sound);
  let sabotaged =
    Sxe_fuzz.Oracle.check
      ~sabotage:(Sxe_fuzz.Inject.apply Sxe_fuzz.Inject.Skip_div_extend)
      (Sxe_fuzz.Oracle.Ir (certify_direction_case ()))
  in
  Alcotest.(check bool) "sabotage detected" true (sabotaged <> []);
  List.iter
    (fun (fl : Sxe_fuzz.Oracle.failure) ->
      if fl.Sxe_fuzz.Oracle.cls <> Sxe_fuzz.Oracle.Certify then
        Alcotest.failf "expected only certify-class failures, got %s"
          (Format.asprintf "%a" Sxe_fuzz.Oracle.pp_failure fl))
    sabotaged

(* ------------------------------------------------------------------ *)
(* Paranoid mode and the stage gate                                    *)
(* ------------------------------------------------------------------ *)

let test_stage_gate_raises () =
  let b, params = B.create ~name:"gate" ~params:[ I64 ] ~ret:F64 () in
  let x = B.mov b ~ty:I32 (List.hd params) in
  B.retv b F64 (B.i2d b x);
  let f = B.func b in
  match Check.stage_gate ~stage:"signext" f with
  | () -> Alcotest.fail "stage gate accepted a miscompile"
  | exception Check.Certification_failed msg ->
      Alcotest.(check bool) "message names the stage" true
        (let n = String.length msg in
         let rec go i = i + 7 <= n && (String.sub msg i 7 = "signext" || go (i + 1)) in
         go 0)

let test_paranoid_env_switch () =
  let reset () = Unix.putenv "SXE_CHECK" "0" in
  Fun.protect ~finally:reset (fun () ->
      Unix.putenv "SXE_CHECK" "0";
      Alcotest.(check bool) "off for \"0\"" false (Check.paranoid ());
      Unix.putenv "SXE_CHECK" "1";
      Alcotest.(check bool) "on for \"1\"" true (Check.paranoid ());
      (* a full compile under the paranoid gate must pass every stage *)
      let src = "void main() { int i = 0; while (i < 9) { i = i + 1; } checksum(i); }" in
      let prog = Sxe_lang.Frontend.compile src in
      ignore (Sxe_core.Pass.compile (Sxe_core.Config.new_all ()) prog))

(* ------------------------------------------------------------------ *)
(* JSON rendering                                                      *)
(* ------------------------------------------------------------------ *)

let test_json_rendering () =
  Alcotest.(check string) "no errors" "[]" (Check.errors_to_json []);
  let b, params = B.create ~name:"j\"q" ~params:[ I64 ] ~ret:F64 () in
  let x = B.mov b ~ty:I32 (List.hd params) in
  B.retv b F64 (B.i2d b x);
  let errs = Check.certify (B.func b) in
  let js = Check.errors_to_json errs in
  Alcotest.(check bool) "quotes escaped" true
    (let n = String.length js in
     let rec go i = i + 4 <= n && (String.sub js i 4 = "j\\\"q" || go (i + 1)) in
     go 0)

let suite =
  [
    Alcotest.test_case "every workload x variant certifies" `Quick
      test_workloads_certify;
    Alcotest.test_case "committed corpus certifies" `Quick test_corpus_certifies;
    Alcotest.test_case "loop subscript certifies after elimination" `Quick
      test_loop_subscript_certifies_after_elimination;
    Alcotest.test_case "miscompile rejected with location" `Quick
      test_miscompile_rejected_with_location;
    Alcotest.test_case "extension repairs the miscompile" `Quick
      test_extension_repairs_miscompile;
    Alcotest.test_case "garbage subscript rejected" `Quick
      test_garbage_subscript_rejected;
    Alcotest.test_case "witness follows the copy chain" `Quick
      test_witness_follows_copy_chain;
    Alcotest.test_case "loop-carried garbage rejected" `Quick
      test_loop_carried_garbage_rejected;
    Alcotest.test_case "lint: redundant-sext" `Quick test_lint_redundant_sext;
    Alcotest.test_case "lint: dead-justext" `Quick test_lint_dead_justext;
    Alcotest.test_case "lint: unreachable-block" `Quick test_lint_unreachable_block;
    Alcotest.test_case "lint: critical-edge" `Quick test_lint_critical_edge;
    Alcotest.test_case "lint: mov-chain" `Quick test_lint_mov_chain;
    Alcotest.test_case "lint: const-cmp" `Quick test_lint_const_cmp;
    Alcotest.test_case "lint: registry and severity" `Quick
      test_lint_registry_and_severity;
    Alcotest.test_case "lint: custom rule" `Quick test_lint_custom_rule;
    Alcotest.test_case "lint: registry built-ins frozen" `Quick
      test_lint_registry_frozen_builtins;
    Alcotest.test_case "lint: registry safe under domains" `Quick
      test_lint_registry_concurrent;
    Alcotest.test_case "oracle: certify divergence class" `Quick
      test_oracle_certify_class;
    Alcotest.test_case "stage gate raises on miscompile" `Quick
      test_stage_gate_raises;
    Alcotest.test_case "paranoid mode env switch" `Quick test_paranoid_env_switch;
    Alcotest.test_case "error JSON rendering" `Quick test_json_rendering;
  ]
