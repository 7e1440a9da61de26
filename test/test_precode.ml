(** Pre-decoded engine tests: bit-identical outcomes — dynamic counters
    included — against the structural interpreter, across the committed
    fuzz corpus, the workload registry, every trap path, and the
    generation-counter cache invalidation. *)

open Sxe_ir
open Sxe_ir.Types
module B = Builder

let outcome : Sxe_vm.Interp.outcome Alcotest.testable =
  let open Sxe_vm.Interp in
  let pp ppf (o : outcome) =
    Format.fprintf ppf
      "{trap=%s; ret=%s; checksum=%Ld; output=%S; executed=%Ld; sext32=%Ld; \
       sext_sub=%Ld; zext32=%Ld; zext_sub=%Ld; cycles=%Ld}"
      (Option.value ~default:"none" o.trap)
      (match o.ret with None -> "none" | Some v -> Int64.to_string v)
      o.checksum o.output o.executed o.sext32 o.sext_sub o.zext32 o.zext_sub
      o.cycles
  in
  Alcotest.testable pp ( = )

(** Both engines on the same program, every field compared. *)
let check_parity ?fuel msg ~mode (p : Prog.t) =
  let st = Sxe_vm.Interp.run ~mode ?fuel ~engine:`Structural p in
  let pre = Sxe_vm.Interp.run ~mode ?fuel ~engine:`Precode p in
  Alcotest.check outcome msg st pre;
  pre

(* ------------------------------------------------------------------ *)
(* Committed corpus and registry workloads                             *)
(* ------------------------------------------------------------------ *)

let corpus_dir = Helpers.fixture "corpus"

let test_corpus_parity () =
  let entries = Sxe_fuzz.Corpus.load_dir corpus_dir in
  Alcotest.(check bool) "corpus present" true (entries <> []);
  List.iter
    (fun (name, case) ->
      let base = Sxe_fuzz.Oracle.prog_of_case case in
      ignore
        (check_parity ~fuel:400_000L
           (Printf.sprintf "%s (canonical, unoptimized)" name)
           ~mode:`Canonical (Clone.clone_prog base));
      let opt = Clone.clone_prog base in
      ignore (Sxe_core.Pass.compile (Sxe_core.Config.new_all ()) opt);
      ignore
        (check_parity ~fuel:400_000L
           (Printf.sprintf "%s (faithful, full algorithm)" name)
           ~mode:`Faithful opt))
    entries

let test_workload_parity () =
  List.iter
    (fun (w : Sxe_workloads.Registry.t) ->
      let base = Sxe_lang.Frontend.compile w.source in
      ignore
        (check_parity
           (Printf.sprintf "%s (canonical, unoptimized)" w.name)
           ~mode:`Canonical (Clone.clone_prog base));
      let opt = Clone.clone_prog base in
      ignore (Sxe_core.Pass.compile (Sxe_core.Config.new_all ()) opt);
      ignore
        (check_parity
           (Printf.sprintf "%s (faithful, full algorithm)" w.name)
           ~mode:`Faithful opt))
    (Sxe_workloads.Registry.all ~scale:1 ())

let test_unsigned_parity () =
  (* The zero-extension residue class: all three engines (the fused one
     via [check3]-style runs below) agree on every counter — zext32
     included — and the full algorithm strictly reduces the dynamic
     zero-extension count the guarded baseline pays. *)
  List.iter
    (fun (w : Sxe_workloads.Registry.t) ->
      let base = Sxe_lang.Frontend.compile w.source in
      ignore
        (check_parity
           (Printf.sprintf "%s (canonical, unoptimized)" w.name)
           ~mode:`Canonical (Clone.clone_prog base));
      let run config =
        let opt = Clone.clone_prog base in
        ignore (Sxe_core.Pass.compile config opt);
        let out =
          check_parity
            (Printf.sprintf "%s (faithful, %s)" w.name
               config.Sxe_core.Config.name)
            ~mode:`Faithful opt
        in
        let fused =
          Sxe_vm.Interp.run ~mode:`Faithful ~engine:`Precode
            ~fuse:Sxe_vm.Fuse.All opt
        in
        Alcotest.check outcome
          (Printf.sprintf "%s (%s): fused parity" w.name
             config.Sxe_core.Config.name)
          out fused;
        out
      in
      let b = run (Sxe_core.Config.baseline ()) in
      let full = run (Sxe_core.Config.new_all ()) in
      Alcotest.(check bool)
        (w.name ^ ": baseline pays dynamic zero extensions")
        true
        (Int64.compare b.Sxe_vm.Interp.zext32 0L > 0);
      Alcotest.(check bool)
        (w.name ^ ": full algorithm eliminates dynamic zero extensions")
        true
        (Int64.compare full.Sxe_vm.Interp.zext32 b.Sxe_vm.Interp.zext32 < 0))
    (Sxe_workloads.Registry.unsigned ~scale:1 ())

(* ------------------------------------------------------------------ *)
(* Trap paths: identical trap name AND identical counters at the trap  *)
(* ------------------------------------------------------------------ *)

let check_trap msg ?fuel ~expect p =
  let out = check_parity msg ?fuel ~mode:`Faithful p in
  Alcotest.(check (option string)) (msg ^ ": trap name") (Some expect)
    out.Sxe_vm.Interp.trap

let test_fuel_exhaustion () =
  (* entry jumps to itself: both engines must cut off at the same tick *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  B.jmp b (B.current b);
  check_trap "infinite loop" ~fuel:1_000L ~expect:"fuel-exhausted"
    (Helpers.prog_of_func (B.func b))

let test_wild_access () =
  (* bounds check passes on the low 32 bits while the full register is
     out of range — the faithful machine's signature trap *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let len = B.iconst b 10 in
  let a = B.newarr b AI32 len in
  let c1 = B.const b ~ty:I32 0x7FFFFFFFL in
  let c2 = B.const b ~ty:I32 0x7FFFFFFFL in
  let t = B.add b c1 c2 in
  let four = B.iconst b 4 in
  let idx = B.add b t four in
  let v = B.arrload b AI32 a idx in
  ignore (B.call b "checksum" [ (v, I32) ]);
  B.ret b;
  check_trap "wild access" ~expect:"wild-access" (Helpers.prog_of_func (B.func b))

let test_stack_overflow () =
  let b, _ = B.create ~name:"main" ~params:[] () in
  (match B.call b "main" [] with Some _ -> assert false | None -> ());
  B.ret b;
  check_trap "unbounded recursion" ~expect:"stack-overflow"
    (Helpers.prog_of_func (B.func b))

let test_division_by_zero () =
  let b, _ = B.create ~name:"main" ~params:[] () in
  let one = B.iconst b 1 in
  let zero = B.iconst b 0 in
  let q = B.div b one zero in
  ignore (B.call b "checksum" [ (q, I32) ]);
  B.ret b;
  check_trap "division by zero" ~expect:"division-by-zero"
    (Helpers.prog_of_func (B.func b))

(* ------------------------------------------------------------------ *)
(* Cache invalidation                                                  *)
(* ------------------------------------------------------------------ *)

let test_cache_invalidation () =
  (* Run once (populating the per-function decode cache), mutate the
     function through the Cfg API, run again: the second run must see
     the mutation, and still match the structural engine. *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let c = B.iconst b 5 in
  ignore (B.call b "checksum" [ (c, I32) ]);
  B.ret b;
  let f = B.func b in
  let p = Helpers.prog_of_func f in
  let first = Sxe_vm.Interp.run ~engine:`Precode p in
  Cfg.iter_instrs
    (fun blk i ->
      match i.Instr.op with
      | Instr.Const { dst; ty; v = 5L } -> Cfg.set_op blk i (Instr.Const { dst; ty; v = 7L })
      | _ -> ())
    f;
  let second = check_parity "after mutation" ~mode:`Faithful p in
  Alcotest.(check bool) "mutation visible to the cached engine" false
    (Int64.equal first.Sxe_vm.Interp.checksum second.Sxe_vm.Interp.checksum)

let suite =
  [
    Alcotest.test_case "parity: committed corpus" `Quick test_corpus_parity;
    Alcotest.test_case "parity: registry workloads" `Quick test_workload_parity;
    Alcotest.test_case "parity: unsigned workloads (3 engines + zext counts)"
      `Quick test_unsigned_parity;
    Alcotest.test_case "trap: fuel exhaustion" `Quick test_fuel_exhaustion;
    Alcotest.test_case "trap: wild access" `Quick test_wild_access;
    Alcotest.test_case "trap: stack overflow" `Quick test_stack_overflow;
    Alcotest.test_case "trap: division by zero" `Quick test_division_by_zero;
    Alcotest.test_case "decode cache invalidated by mutation" `Quick
      test_cache_invalidation;
  ]
