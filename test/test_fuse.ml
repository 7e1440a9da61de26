(** Superinstruction-fusion tests: selection parsing, the branch-target
    barrier (a fused group never shadows a jump target), bit-identical
    fuel exhaustion inside every shape of the table, every shape
    dispatching in the golden dispatch ledger, exact dispatch counts on
    the workloads, and the (generation, fusion selection) keying of the
    decode cache. The broad three-engine parity
    sweeps live in [Test_precode] and the fuzz oracle; these cases pin
    the fusion-specific edges. *)

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

(** All three engines — structural, unfused precode, fused precode — on
    the same program; every outcome field must agree. *)
let check3 ?fuel msg (p : Prog.t) =
  let st = Sxe_vm.Interp.run ?fuel ~engine:`Structural p in
  let pre = Sxe_vm.Interp.run ?fuel ~engine:`Precode ~fuse:Sxe_vm.Fuse.Off p in
  let fused = Sxe_vm.Interp.run ?fuel ~engine:`Precode ~fuse:Sxe_vm.Fuse.All p in
  Alcotest.check outcome (msg ^ ": structural vs precode") st pre;
  Alcotest.check outcome (msg ^ ": precode vs fused") pre fused;
  fused

(** A 10-iteration counting loop whose body flattens to
    [Const; Add; Mov; Br] — the compress loop-step shape: the const-arith
    pair fuses, the mov-br pair fuses, and the loop head is a branch
    target that heads a fused group. *)
let counting_loop () =
  let b, _ = B.create ~name:"main" ~params:[] () in
  let i = B.iconst b 0 in
  let lim = B.iconst b 10 in
  let body = B.new_block b in
  let exit_ = B.new_block b in
  B.jmp b body;
  B.switch b body;
  let one = B.iconst b 1 in
  let t = B.add b i one in
  B.mov_to b ~dst:i ~src:t I32;
  B.br b Lt i lim ~ifso:body ~ifnot:exit_;
  B.switch b exit_;
  ignore (B.call b "checksum" [ (i, I32) ]);
  B.ret b;
  Helpers.prog_of_func (B.func b)

let main_func (p : Prog.t) = Hashtbl.find p.Prog.funcs p.Prog.main

(* ------------------------------------------------------------------ *)
(* Selection parsing                                                   *)
(* ------------------------------------------------------------------ *)

let test_parse () =
  Alcotest.(check bool) "all" true (Sxe_vm.Fuse.parse "all" = Ok Sxe_vm.Fuse.All);
  Alcotest.(check bool) "off" true (Sxe_vm.Fuse.parse "off" = Ok Sxe_vm.Fuse.Off);
  Alcotest.(check bool) "list" true
    (Sxe_vm.Fuse.parse "mov-jmp,load-br" = Ok (Sxe_vm.Fuse.Rules [ "mov-jmp"; "load-br" ]));
  (match Sxe_vm.Fuse.parse "mov-jmp,typo-rule" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown rule name accepted");
  (* every advertised rule name round-trips *)
  List.iter
    (fun r ->
      match Sxe_vm.Fuse.parse r with
      | Ok (Sxe_vm.Fuse.Rules [ r' ]) when r' = r -> ()
      | _ -> Alcotest.failf "rule %S does not parse to itself" r)
    Sxe_vm.Fuse.rule_names

let test_rules_subset () =
  (* a single-rule selection fuses only under that rule, and still
     matches the other engines bit for bit *)
  let p = counting_loop () in
  let sel = Sxe_vm.Fuse.Rules [ "mov-br" ] in
  let out = Sxe_vm.Interp.run ~engine:`Precode ~fuse:sel p in
  let st = Sxe_vm.Interp.run ~engine:`Structural p in
  Alcotest.check outcome "single rule vs structural" st out;
  let img = Sxe_vm.Precode.get_decoded ~fuse:sel ~canonical:false (main_func p) in
  let stats = Sxe_vm.Precode.fusion_stats img in
  Alcotest.(check bool) "mov-br fired" true (List.mem_assoc "mov-br" stats);
  List.iter
    (fun (rule, n) ->
      if rule <> "mov-br" && n > 0 then
        Alcotest.failf "rule %S fired %d times under Rules [mov-br]" rule n)
    stats

(* ------------------------------------------------------------------ *)
(* Branch targets                                                      *)
(* ------------------------------------------------------------------ *)

(* disasm lines are [%4d %-5s %s %s]: offset, a [B<bid>:] block-start
   marker, a [.] on slots shadowed by a preceding fused group, opcode. *)
let shadowed_block_starts listing =
  List.filter
    (fun line ->
      String.length line > 11 && line.[11] = '.'
      && (let mark = String.trim (String.sub line 5 5) in
          String.length mark > 0 && mark.[0] = 'B'))
    (String.split_on_char '\n' listing)

let test_branch_target_barrier () =
  (* A fused group must never shadow a branch target: jumping into the
     middle of a group would otherwise skip or double-charge its head
     constituents. A block start may HEAD a group (execution enters at
     the head either way) — the counting loop's body block does exactly
     that, so also assert fusion actually happened there. *)
  let p = counting_loop () in
  ignore (check3 "counting loop" p);
  let img = Sxe_vm.Precode.get_decoded ~fuse:Sxe_vm.Fuse.All ~canonical:false (main_func p) in
  Alcotest.(check bool) "loop fused at all" true (Sxe_vm.Precode.fused_total img > 0);
  Alcotest.(check (list string)) "no shadowed block start (hand-built loop)" []
    (shadowed_block_starts (Sxe_vm.Precode.disasm img));
  (* ... and across every optimized workload function *)
  List.iter
    (fun (w : Sxe_workloads.Registry.t) ->
      let prog = Sxe_lang.Frontend.compile w.source in
      ignore (Sxe_core.Pass.compile (Sxe_core.Config.new_all ()) prog);
      Prog.iter_funcs
        (fun f ->
          let img = Sxe_vm.Precode.get_decoded ~fuse:Sxe_vm.Fuse.All ~canonical:false f in
          match shadowed_block_starts (Sxe_vm.Precode.disasm img) with
          | [] -> ()
          | l ->
              Alcotest.failf "%s/%s: fused group shadows a branch target:\n%s" w.name
                f.Cfg.name (String.concat "\n" l))
        prog)
    (Sxe_workloads.Registry.all ~scale:1 ())

(* ------------------------------------------------------------------ *)
(* Fuel exhaustion mid-superinstruction                                *)
(* ------------------------------------------------------------------ *)

(* The golden dispatch ledger (golden/dispatch.tsv): per run, the
   workload, variant, arch and every opcode's dispatch count under
   [--fuse all]. *)
let ledger =
  lazy
    (let ic = open_in "../golden/dispatch.tsv" in
     let rec rows acc =
       match input_line ic with
       | exception End_of_file -> List.rev acc
       | line -> (
           match String.split_on_char '\t' line with
           | [ workload; variant; arch; _; _; ops; _; _ ] when workload <> "workload" ->
               let ops =
                 List.filter_map
                   (fun kv ->
                     match String.split_on_char '=' kv with
                     | [ k; v ] -> Some (k, int_of_string v)
                     | _ -> None)
                   (String.split_on_char ' ' ops)
               in
               rows ((workload, variant, arch, ops) :: acc)
           | _ -> rows acc)
     in
     let r = rows [] in
     close_in ic;
     r)

(* [name] compiled under [variant] for [arch], as one ledger run. *)
let compile_run (workload, variant, arch) =
  let w =
    List.find
      (fun (w : Sxe_workloads.Registry.t) -> w.name = workload)
      (Sxe_workloads.Registry.all ~scale:1 () @ Sxe_workloads.Registry.extras ~scale:1 ())
  in
  let config =
    Sxe_core.Config.of_variant
      ~arch:(List.assoc arch Sxe_core.Arch.names)
      (Option.get (Sxe_core.Config.variant_of_name variant))
  in
  let prog = Sxe_lang.Frontend.compile w.source in
  ignore (Sxe_core.Pass.compile config prog);
  prog

let test_fuel_mid_superinstruction () =
  (* For every row of the shape table: take the first ledger run where
     the shape dispatches, find the instruction count [e0] before its
     first dispatch, and sweep the fuel budget across every constituent
     boundary of that group, one either side. Each constituent ticks
     and traps exactly where its plain counterpart would, so all three
     engines must agree on the truncated counters at every cutoff. *)
  List.iter
    (fun shape ->
      let run =
        List.find_map
          (fun (w, v, a, ops) ->
            if List.mem_assoc shape ops then Some (w, v, a) else None)
          (Lazy.force ledger)
      in
      let w, v, a =
        match run with
        | Some r -> r
        | None -> Alcotest.failf "%s dispatches in no ledger run" shape
      in
      let p = compile_run (w, v, a) in
      let dispatched fuel =
        let prof = Sxe_vm.Profile.create () in
        Sxe_vm.Precode.enable_dispatch prof;
        ignore
          (Sxe_vm.Interp.run ~engine:`Precode ~fuse:Sxe_vm.Fuse.All ~profile:prof
             ~fuel:(Int64.of_int fuel) p);
        List.find_map
          (fun (n, width, _) -> if n = shape then Some width else None)
          (Sxe_vm.Precode.dispatch_ops prof)
      in
      (* the least budget that reaches the group's first dispatch *)
      let rec search lo hi =
        if lo >= hi then lo
        else
          let mid = (lo + hi) / 2 in
          if dispatched mid <> None then search lo mid else search (mid + 1) hi
      in
      let total = Int64.to_int (check3 (shape ^ " unbounded") p).Sxe_vm.Interp.executed in
      let e0 = search 0 total in
      let width = Option.get (dispatched e0) in
      for fuel = max 0 (e0 - 1) to e0 + width + 1 do
        let out =
          check3 ~fuel:(Int64.of_int fuel)
            (Printf.sprintf "%s (%s/%s/%s), fuel=%d" shape w v a fuel)
            p
        in
        if fuel < e0 + width then
          Alcotest.(check (option string))
            (Printf.sprintf "%s: fuel=%d traps" shape fuel)
            (Some "fuel-exhausted") out.Sxe_vm.Interp.trap
      done)
    Sxe_vm.Precode.shape_names

(* ------------------------------------------------------------------ *)
(* Plain Zext between fused groups: byte-histogram idiom, fuel sweep   *)
(* ------------------------------------------------------------------ *)

let zext_load_loop () =
  (* Loop body: [ArrStore; Zext; ArrLoad; Add; Add; Mov; Br] — a masked
     subscript feeding an array load, and a tail block that reads back
     through [ArrLoad; Zext]. No rule fuses a [Zext], so each one runs as
     a plain dispatch next to fused neighbours. *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let n = B.iconst b 8 in
  let a = B.newarr b AI32 n in
  let i = B.iconst b 0 in
  let one = B.iconst b 1 in
  let s = B.iconst b 0 in
  let body = B.new_block b in
  let exit_ = B.new_block b in
  B.jmp b body;
  B.switch b body;
  B.arrstore b AI32 a i i;
  ignore (B.zext b i);
  let v = B.arrload b AI32 a i in
  B.binop_to b Add ~dst:s s v;
  let t = B.add b i one in
  B.mov_to b ~dst:i ~src:t I32;
  B.br b Lt i n ~ifso:body ~ifnot:exit_;
  B.switch b exit_;
  let i3 = B.iconst b 3 in
  let w = B.arrload b AI32 a i3 in
  ignore (B.zext b w);
  ignore (B.call b "checksum" [ (s, I32) ]);
  ignore (B.call b "checksum" [ (w, I32) ]);
  B.ret b;
  Helpers.prog_of_func (B.func b)

let test_fuel_through_zext () =
  (* sweep every cutoff: ticks inside the fused groups around each
     [Zext] must land where the plain instruction sequence puts them *)
  let p = zext_load_loop () in
  let full = check3 "zext loop unbounded" p in
  Alcotest.(check int64) "loop observes zero extensions" 9L
    full.Sxe_vm.Interp.zext32;
  let total = Int64.to_int full.Sxe_vm.Interp.executed in
  for fuel = 1 to total + 1 do
    let out = check3 ~fuel:(Int64.of_int fuel) (Printf.sprintf "fuel=%d" fuel) p in
    if fuel < total then
      Alcotest.(check (option string))
        (Printf.sprintf "fuel=%d traps" fuel)
        (Some "fuel-exhausted") out.Sxe_vm.Interp.trap
    else
      Alcotest.(check (option string))
        (Printf.sprintf "fuel=%d completes" fuel)
        None out.Sxe_vm.Interp.trap
  done

(* ------------------------------------------------------------------ *)
(* The measured rule set: static hits and exact dispatch counts        *)
(* ------------------------------------------------------------------ *)

(* The 24 programs of the vm-exec benchmark (registry + extras) at scale
   1, each compiled once under the full algorithm. *)
let compiled_workloads =
  lazy
    (List.map
       (fun (w : Sxe_workloads.Registry.t) ->
         let prog = Sxe_lang.Frontend.compile w.source in
         ignore (Sxe_core.Pass.compile (Sxe_core.Config.new_all ()) prog);
         (w.name, prog))
       (Sxe_workloads.Registry.all ~scale:1 () @ Sxe_workloads.Registry.extras ~scale:1 ()))

let test_every_shape_dispatches () =
  (* a shape that never dispatches on the workloads is dead code: each
     row of the shape table (so each fusion rule, chain included) must
     dispatch in at least one run of the golden ledger *)
  let counts = Hashtbl.create 32 in
  List.iter
    (fun (_, _, _, ops) ->
      List.iter
        (fun (n, c) ->
          Hashtbl.replace counts n (c + Option.value ~default:0 (Hashtbl.find_opt counts n)))
        ops)
    (Lazy.force ledger);
  Alcotest.(check (list string)) "shapes that never dispatch" []
    (List.filter (fun s -> not (Hashtbl.mem counts s)) Sxe_vm.Precode.shape_names)

let test_dispatch_counts () =
  (* every dispatch is counted: unfused, one dispatch per executed
     instruction; fused, each dispatch executes its opcode's width *)
  List.iter
    (fun (name, prog) ->
      let measure fuse =
        let prof = Sxe_vm.Profile.create () in
        Sxe_vm.Precode.enable_dispatch prof;
        let out = Sxe_vm.Interp.run ~engine:`Precode ~fuse ~profile:prof prog in
        (out.Sxe_vm.Interp.executed, Sxe_vm.Precode.dispatch_ops prof)
      in
      let executed, ops = measure Sxe_vm.Fuse.Off in
      Alcotest.(check int64) (name ^ ": unfused dispatches = executed") executed
        (Int64.of_int (List.fold_left (fun a (_, _, c) -> a + c) 0 ops));
      let executed, ops = measure Sxe_vm.Fuse.All in
      Alcotest.(check int64) (name ^ ": fused sum of width x count = executed") executed
        (Int64.of_int (List.fold_left (fun a (_, w, c) -> a + (w * c)) 0 ops)))
    (Lazy.force compiled_workloads)

(* ------------------------------------------------------------------ *)
(* Cache keying                                                        *)
(* ------------------------------------------------------------------ *)

let test_cache_keyed_by_selection () =
  (* The per-function cache is keyed by (generation, mode, fusion
     selection): switching the selection between runs must re-decode —
     never serve the other selection's image — and asking again with the
     same selection must hit. *)
  let p = counting_loop () in
  let f = main_func p in
  let fused1 = Sxe_vm.Precode.get_decoded ~fuse:Sxe_vm.Fuse.All ~canonical:false f in
  let off = Sxe_vm.Precode.get_decoded ~fuse:Sxe_vm.Fuse.Off ~canonical:false f in
  let fused2 = Sxe_vm.Precode.get_decoded ~fuse:Sxe_vm.Fuse.All ~canonical:false f in
  Alcotest.(check bool) "fused image has groups" true
    (Sxe_vm.Precode.fused_total fused1 > 0);
  Alcotest.(check bool) "off image has none" true
    (Sxe_vm.Precode.fused_total off = 0);
  Alcotest.(check bool) "same selection hits the cache" true (fused1 == fused2);
  Alcotest.(check bool) "selections get distinct images" true (not (fused1 == off));
  (* a subset selection is its own key, distinct from All *)
  let sub =
    Sxe_vm.Precode.get_decoded ~fuse:(Sxe_vm.Fuse.Rules [ "mov-br" ]) ~canonical:false f
  in
  Alcotest.(check bool) "subset selection is a distinct image" true
    (not (sub == fused1) && not (sub == off));
  (* mutation invalidates every image *)
  Cfg.iter_instrs
    (fun blk i ->
      match i.Instr.op with
      | Instr.Const { dst; ty; v = 10L } -> Cfg.set_op blk i (Instr.Const { dst; ty; v = 3L })
      | _ -> ())
    f;
  let fused3 = Sxe_vm.Precode.get_decoded ~fuse:Sxe_vm.Fuse.All ~canonical:false f in
  Alcotest.(check bool) "mutation drops the cached image" true (not (fused3 == fused1));
  ignore (check3 "after mutation" p)

(* ------------------------------------------------------------------ *)
(* Domain-safe ambient selection                                       *)
(* ------------------------------------------------------------------ *)

(* [of_env] is [once] applied to the [SXE_FUSE] parser. It is a single
   process-wide memo that earlier suites have already published, so it
   cannot be raced here; the race is exercised on fresh [once] memos
   instead. Four domains, released together, call one memo; repeated
   over many memos. Every caller must get the single published value.
   (A shared [Lazy.t] fails this: forcing it from two domains at once
   raises [CamlinternalLazy.Undefined].) *)
let test_once_concurrent () =
  let domains = 4 in
  for trial = 1 to 100 do
    let memo = Sxe_vm.Fuse.once (fun () -> Sxe_vm.Fuse.Rules [ string_of_int trial ]) in
    let ready = Atomic.make 0 in
    let call () =
      Atomic.incr ready;
      while Atomic.get ready < domains do
        Domain.cpu_relax ()
      done;
      memo ()
    in
    let results = List.map Domain.join (List.init domains (fun _ -> Domain.spawn call)) in
    List.iter
      (fun sel ->
        if not (sel == memo ()) then
          Alcotest.failf "trial %d: callers returned different memoized values" trial)
      results
  done

let suite =
  [
    Alcotest.test_case "selection parsing" `Quick test_parse;
    Alcotest.test_case "once (the of_env memo) under 4 racing domains" `Quick test_once_concurrent;
    Alcotest.test_case "single-rule selection" `Quick test_rules_subset;
    Alcotest.test_case "fused groups never shadow a branch target" `Quick
      test_branch_target_barrier;
    Alcotest.test_case "fuel exhaustion mid-superinstruction" `Quick
      test_fuel_mid_superinstruction;
    Alcotest.test_case "fuel sweep through plain Zext" `Quick test_fuel_through_zext;
    Alcotest.test_case "every shape dispatches in the golden ledger" `Quick
      test_every_shape_dispatches;
    Alcotest.test_case "exact dispatch counts" `Quick test_dispatch_counts;
    Alcotest.test_case "decode cache keyed by fusion selection" `Quick
      test_cache_keyed_by_selection;
  ]
