(** Extension-residue auditor tests: planted redundant and planted
    necessary extensions on hand-built programs, the window/range
    classifications, interprocedural summaries, the self-verification
    hard-fail path (an oracle-rejected false positive), and the report
    layer (counts, baseline round-trip, regression gate). *)

open Sxe_ir
open Sxe_ir.Types
open Sxe_audit
module B = Builder

let contains ~needle haystack =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let site_for (sites : Audit.site list) (i : Instr.t) : Audit.site =
  match List.find_opt (fun (s : Audit.site) -> s.Audit.iid = i.Instr.iid) sites with
  | Some s -> s
  | None -> Alcotest.failf "no audit site for iid %d" i.Instr.iid

let check_redundant ~what (s : Audit.site) (fact : Audit.fact) =
  match s.Audit.verdict with
  | Audit.Redundant { fact = f; _ } when f = fact -> ()
  | v ->
      Alcotest.failf "%s: expected redundant (%s), got %s" what
        (Audit.fact_to_string fact) (Audit.verdict_to_string v)

let check_necessary ~what (s : Audit.site) =
  match s.Audit.verdict with
  | Audit.Necessary _ -> ()
  | v -> Alcotest.failf "%s: expected necessary, got %s" what (Audit.verdict_to_string v)

let check_unknown ~what (s : Audit.site) =
  match s.Audit.verdict with
  | Audit.Unknown _ -> ()
  | v -> Alcotest.failf "%s: expected unknown, got %s" what (Audit.verdict_to_string v)

(* -- planted redundant: extension of an always-extended definition ---- *)

let test_planted_redundant_def () =
  let b, _ = B.create ~name:"main" ~params:[] () in
  let v = B.iconst b 5 in
  let site = B.sext b v in
  ignore (B.call b "checksum" [ (v, I32) ]);
  B.ret b;
  let p = Helpers.prog_of_func (B.func b) in
  let sites, ver = Audit.audit_prog p in
  let s = site_for sites site in
  check_redundant ~what:"sext of in-range constant" s Audit.Def_extended;
  (match s.Audit.verdict with
  | Audit.Redundant { witness; _ } ->
      Alcotest.(check bool) "witness names the origin" true (witness <> [])
  | _ -> assert false);
  match ver with
  | Some v -> Alcotest.(check int) "verified" 1 v.Audit.attempted
  | None -> Alcotest.fail "verification did not run"

(* -- planted redundant: dead upper bits (proved by deletion) ---------- *)

let test_planted_redundant_dead_upper () =
  let b, _ = B.create ~name:"main" ~params:[] () in
  let l = B.lconst b 0x1_0000_0005L in
  (* l2i: low 32 bits are 5, upper bits garbage *)
  let x = B.mov b ~ty:I32 l in
  let site = B.sext b x in
  B.gstore b I32 "g" x;
  let y = B.gload b I32 "g" in
  let site_b = B.sext b y in
  ignore (B.call b "checksum" [ (y, I32) ]);
  B.ret b;
  let p = Helpers.prog_of_func ~globals:[ ("g", I32) ] (B.func b) in
  let sites, _ = Audit.audit_prog p in
  (* the store observes only the low half: deleting the extension
     recertifies, and the oracle confirms it *)
  check_redundant ~what:"sext feeding only a 32-bit store" (site_for sites site)
    Audit.Dead_upper;
  (* the re-extension of the zero-extending load is demanded by the call
     and its range admits negative values: a concrete counterexample *)
  check_necessary ~what:"sext of zero-extended load feeding a call"
    (site_for sites site_b)

(* -- planted necessary: truncation of a 64-bit value ------------------ *)

let test_planted_necessary_l2i () =
  let b, _ = B.create ~name:"main" ~params:[] () in
  let l = B.lconst b 0x1_0000_0005L in
  let x = B.mov b ~ty:I32 l in
  let site = B.sext b x in
  ignore (B.call b "checksum" [ (x, I32) ]);
  B.ret b;
  let p = Helpers.prog_of_func (B.func b) in
  let sites, _ = Audit.audit_prog p in
  let s = site_for sites site in
  check_necessary ~what:"sext of an l2i truncation" s;
  match s.Audit.verdict with
  | Audit.Necessary { reason } ->
      Alcotest.(check bool) "reason names the truncation" true
        (contains ~needle:"l2i" reason)
  | _ -> assert false

(* -- W8 window classifications ---------------------------------------- *)

let test_w8_window () =
  (* in-window: the truncating extension is the identity *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let v = B.iconst b 100 in
  let site = B.sext b ~from:W8 v in
  ignore (B.call b "checksum" [ (v, I32) ]);
  B.ret b;
  let p = Helpers.prog_of_func (B.func b) in
  let sites, _ = Audit.audit_prog p in
  check_redundant ~what:"sext8 of 100" (site_for sites site) Audit.Range_window;
  (* out-of-window: the extension rewrites the low bits *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let v = B.iconst b 200 in
  let site = B.sext b ~from:W8 v in
  B.gstore b I32 "g" v;
  B.ret b;
  let p = Helpers.prog_of_func ~globals:[ ("g", I32) ] (B.func b) in
  let sites, _ = Audit.audit_prog p in
  check_necessary ~what:"sext8 of 200" (site_for sites site);
  (* straddling: range-hostile, a speculation candidate *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let x = B.gload b I32 "g" in
  let m = B.iconst b 511 in
  let v = B.and_ b x m in
  let site = B.sext b ~from:W8 v in
  B.gstore b I32 "g" v;
  B.ret b;
  let p = Helpers.prog_of_func ~globals:[ ("g", I32) ] (B.func b) in
  let sites, _ = Audit.audit_prog p in
  check_unknown ~what:"sext8 of [0,511]" (site_for sites site)

(* -- zero-extension sites --------------------------------------------- *)

let test_zext_w32_sites () =
  (* upper-zero origin: the zext is the identity, witness names it *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let v = B.iconst b 5 in
  let site = B.zext b v in
  ignore (B.call b "checksum" [ (v, I32) ]);
  B.ret b;
  let p = Helpers.prog_of_func (B.func b) in
  let sites, ver = Audit.audit_prog p in
  let s = site_for sites site in
  Alcotest.(check bool) "kind is zext32" true
    (s.Audit.kind = Audit.Explicit (Zero, W32));
  check_redundant ~what:"zext of in-range constant" s Audit.Def_extended;
  (match ver with
  | Some v -> Alcotest.(check int) "verified" 1 v.Audit.attempted
  | None -> Alcotest.fail "verification did not run");
  (* sext→zext conversion: sign-extended and provably non-negative *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let x = B.ashr b (B.iconst b 100) (B.iconst b 2) in
  let site = B.zext b x in
  ignore (B.call b "checksum" [ (x, I32) ]);
  B.ret b;
  let p = Helpers.prog_of_func (B.func b) in
  let sites, _ = Audit.audit_prog p in
  check_redundant ~what:"zext of non-negative sign-extended value"
    (site_for sites site) Audit.Range_nonneg;
  (* dead upper: only the low half is observed *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let l = B.lconst b 0x1_0000_0005L in
  let x = B.mov b ~ty:I32 l in
  let site = B.zext b x in
  B.gstore b I32 "g" x;
  B.ret b;
  let p = Helpers.prog_of_func ~globals:[ ("g", I32) ] (B.func b) in
  let sites, _ = Audit.audit_prog p in
  check_redundant ~what:"zext feeding only a 32-bit store" (site_for sites site)
    Audit.Dead_upper

let test_zext_w32_necessary () =
  (* a sign-extending load can deliver a negative value, and the
     unsigned shift demands zero upper bits: the guard must stay *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let x = B.gload b ~lext:LSign I32 "g" in
  let site = B.zext b x in
  let y = B.lshr b x (B.iconst b 1) in
  ignore (B.call b "checksum" [ (y, I32) ]);
  B.ret b;
  let p = Helpers.prog_of_func ~globals:[ ("g", I32) ] (B.func b) in
  let sites, _ = Audit.audit_prog p in
  let s = site_for sites site in
  check_necessary ~what:"zext guard of a sign-extending load" s;
  match s.Audit.verdict with
  | Audit.Necessary { reason } ->
      Alcotest.(check bool) "reason names the sign-extending load" true
        (contains ~needle:"sign-extending 32-bit load" reason)
  | _ -> assert false

let test_zext_window () =
  (* in the unsigned window: zext8 of 200 is the identity (contrast
     with sext8 of 200, which rewrites it to -56) *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let v = B.iconst b 200 in
  let site = B.zext b ~from:W8 v in
  ignore (B.call b "checksum" [ (v, I32) ]);
  B.ret b;
  let p = Helpers.prog_of_func (B.func b) in
  let sites, _ = Audit.audit_prog p in
  check_redundant ~what:"zext8 of 200" (site_for sites site) Audit.Range_window;
  (* outside the unsigned window: the mask rewrites the low bits *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let v = B.iconst b 300 in
  let site = B.zext b ~from:W8 v in
  B.gstore b I32 "g" v;
  B.ret b;
  let p = Helpers.prog_of_func ~globals:[ ("g", I32) ] (B.func b) in
  let sites, _ = Audit.audit_prog p in
  check_necessary ~what:"zext8 of 300" (site_for sites site);
  (* straddling: range-hostile, a speculation candidate *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let x = B.gload b I32 "g" in
  let m = B.iconst b 511 in
  let v = B.and_ b x m in
  let site = B.zext b ~from:W8 v in
  B.gstore b I32 "g" v;
  B.ret b;
  let p = Helpers.prog_of_func ~globals:[ ("g", I32) ] (B.func b) in
  let sites, _ = Audit.audit_prog p in
  check_unknown ~what:"zext8 of [0,511]" (site_for sites site)

(* -- implicit sign-extending loads ------------------------------------ *)

let test_implicit_load () =
  let b, _ = B.create ~name:"main" ~params:[] () in
  let len = B.iconst b 4 in
  let a = B.newarr b AI32 len in
  let v = B.iconst b 7 in
  let i0 = B.iconst b 0 in
  B.arrstore b AI32 a i0 v;
  (* PPC64-style lwa: implicit sign extension *)
  let w = B.arrload b ~lext:LSign AI32 a i0 in
  let wload =
    let blk = Cfg.block (B.func b) 0 in
    List.nth (Cfg.body blk) (List.length (Cfg.body blk) - 1)
  in
  B.gstore b I32 "g" w;
  let w2 = B.arrload b ~lext:LSign AI32 a i0 in
  let w2load =
    let blk = Cfg.block (B.func b) 0 in
    List.nth (Cfg.body blk) (List.length (Cfg.body blk) - 1)
  in
  ignore (B.call b "checksum" [ (w2, I32) ]);
  B.ret b;
  let p = Helpers.prog_of_func ~globals:[ ("g", I32) ] (B.func b) in
  let sites, _ = Audit.audit_prog p in
  (* feeding only a 32-bit store: the implied extension is dead *)
  let s = site_for sites wload in
  Alcotest.(check bool) "kind is load-implied" true (s.Audit.kind = Audit.Load_implied);
  check_redundant ~what:"LSign load feeding a 32-bit store" s Audit.Dead_upper;
  (* feeding an I32 call argument: the extension is demanded *)
  check_necessary ~what:"LSign load feeding a call" (site_for sites w2load)

(* -- self-verification hard-fail: an oracle-rejected false positive --- *)

let test_verification_hard_fail () =
  (* sext8 of 200 is genuinely necessary (it rewrites 200 to -56, and
     the checksum observes the difference through the array round-trip),
     but [assume_redundant] forces the auditor to claim it redundant.
     The patched program still certifies — the low-bit change is
     invisible to the extension-state lattice — so only the
     differential oracle catches the lie, and it must hard-fail. *)
  let b, _ = B.create ~name:"main" ~params:[] () in
  let len = B.iconst b 4 in
  let a = B.newarr b AI32 len in
  let v = B.iconst b 200 in
  let site = B.sext b ~from:W8 v in
  let i0 = B.iconst b 0 in
  B.arrstore b AI32 a i0 v;
  let w = B.arrload b AI32 a i0 in
  ignore (B.sext b w);
  ignore (B.call b "checksum" [ (w, I32) ]);
  B.ret b;
  let p = Helpers.prog_of_func (B.func b) in
  (* sanity: the honest classifier calls it necessary *)
  let sites, _ = Audit.audit_prog ~verify:false p in
  check_necessary ~what:"honest verdict" (site_for sites site);
  (* the forced claim must be caught by the oracle *)
  match
    Audit.audit_prog
      ~assume_redundant:(fun ~fname:_ ~bid:_ ~iid -> iid = site.Instr.iid)
      p
  with
  | _ -> Alcotest.fail "oracle-rejected false positive was not caught"
  | exception Audit.Verification_failed msg ->
      Alcotest.(check bool) "failure names the auditor" true
        (String.length msg > 0)

(* -- interprocedural summaries ---------------------------------------- *)

let test_interprocedural_summary () =
  (* callee returns either 3 or 7; the summary bounds the call result,
     which is what makes the caller's sext8 provably in-window *)
  let cb, cparams = B.create ~name:"small" ~params:[ I32 ] ~ret:I32 () in
  let arg = List.hd cparams in
  let zero = B.iconst cb 0 in
  let b1 = B.new_block cb and b2 = B.new_block cb in
  B.br cb Lt arg zero ~ifso:b1 ~ifnot:b2;
  B.switch cb b1;
  let three = B.iconst cb 3 in
  B.retv cb I32 three;
  B.switch cb b2;
  let seven = B.iconst cb 7 in
  B.retv cb I32 seven;
  let callee = B.func cb in
  let mb, _ = B.create ~name:"main" ~params:[] () in
  let k = B.iconst mb 1 in
  let r =
    match B.call mb ~ret:I32 "small" [ (k, I32) ] with
    | Some r -> r
    | None -> assert false
  in
  let site = B.sext mb ~from:W8 r in
  B.gstore mb I32 "g" r;
  B.ret mb;
  let p = Helpers.prog_of_func ~globals:[ ("g", I32) ] (B.func mb) in
  Prog.add_func p callee;
  (* the summary itself *)
  let summ = Sxe_analysis.Summary.compute p in
  (match Sxe_analysis.Summary.find summ "small" with
  | Some (lo, hi) ->
      Alcotest.(check (pair int64 int64)) "summary of small" (3L, 7L) (lo, hi)
  | None -> Alcotest.fail "no summary for small");
  (* intraprocedural audit cannot bound the call result *)
  let solo = Audit.audit_func (Prog.find_func p "main") in
  check_unknown ~what:"without summaries" (site_for solo site);
  (* whole-program audit proves the window via the summary *)
  let sites, _ = Audit.audit_prog p in
  check_redundant ~what:"with summaries" (site_for sites site) Audit.Range_window

(* -- lint registration ------------------------------------------------ *)

let test_lint_rules () =
  Audit.register_lint_rules ();
  (match Sxe_check.Lint.find_rule Audit.rule_redundant with
  | Some _ -> ()
  | None -> Alcotest.fail "audit-redundant-ext not registered");
  let b, _ = B.create ~name:"main" ~params:[] () in
  let v = B.iconst b 5 in
  let site = B.sext b v in
  ignore (B.call b "checksum" [ (v, I32) ]);
  B.ret b;
  let findings = Sxe_check.Lint.run_func ~rules:Audit.lint_rules (B.func b) in
  match
    List.find_opt
      (fun (fi : Sxe_check.Lint.finding) ->
        fi.Sxe_check.Lint.rule = Audit.rule_redundant
        && fi.Sxe_check.Lint.iid = Some site.Instr.iid)
      findings
  with
  | Some fi ->
      Alcotest.(check (option int)) "idx is positional" (Some 1)
        fi.Sxe_check.Lint.idx
  | None -> Alcotest.fail "no audit-redundant-ext finding"

(* -- report layer ----------------------------------------------------- *)

let mk_cell input variant verdicts : Report.cell =
  let sites =
    List.mapi
      (fun i v ->
        {
          Audit.fname = "f";
          bid = 0;
          iid = i;
          idx = Some i;
          reg = i;
          kind = Audit.Explicit (Sign, W32);
          verdict = v;
        })
      verdicts
  in
  { Report.input; variant; sites }

let red = Audit.Redundant { fact = Audit.Dead_upper; witness = [] }
let nec = Audit.Necessary { reason = "planted" }
let unk = Audit.Unknown { reason = "planted" }

let test_report_counts_and_baseline () =
  let cells =
    [ mk_cell "w1" "baseline" [ red; red; nec; unk ]; mk_cell "w1" "all" [ unk ] ]
  in
  let n = Report.counts (List.hd cells).Report.sites in
  Alcotest.(check (triple int int int))
    "counts" (2, 1, 1)
    (n.Report.redundant, n.Report.necessary, n.Report.unknown);
  let text = Report.baseline_of_cells cells in
  let parsed = Report.parse_baseline text in
  Alcotest.(check int) "round-trip rows" 2 (List.length parsed);
  (* self-diff passes *)
  Alcotest.(check (list string))
    "self diff clean" []
    (Report.diff_baseline ~baseline:parsed cells);
  (* a regression (more redundant) is caught *)
  let worse = [ mk_cell "w1" "baseline" [ red; red; red ] ] in
  Alcotest.(check bool)
    "regression caught" true
    (Report.diff_baseline ~baseline:parsed worse <> []);
  (* a new cell arriving with redundant findings is caught *)
  let fresh = [ mk_cell "w2" "baseline" [ red ] ] in
  Alcotest.(check bool)
    "new cell caught" true
    (Report.diff_baseline ~baseline:parsed fresh <> []);
  (* improvements pass *)
  let better = [ mk_cell "w1" "baseline" [ red; nec ] ] in
  Alcotest.(check (list string))
    "improvement passes" []
    (Report.diff_baseline ~baseline:parsed better);
  (* malformed baselines fail loudly *)
  (match Report.parse_baseline "not\ta\tbaseline" with
  | _ -> Alcotest.fail "malformed baseline accepted"
  | exception Failure _ -> ());
  (* SARIF and JSON render without raising and carry the rule ids *)
  let sarif = Report.sarif cells in
  Alcotest.(check bool) "sarif mentions rule" true
    (let needle = "audit-redundant-ext" in
     let n = String.length needle and m = String.length sarif in
     let rec go i = i + n <= m && (String.sub sarif i n = needle || go (i + 1)) in
     go 0);
  ignore (List.map Report.cell_to_json cells)

let suite =
  [
    Alcotest.test_case "planted redundant (def-extended)" `Quick
      test_planted_redundant_def;
    Alcotest.test_case "planted redundant (dead upper)" `Quick
      test_planted_redundant_dead_upper;
    Alcotest.test_case "planted necessary (l2i)" `Quick test_planted_necessary_l2i;
    Alcotest.test_case "W8 window classifications" `Quick test_w8_window;
    Alcotest.test_case "zext32 sites" `Quick test_zext_w32_sites;
    Alcotest.test_case "zext32 necessary guard" `Quick test_zext_w32_necessary;
    Alcotest.test_case "zext unsigned window" `Quick test_zext_window;
    Alcotest.test_case "implicit sign-extending loads" `Quick test_implicit_load;
    Alcotest.test_case "oracle-rejected false positive hard-fails" `Quick
      test_verification_hard_fail;
    Alcotest.test_case "interprocedural summaries" `Quick
      test_interprocedural_summary;
    Alcotest.test_case "lint rule registration" `Quick test_lint_rules;
    Alcotest.test_case "report counts and baseline gate" `Quick
      test_report_counts_and_baseline;
  ]
