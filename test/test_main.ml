let () =
  Alcotest.run "signext"
    [
      ("util", Test_util.suite);
      ("ir", Test_ir.suite);
      ("cfg", Test_cfg.suite);
      ("dataflow", Test_dataflow.suite);
      ("range", Test_range.suite);
      ("parity", Test_parity.suite);
      ("opt", Test_opt.suite);
      ("convert", Test_convert.suite);
      ("demand", Test_demand.suite);
      ("analyze", Test_analyze.suite);
      ("figures", Test_figures.suite);
      ("lang", Test_lang.suite);
      ("vm", Test_vm.suite);
      ("precode", Test_precode.suite);
      ("fuse", Test_fuse.suite);
      ("codegen", Test_codegen.suite);
      ("inline", Test_inline.suite);
      ("harness", Test_harness.suite);
      ("validate", Test_validate.suite);
      ("check", Test_check.suite);
      ("audit", Test_audit.suite);
      ("fuzz", Test_fuzz.suite);
      ("par", Test_par.suite);
      ("differential", Test_differential.suite);
      ("workloads", Test_workloads.suite);
      ("serve", Test_serve.suite);
    ]
