(* The traced replay: the compile path and the matrix cell, spelled out
   as calls into each layer's public functions so every call can be
   wrapped in a span.

   [compile_prog] follows [Sxe_serve.Compile_one.run_prog] (clone,
   [Sxe_core.Pass.compile], validate, certify, emit) with
   [Pass.compile]'s body inlined in its order; [run_one] follows
   [Sxe_harness.Experiment.run_one]. Both must give the same outputs as
   the functions they mirror: the test suite checks that on every
   workload and variant, and a traced benchmark run checks it on every
   replayed request. With [Span.off ()] they run untraced. *)

open Sxe_core
module Compile_one = Sxe_serve.Compile_one
module Experiment = Sxe_harness.Experiment

let span = Span.with_

(* [Sxe_harness.Experiment]'s fuel bound for matrix runs. *)
let fuel = 4_000_000_000L

(* [Pass.compile] *)
let compile r ?(profile : Pass.profile_source option) (config : Config.t)
    (p : Sxe_ir.Prog.t) : Stats.t =
  let stats = Stats.create () in
  if config.Config.inline then span r "opt.inline" (fun () -> ignore (Sxe_opt.Inline.run p));
  let call_ranges =
    span r "analysis.summary" (fun () ->
        Sxe_analysis.Summary.call_ranges (Sxe_analysis.Summary.compute p))
  in
  Sxe_ir.Prog.iter_funcs
    (fun f ->
      span r "core.convert" (fun () -> Convert.run config f stats);
      let before = Eliminate.count_sext32 f in
      span r "opt.pipeline" (fun () -> Sxe_opt.Pipeline.run_func ~pre:config.Config.pre f);
      let removed = max 0 (before - Eliminate.count_sext32 f) in
      stats.Stats.eliminated_by_pre <- stats.Stats.eliminated_by_pre + removed;
      Span.count r "opt.pipeline.removed" (float_of_int removed);
      match config.Config.elimination with
      | Config.Elim_none -> ()
      | Config.Elim_bwd_flow -> span r "core.demand" (fun () -> Demand.run f stats)
      | Config.Elim_ud_du ->
          let edge_prob =
            Option.map (fun p ~src ~dst -> p f.Sxe_ir.Cfg.name ~src ~dst) profile
          in
          let eliminated = stats.Stats.eliminated in
          let chains_s =
            span r "core.eliminate" (fun () ->
                Eliminate.run ?edge_prob ~call_ranges config f stats)
          in
          Span.count r "core.eliminate.chains_ms" (chains_s *. 1e3);
          Span.count r "core.eliminate.eliminated"
            (float_of_int (stats.Stats.eliminated - eliminated)))
    p;
  stats.Stats.remaining <- Eliminate.count_sext32_prog p;
  stats.Stats.remaining_zext <- Eliminate.count_zext32_prog p;
  stats

(* [Sxe_check.Check.certify_prog], with its summary pass inside the span:
   the certifier recomputes the summaries it checks against. *)
let certify r ~maxlen p =
  span r "check.certify" (fun () ->
      let call_ranges =
        Sxe_analysis.Summary.call_ranges (Sxe_analysis.Summary.compute p)
      in
      let errors =
        List.concat_map
          (Sxe_check.Check.certify ~maxlen ~call_ranges)
          (List.rev (Sxe_ir.Prog.fold_funcs (fun acc f -> f :: acc) [] p))
      in
      Span.count r "check.certify.errors" (float_of_int (List.length errors));
      errors)

let emit r (config : Config.t) p =
  let b = Buffer.create 1024 in
  Sxe_ir.Prog.iter_funcs
    (fun f ->
      span r "codegen.emit" (fun () ->
          let a = Sxe_codegen.Emit.emit_func ~arch:config.Config.arch f in
          Span.count r "codegen.emit.instrs" (float_of_int (Sxe_codegen.Emit.size a));
          Buffer.add_string b (Sxe_codegen.Emit.to_string a)))
    p;
  Buffer.contents b

(* [Compile_one.run_prog] *)
let compile_prog r ?(emit_asm = false) ~config ~maxlen base : Compile_one.outcome =
  let prog = span r "ir.clone" (fun () -> Sxe_ir.Clone.clone_prog base) in
  let stats = compile r config prog in
  span r "ir.validate" (fun () -> Sxe_ir.Validate.check_prog prog);
  let errors = certify r ~maxlen prog in
  let asm = if emit_asm then Some (emit r config prog) else None in
  { Compile_one.prog; config; stats; errors; asm }

(* [Compile_one.run_source] *)
let compile_source r ?emit_asm ~config ~maxlen src =
  match span r "lang.frontend" (fun () -> Sxe_lang.Frontend.compile src) with
  | exception Sxe_lang.Frontend.Error msg -> Error msg
  | prog -> Ok (compile_prog r ?emit_asm ~config ~maxlen prog)

let interp r prog =
  span r "vm.interp" (fun () ->
      let out = Sxe_vm.Interp.run ~mode:`Faithful ~fuel prog in
      Span.count r "vm.interp.executed" (Int64.to_float out.Sxe_vm.Interp.executed);
      Span.count r "vm.interp.sext32" (Int64.to_float out.Sxe_vm.Interp.sext32);
      out)

(* [Experiment.run_one] *)
let run_one r ?profile ~(reference : Sxe_vm.Interp.outcome) (config : Config.t)
    (w : Sxe_workloads.Registry.t) : Experiment.measurement =
  let prog = span r "ir.clone" (fun () -> Sxe_ir.Clone.clone_prog (Experiment.base_of w)) in
  let stats = compile r ?profile config prog in
  span r "ir.validate" (fun () -> Sxe_ir.Validate.check_prog prog);
  let out = interp r prog in
  {
    Experiment.workload = w.Sxe_workloads.Registry.name;
    variant = config.Config.name;
    dyn_sext32 = out.Sxe_vm.Interp.sext32;
    dyn_zext32 = out.Sxe_vm.Interp.zext32;
    static_remaining = stats.Stats.remaining;
    static_remaining_zext = stats.Stats.remaining_zext;
    cycles = out.Sxe_vm.Interp.cycles;
    executed = out.Sxe_vm.Interp.executed;
    equivalent = Sxe_vm.Interp.equivalent reference out;
    stats;
  }

(* One matrix round over [ws], as [Experiment.run_suite] runs it on one
   worker domain: base programs, then per workload the reference and
   the profile (memoized per domain, so a fresh domain recomputes
   them), then the twelve variant cells. Call it on a fresh domain to
   get a worker's cold caches. *)
let matrix_round r (ws : Sxe_workloads.Registry.t list) =
  List.iter (fun w -> ignore (span r "lang.frontend" (fun () -> Experiment.base_of w))) ws;
  List.map
    (fun w ->
      let reference = span r "harness.reference" (fun () -> Experiment.reference_of w) in
      let profile = span r "harness.profile" (fun () -> Experiment.collect_profile w ()) in
      ( w.Sxe_workloads.Registry.name,
        List.map
          (fun config ->
            span r "harness.cell" (fun () -> run_one r ~profile ~reference config w))
          (Experiment.default_variants ()) ))
    ws

(* The counters both mirrored paths report, without the timings. *)
let stats_fields (s : Stats.t) =
  [
    ("generated", s.Stats.generated);
    ("generated_zext", s.Stats.generated_zext);
    ("inserted", s.Stats.inserted);
    ("dummies", s.Stats.dummies);
    ("eliminated", s.Stats.eliminated);
    ("eliminated_zext", s.Stats.eliminated_zext);
    ("eliminated_by_pre", s.Stats.eliminated_by_pre);
    ("remaining", s.Stats.remaining);
    ("remaining_zext", s.Stats.remaining_zext);
    ("theorem1", s.Stats.by_theorem.(1));
    ("theorem2", s.Stats.by_theorem.(2));
    ("theorem3", s.Stats.by_theorem.(3));
    ("theorem4", s.Stats.by_theorem.(4));
  ]

let same_outcome (a : Compile_one.outcome) (b : Compile_one.outcome) =
  let ir p = Format.asprintf "%a" Sxe_ir.Printer.pp_prog p in
  stats_fields a.Compile_one.stats = stats_fields b.Compile_one.stats
  && Sxe_check.Check.errors_to_json a.Compile_one.errors
     = Sxe_check.Check.errors_to_json b.Compile_one.errors
  && a.Compile_one.asm = b.Compile_one.asm
  && ir a.Compile_one.prog = ir b.Compile_one.prog

let same_measurement (a : Experiment.measurement) (b : Experiment.measurement) =
  a.Experiment.workload = b.Experiment.workload
  && a.variant = b.variant
  && a.dyn_sext32 = b.dyn_sext32
  && a.dyn_zext32 = b.dyn_zext32
  && a.static_remaining = b.static_remaining
  && a.static_remaining_zext = b.static_remaining_zext
  && a.cycles = b.cycles
  && a.executed = b.executed
  && a.equivalent = b.equivalent
  && stats_fields a.stats = stats_fields b.stats
