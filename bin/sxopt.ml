(* sxopt: command-line driver for the sign-extension-elimination compiler.

   Subcommands:
     compile   compile a MiniJ file under a variant; dump IR and statistics
     run       compile and execute on the 64-bit machine model
     variants  compare all paper variants on one file
     workloads list the built-in benchmark programs
     emit      compile and print pseudo-assembly for IA64 or PPC64
     serve     long-running compile-and-certify daemon over a Unix-domain
               socket (newline-delimited JSON, content-hash cache, each
               cache miss compiled on a worker domain)
     fuzz      differential fuzzing of every variant against the reference
               semantics, with shrinking and corpus replay
     certify   statically verify optimized output with the extension-state
               certifier (translation validation)
     lint      run the IR lint rules over optimized output
     audit     classify every surviving sign extension (redundant /
               necessary / unknown), self-verify the redundancy proofs
               through the differential oracle, and gate against a
               checked-in residue baseline

   Every subcommand exits nonzero on internal errors (and certify/lint/
   audit on findings), so CI can trust exit status. *)

open Cmdliner
module Json = Sxe_util.Json

let read_source path =
  if path = "-" then In_channel.input_all stdin
  else In_channel.with_open_text path In_channel.input_all

(* The variant and arch tables live in Sxe_core (Config, Arch); the
   optimize+certify+codegen path lives in Sxe_serve.Compile_one, so the
   daemon and the one-shot subcommands are the same computation. *)
let variant_names = Sxe_core.Config.variant_names
let config_of = Sxe_core.Config.of_variant

(* -- common arguments ------------------------------------------------- *)

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"MiniJ source file ('-' for stdin).")

let variant_arg =
  Arg.(
    value
    & opt (enum variant_names) `All
    & info [ "v"; "variant" ] ~docv:"VARIANT"
        ~doc:
          (Printf.sprintf "Optimization variant: %s."
             (String.concat ", " (List.map fst variant_names))))

let arch_arg =
  Arg.(
    value
    & opt (enum Sxe_core.Arch.names) Sxe_core.Arch.ia64
    & info [ "a"; "arch" ] ~docv:"ARCH" ~doc:"Target model: ia64 or ppc64.")

let maxlen_arg =
  Arg.(
    value
    & opt int64 Sxe_ir.Types.max_array_length
    & info [ "maxlen" ] ~docv:"N"
        ~doc:"Maximum array length assumed by Theorem 4 (default: Java's 0x7fffffff).")

let dump_arg =
  Arg.(
    value
    & opt (enum [ ("none", `None); ("source", `Source); ("converted", `Converted); ("final", `Final) ])
        `Final
    & info [ "dump" ] ~docv:"STAGE"
        ~doc:"IR stage to print: source (32-bit form), converted (after step 1+2), final.")

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Collect a branch profile from a baseline run and feed order determination.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for independent cases/matrix cells (default: \
           $(b,SXE_JOBS) or 1). Output is byte-identical to --jobs 1.")

(* 0 = unset: fall back to SXE_JOBS (or 1). Bad values are usage errors. *)
let resolve_jobs n =
  match if n = 0 then Sxe_par.Pool.default_jobs () else n with
  | n when n >= 1 -> n
  | _ ->
      Printf.eprintf "error: --jobs must be at least 1\n";
      exit 2
  | exception Invalid_argument msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 2

let with_frontend_errors f =
  try f () with
  | Sxe_lang.Frontend.Error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  | Sys_error msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  | Failure msg ->
      Printf.eprintf "error: %s\n" msg;
      exit 1
  | e ->
      (* internal error: still a nonzero exit, never a success status *)
      Printf.eprintf "internal error: %s\n" (Printexc.to_string e);
      exit 1

(* -- compile ----------------------------------------------------------- *)

let compile_cmd =
  let doc = "Compile a MiniJ file and show IR and static statistics." in
  let run file variant arch maxlen dump =
    with_frontend_errors @@ fun () ->
    let src = read_source file in
    let prog = Sxe_lang.Frontend.compile src in
    if dump = `Source then Format.printf "%a@." Sxe_ir.Printer.pp_prog prog
    else begin
      let config = config_of ~arch ~maxlen variant in
      let config =
        (* "converted": stop after steps 1+2 *)
        if dump = `Converted then
          { config with Sxe_core.Config.elimination = Sxe_core.Config.Elim_none }
        else config
      in
      let o = Sxe_serve.Compile_one.run_prog ~config ~maxlen prog in
      if dump <> `None then Format.printf "%a@." Sxe_ir.Printer.pp_prog o.Sxe_serve.Compile_one.prog;
      Format.printf "variant: %s (%s)@." config.Sxe_core.Config.name
        config.Sxe_core.Config.arch.Sxe_core.Arch.name;
      Format.printf "stats: %a@." Sxe_core.Stats.pp o.Sxe_serve.Compile_one.stats;
      Format.printf "certify: %s@."
        (match o.Sxe_serve.Compile_one.errors with
        | [] -> "ok"
        | errs -> Printf.sprintf "%d error(s)" (List.length errs))
    end
  in
  Cmd.v
    (Cmd.info "compile" ~doc)
    Term.(const run $ file_arg $ variant_arg $ arch_arg $ maxlen_arg $ dump_arg)

(* -- run ---------------------------------------------------------------- *)

let run_cmd =
  let doc = "Compile and execute a MiniJ file on the 64-bit machine model." in
  let canonical_arg =
    Arg.(
      value & flag
      & info [ "canonical" ]
          ~doc:"Skip optimization; run the 32-bit reference semantics directly.")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:"Stream every executed instruction (with input registers) to stderr.")
  in
  let fuse_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fuse" ] ~docv:"SPEC"
          ~doc:
            "Superinstruction-fusion selection for the pre-decoded engine: \
             $(b,all), $(b,off) or a comma-separated rule list. Defaults to \
             the $(b,SXE_FUSE) environment variable, then $(b,all). The \
             outcome — output, checksum, trap and every counter — is \
             bit-identical under any selection; only wall-clock changes.")
  in
  let run file variant arch maxlen canonical profile trace fuse =
    with_frontend_errors @@ fun () ->
    let src = read_source file in
    let prog = Sxe_lang.Frontend.compile src in
    let tr = if trace then Some Format.err_formatter else None in
    let fuse_sel =
      match fuse with
      | None -> None
      | Some s -> (
          match Sxe_vm.Fuse.parse s with
          | Ok sel -> Some sel
          | Error msg ->
              Printf.eprintf "error: --fuse: %s\n" msg;
              exit 2)
    in
    let out =
      if canonical then Sxe_vm.Interp.run ~mode:`Canonical ?trace:tr ?fuse:fuse_sel prog
      else begin
        let config = config_of ~arch ~maxlen variant in
        let profile_src =
          if profile then begin
            let p = Sxe_ir.Clone.clone_prog prog in
            let _ = Sxe_core.Pass.compile (Sxe_core.Config.baseline ~arch ()) p in
            let prof = Sxe_vm.Profile.create () in
            let _ = Sxe_vm.Interp.run ~mode:`Faithful ~count_cycles:false ~profile:prof p in
            Some (Sxe_vm.Profile.as_source prof)
          end
          else None
        in
        let _ = Sxe_core.Pass.compile ?profile:profile_src config prog in
        Sxe_ir.Validate.check_prog prog;
        Sxe_vm.Interp.run ~mode:`Faithful ?trace:tr ?fuse:fuse_sel prog
      end
    in
    print_string out.Sxe_vm.Interp.output;
    (match out.Sxe_vm.Interp.trap with
    | Some t -> Printf.printf "! exception: %s\n" t
    | None -> ());
    Printf.printf
      "-- checksum %Ld | %Ld instructions | %Ld sign extensions (32-bit) | %Ld \
       (8/16-bit) | %Ld zero extensions (32-bit) | %Ld (8/16-bit) | %Ld cycles\n"
      out.Sxe_vm.Interp.checksum out.Sxe_vm.Interp.executed out.Sxe_vm.Interp.sext32
      out.Sxe_vm.Interp.sext_sub out.Sxe_vm.Interp.zext32 out.Sxe_vm.Interp.zext_sub
      out.Sxe_vm.Interp.cycles
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      const run $ file_arg $ variant_arg $ arch_arg $ maxlen_arg $ canonical_arg
      $ profile_arg $ trace_arg $ fuse_arg)

(* -- variants ------------------------------------------------------------ *)

let variants_cmd =
  let doc = "Compare all paper variants on one file (dynamic extension counts)." in
  let run file arch maxlen profile =
    with_frontend_errors @@ fun () ->
    let src = read_source file in
    let w = { Sxe_workloads.Registry.name = file; suite = Jbytemark; source = src } in
    let ms = Sxe_harness.Experiment.run_workload ~use_profile:profile ~arch ~maxlen w in
    Printf.printf "%-22s %14s %8s %14s %8s %12s %6s\n" "variant" "sext32 (dyn)"
      "static" "zext32 (dyn)" "static" "cycles" "ok";
    List.iter
      (fun (m : Sxe_harness.Experiment.measurement) ->
        Printf.printf "%-22s %14Ld %8d %14Ld %8d %12Ld %6s\n" m.variant
          m.dyn_sext32 m.static_remaining m.dyn_zext32 m.static_remaining_zext
          m.cycles
          (if m.equivalent then "yes" else "NO!"))
      ms;
    if List.exists (fun (m : Sxe_harness.Experiment.measurement) -> not m.equivalent) ms
    then exit 1
  in
  Cmd.v
    (Cmd.info "variants" ~doc)
    Term.(const run $ file_arg $ arch_arg $ maxlen_arg $ profile_arg)

(* -- workloads ------------------------------------------------------------ *)

let workloads_cmd =
  let doc = "List the built-in benchmark programs (Tables 1 and 2)." in
  let scale_arg =
    Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc:"Workload scale factor.")
  in
  let show_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "show" ] ~docv:"NAME" ~doc:"Print the MiniJ source of one workload.")
  in
  let run scale show =
    match show with
    | Some name -> print_string (Sxe_workloads.Registry.find ~scale name).source
    | None ->
        List.iter
          (fun (w : Sxe_workloads.Registry.t) ->
            Printf.printf "%-14s (%s)\n" w.name
              (match w.suite with Jbytemark -> "jBYTEmark" | Specjvm -> "SPECjvm98"))
          (Sxe_workloads.Registry.all ~scale ())
  in
  Cmd.v (Cmd.info "workloads" ~doc) Term.(const run $ scale_arg $ show_arg)

(* -- emit ------------------------------------------------------------------ *)

let emit_cmd =
  let doc = "Compile and print pseudo-assembly (Figure 4's code shapes)." in
  let run file variant arch maxlen =
    with_frontend_errors @@ fun () ->
    let src = read_source file in
    let config = config_of ~arch ~maxlen variant in
    match Sxe_serve.Compile_one.run_source ~emit:true ~config ~maxlen src with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        exit 1
    | Ok o -> print_string (Option.value ~default:"" o.Sxe_serve.Compile_one.asm)
  in
  Cmd.v
    (Cmd.info "emit" ~doc)
    Term.(const run $ file_arg $ variant_arg $ arch_arg $ maxlen_arg)

(* -- serve ----------------------------------------------------------------- *)

let serve_cmd =
  let doc = "Run the compile-and-certify daemon on a Unix-domain socket." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Starts a long-running server speaking newline-delimited JSON over a \
         Unix-domain socket: one request object per line, one response per \
         line. The $(b,compile) operation optimizes, certifies and \
         (optionally) emits pseudo-assembly for a MiniJ program — the same \
         computation as the one-shot subcommands, shared via the \
         Compile_one facade — with a content-hash cache in front. Each \
         cache miss goes to a worker domain as soon as it is read, and \
         the event loop, which never compiles, keeps answering hits and \
         reading requests meanwhile. $(b,metrics) \
         reports counters, cache hit rates and latency quantiles; \
         $(b,ping) probes liveness; $(b,shutdown) (or SIGTERM/SIGINT) \
         drains gracefully: compiles in flight are answered, new connections \
         are rejected, and the socket file is removed. See docs/SERVE.md.";
    ]
  in
  let socket_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path to listen on.")
  in
  let queue_max_arg =
    Arg.(
      value & opt int 64
      & info [ "queue-max" ] ~docv:"N"
          ~doc:
            "Compile bound: with $(docv) compiles queued or running the server \
             answers a new cache miss \"overloaded\" instead of buffering it.")
  in
  let timeout_arg =
    Arg.(
      value & opt float 30.0
      & info [ "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Answer \"timeout\" for a compile that waits longer than $(docv) for \
             a worker.")
  in
  let cache_max_arg =
    Arg.(
      value & opt int 4096
      & info [ "cache-max" ] ~docv:"N"
          ~doc:"Response-cache capacity in entries (0 disables caching).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Compile worker domains (default: $(b,SXE_JOBS), else one less than \
             the recommended domain count, at least 1). The event loop runs on \
             a domain of its own and never compiles.")
  in
  let run socket jobs queue_max timeout cache_max =
    let jobs =
      match (jobs, Sys.getenv_opt Sxe_par.Pool.env_var) with
      | 0, (None | Some "") -> max 1 (Domain.recommended_domain_count () - 1)
      | _ -> resolve_jobs jobs
    in
    if queue_max < 1 then begin
      Printf.eprintf "error: --queue-max must be at least 1\n";
      exit 2
    end;
    let config =
      {
        Sxe_serve.Server.socket_path = socket;
        jobs;
        queue_max;
        timeout_s = timeout;
        cache_max;
      }
    in
    let t = Sxe_serve.Server.create config in
    (try
       Sxe_serve.Server.serve ~handle_signals:true
         ~on_ready:(fun () ->
           Printf.eprintf "sxopt serve: listening on %s (jobs=%d)\n%!" socket jobs)
         t
     with Failure msg ->
       Printf.eprintf "error: %s\n" msg;
       exit 1);
    Printf.eprintf "sxopt serve: drained after %d request(s)\n%!"
      (Sxe_serve.Server.requests_served t)
  in
  Cmd.v
    (Cmd.info "serve" ~doc ~man)
    Term.(
      const run $ socket_arg $ jobs_arg $ queue_max_arg $ timeout_arg
      $ cache_max_arg)

(* -- fuzz ------------------------------------------------------------------ *)

let fuzz_cmd =
  let doc =
    "Differentially fuzz every optimizer variant against the reference semantics."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Generates random MiniJ programs and raw IR control-flow graphs (plus \
         mutated versions of the latter), compiles each under every paper variant, \
         runs them on the 64-bit machine model, and reports any observable \
         divergence from the canonical 32-bit reference semantics. Every run is \
         executed by both interpreter engines (structural and pre-decoded) and \
         any disagreement — dynamic counters included — is reported as a \
         distinct 'engine' divergence. Failures are minimized by a greedy \
         structural shrinker and, with $(b,--corpus), persisted and replayed as \
         a regression set. See docs/FUZZING.md.";
    ]
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed.")
  in
  let count_arg =
    Arg.(value & opt int 100 & info [ "count" ] ~docv:"N" ~doc:"Number of cases.")
  in
  let mutate_n_arg =
    Arg.(
      value & opt int 2
      & info [ "mutate" ] ~docv:"N"
          ~doc:"Mutations applied per mutated-IR case (0 disables the mutation stage).")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:
            "Corpus directory: entries are replayed as a regression set before \
             fuzzing, and new minimized failures are persisted there.")
  in
  let kind_arg =
    Arg.(
      value
      & opt (enum [ ("mix", `Mix); ("minij", `Minij); ("ir", `Ir); ("mutated", `Mutated) ]) `Mix
      & info [ "kind" ] ~docv:"KIND"
          ~doc:"Case kind: minij (source programs), ir (raw CFGs), mutated, or mix.")
  in
  let size_arg =
    Arg.(
      value & opt int 6
      & info [ "size" ] ~docv:"N" ~doc:"Size knob for generated MiniJ programs.")
  in
  let replay_arg =
    Arg.(
      value & flag
      & info [ "replay" ] ~doc:"Only replay the corpus; generate no new cases.")
  in
  let no_shrink_arg =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report failures without minimizing.")
  in
  let inject_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "inject" ] ~docv:"BUG"
          ~doc:
            "Self-test: sabotage every compiled variant with a deliberate bug \
             (skip-div-extend, skip-add-extend, drop-all-extends) and verify the \
             oracle catches it.")
  in
  let both_arch_arg =
    Arg.(
      value & flag
      & info [ "both-arches" ] ~doc:"Check the PPC64 model in addition to IA64.")
  in
  let run seed count mutations corpus kind size replay no_shrink inject arch both jobs =
    let jobs = resolve_jobs jobs in
    let sabotage =
      match inject with
      | None -> None
      | Some s -> (
          match Sxe_fuzz.Inject.of_string s with
          | Some b -> Some b
          | None ->
              Printf.eprintf "error: unknown bug %S\n" s;
              exit 2)
    in
    let archs = if both then [ Sxe_core.Arch.ia64; Sxe_core.Arch.ppc64 ] else [ arch ] in
    let kinds =
      match kind with
      | `Mix -> [ Sxe_fuzz.Driver.Minij_case; Ir_case; Mutated_case ]
      | `Minij -> [ Sxe_fuzz.Driver.Minij_case ]
      | `Ir -> [ Sxe_fuzz.Driver.Ir_case ]
      | `Mutated -> [ Sxe_fuzz.Driver.Mutated_case ]
    in
    let failed = ref false in
    (match corpus with
    | (None | Some _) when replay && corpus = None ->
        Printf.eprintf "error: --replay requires --corpus DIR\n";
        exit 2
    | Some dir when not (Sys.file_exists dir) && replay ->
        Printf.eprintf "error: corpus directory %S does not exist\n" dir;
        exit 2
    | _ -> ());
    (* 1. corpus replay: the regression set must stay green *)
    (match corpus with
    | Some dir when Sys.file_exists dir ->
        let results =
          Sxe_fuzz.Driver.replay ~archs
            ?sabotage:(Option.map Sxe_fuzz.Inject.apply sabotage)
            ~jobs dir
        in
        let n = List.length (Sxe_fuzz.Corpus.load_dir dir) in
        if results = [] then Printf.printf "corpus: %d entries replayed, all green\n%!" n
        else begin
          failed := true;
          List.iter
            (fun (name, fs) ->
              Printf.printf "corpus: %s FAILS\n" name;
              List.iter
                (fun f -> Format.printf "  %a@." Sxe_fuzz.Oracle.pp_failure f)
                fs)
            results
        end
    | _ -> ());
    (* 2. fresh campaign *)
    if not replay then begin
      let o =
        {
          Sxe_fuzz.Driver.default_options with
          seed;
          count;
          mutations;
          kinds;
          archs;
          size;
          corpus_dir = corpus;
          sabotage;
          shrink = not no_shrink;
          log = (fun s -> Printf.printf "%s\n%!" s);
          jobs;
        }
      in
      let report = Sxe_fuzz.Driver.run o in
      Printf.printf
        "fuzz: %d cases (%d minij, %d ir, %d mutated), %d failing\n%!"
        report.Sxe_fuzz.Driver.cases report.minij_cases report.ir_cases
        report.mutated_cases
        (List.length report.failures);
      List.iter
        (fun (fr : Sxe_fuzz.Driver.failure_report) ->
          failed := true;
          Printf.printf "\n== case %d (%s, seed %d) ==\n" fr.index
            (Sxe_fuzz.Driver.string_of_kind fr.kind)
            fr.case_seed;
          List.iter (fun f -> Format.printf "  %a@." Sxe_fuzz.Oracle.pp_failure f) fr.failures;
          (match fr.shrunk with
          | Some p ->
              Printf.printf "shrunk to %d instructions:\n%s\n"
                (Sxe_fuzz.Shrink.instr_total p)
                (Sxe_ir.Printer.prog_to_string p)
          | None -> ());
          match fr.saved with
          | Some path -> Printf.printf "saved: %s\n" path
          | None -> ())
        report.failures
    end;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz" ~doc ~man)
    Term.(
      const run $ seed_arg $ count_arg $ mutate_n_arg $ corpus_arg $ kind_arg $ size_arg
      $ replay_arg $ no_shrink_arg $ inject_arg $ arch_arg $ both_arch_arg $ jobs_arg)

(* -- bench ----------------------------------------------------------------- *)

let bench_cmd =
  let doc = "Interpreter measurements: exact dispatch counts per opcode and opcode pair." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles each selected workload under the selected optimizer variant, \
         executes it on the pre-decoded engine with dispatch profiling \
         enabled, and dumps JSON per workload: the total dispatches, the \
         dispatches per opcode (with each opcode's width, the instructions \
         one dispatch executes) and the per-opcode-pair histogram — the \
         evidence base for choosing superinstruction fusion rules (see \
         docs/VM.md, Superinstructions). Pairs are counted for straight-line \
         adjacency only, so every reported pair is a fusion candidate. The \
         workloads are the registry programs and the extras. The full \
         table/figure benchmarks live in bench/main.exe.";
    ]
  in
  let dispatch_arg =
    Arg.(
      value & flag
      & info [ "dispatch-counts" ]
          ~doc:"Dump the dispatch counts and the per-opcode-pair histogram as JSON.")
  in
  let workload_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Restrict to one workload (default: the registry and the extras).")
  in
  let scale_arg =
    Arg.(value & opt int 1 & info [ "scale" ] ~docv:"N" ~doc:"Workload scale factor.")
  in
  let fuse_arg =
    Arg.(
      value & opt string "off"
      & info [ "fuse" ] ~docv:"SPEC"
          ~doc:
            "Fusion selection for the measured run: $(b,all), $(b,off) or a \
             comma-separated rule list. Defaults to $(b,off) so the histogram \
             shows unfused fusion candidates; $(b,all) shows what remains \
             after fusion.")
  in
  let top_arg =
    Arg.(
      value & opt int 0
      & info [ "top" ] ~docv:"N" ~doc:"Keep only the N most frequent pairs (0 = all).")
  in
  let run dispatch workload variant arch maxlen scale fuse top =
    with_frontend_errors @@ fun () ->
    if not dispatch then begin
      Printf.eprintf
        "error: nothing to do (pass --dispatch-counts; the table/figure \
         benchmarks live in bench/main.exe)\n";
      exit 2
    end;
    let fuse_sel =
      match Sxe_vm.Fuse.parse fuse with
      | Ok s -> s
      | Error msg ->
          Printf.eprintf "error: --fuse: %s\n" msg;
          exit 2
    in
    let ws =
      let all = Sxe_workloads.Registry.all ~scale () @ Sxe_workloads.Registry.extras ~scale () in
      match workload with
      | None -> all
      | Some name -> (
          let is_name (w : Sxe_workloads.Registry.t) =
            String.lowercase_ascii w.name = String.lowercase_ascii name
          in
          match List.find_opt is_name all with
          | Some w -> [ w ]
          | None ->
              Printf.eprintf "error: unknown workload %s\n" name;
              exit 2)
    in
    let config = config_of ~arch ~maxlen variant in
    let items =
      List.map
        (fun (w : Sxe_workloads.Registry.t) ->
          let prog = Sxe_lang.Frontend.compile w.source in
          let _ = Sxe_core.Pass.compile config prog in
          let prof = Sxe_vm.Profile.create () in
          Sxe_vm.Precode.enable_dispatch prof;
          let out =
            Sxe_vm.Interp.run ~mode:`Faithful ~profile:prof ~fuse:fuse_sel prog
          in
          let pairs = Sxe_vm.Precode.dispatch_counts prof in
          let pairs = if top > 0 then List.filteri (fun i _ -> i < top) pairs else pairs in
          let ops = Sxe_vm.Precode.dispatch_ops prof in
          ( w.name,
            Json.Obj
              [
                ("executed", Json.Int out.Sxe_vm.Interp.executed);
                ( "trap",
                  Option.fold ~none:Json.Null ~some:(fun t -> Json.Str t) out.Sxe_vm.Interp.trap );
                ("dispatches", Json.of_int (List.fold_left (fun a (_, _, c) -> a + c) 0 ops));
                ( "ops",
                  Json.Arr
                    (List.map
                       (fun (op, width, c) ->
                         Json.Obj
                           [ ("op", Json.Str op); ("width", Json.of_int width); ("count", Json.of_int c) ])
                       ops) );
                ( "pairs",
                  Json.Arr
                    (List.map
                       (fun ((a, b), c) ->
                         Json.Obj
                           [ ("first", Json.Str a); ("second", Json.Str b); ("count", Json.of_int c) ])
                       pairs) );
              ] ))
        ws
    in
    print_endline
      (Json.to_string
         (Json.Obj
            [
              ("variant", Json.Str config.Sxe_core.Config.name);
              ("fuse", Json.Str (Sxe_vm.Fuse.key fuse_sel));
              ("scale", Json.of_int scale);
              ("workloads", Json.Obj items);
            ]))
  in
  Cmd.v
    (Cmd.info "bench" ~doc ~man)
    Term.(
      const run $ dispatch_arg $ workload_arg $ variant_arg $ arch_arg $ maxlen_arg
      $ scale_arg $ fuse_arg $ top_arg)

(* -- certify / lint / audit: the checking matrix ------------------------- *)

(* Shared plumbing of the three static-checking subcommands: inputs come
   from a FILE (MiniJ or .sxir), --workloads (all built-in benchmarks,
   extras included) and/or --corpus DIR; each input is compiled under
   the selected variant(s) and the checker runs on the optimized
   output. *)

let opt_file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"FILE"
        ~doc:"MiniJ source ('-' for stdin) or $(b,.sxir) IR file to check.")

let workloads_flag =
  Arg.(
    value & flag
    & info [ "workloads" ]
        ~doc:"Check all built-in benchmark workloads (registry and extras).")

let corpus_flag =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR" ~doc:"Check every entry of a fuzz corpus directory.")

let all_variants_flag =
  Arg.(
    value & flag
    & info [ "all-variants" ]
        ~doc:"Check under every paper variant instead of just $(b,--variant).")

let json_flag =
  Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output.")

let check_inputs file workloads corpus : (string * Sxe_ir.Prog.t) list =
  let of_case name case =
    (name, Sxe_ir.Clone.clone_prog (Sxe_fuzz.Oracle.prog_of_case case))
  in
  let from_file =
    match file with
    | None -> []
    | Some "-" -> [ ("<stdin>", Sxe_lang.Frontend.compile (read_source "-")) ]
    | Some f -> [ of_case f (Sxe_fuzz.Corpus.case_of_file f) ]
  in
  let from_workloads =
    if not workloads then []
    else
      List.map
        (fun (w : Sxe_workloads.Registry.t) ->
          (w.name, Sxe_lang.Frontend.compile w.source))
        (Sxe_workloads.Registry.all () @ Sxe_workloads.Registry.extras ())
  in
  let from_corpus =
    match corpus with
    | None -> []
    | Some dir ->
        if not (Sys.file_exists dir) then begin
          Printf.eprintf "error: corpus directory %S does not exist\n" dir;
          exit 2
        end;
        List.map (fun (n, c) -> of_case n c) (Sxe_fuzz.Corpus.load_dir dir)
  in
  match from_file @ from_workloads @ from_corpus with
  | [] ->
      Printf.eprintf "error: nothing to check (give FILE, --workloads or --corpus)\n";
      exit 2
  | inputs -> inputs

type matrix = {
  inputs : (string * Sxe_ir.Prog.t) list;
  configs : Sxe_core.Config.t list;
  maxlen : int64;
  json : bool;
  jobs : int;
}

(* The arguments the three subcommands share. The term yields a thunk so
   inputs load (and usage errors exit) inside [with_frontend_errors]. *)
let matrix_term =
  let make file variant arch maxlen all_variants workloads corpus json jobs () =
    let jobs = resolve_jobs jobs in
    let inputs = check_inputs file workloads corpus in
    let configs =
      if all_variants then Sxe_core.Config.all ~arch ~maxlen ()
      else [ config_of ~arch ~maxlen variant ]
    in
    { inputs; configs; maxlen; json; jobs }
  in
  Term.(
    const make $ opt_file_arg $ variant_arg $ arch_arg $ maxlen_arg
    $ all_variants_flag $ workloads_flag $ corpus_flag $ json_flag $ jobs_arg)

(* Run [cell input base config] over every (input, config) pair, inputs
   outer and configs inner, on [m.jobs] domains. Results reach [text] on
   the calling domain in that order; with --json, [to_json] instead, and
   the objects print as one array at the end. Inputs are frozen first so
   concurrent workers can clone one base program without racing on the
   body-append flush. Returns the results in matrix order. *)
let run_matrix m ~cell ~text ~to_json =
  List.iter (fun (_, p) -> Sxe_ir.Clone.freeze_prog p) m.inputs;
  let cells =
    List.concat_map
      (fun (name, base) -> List.map (fun c -> (name, base, c)) m.configs)
      m.inputs
  in
  let results = ref [] in
  Sxe_par.Pool.with_pool ~jobs:m.jobs (fun pool ->
      Sxe_par.Pool.consume_map pool
        (fun (name, base, config) -> cell name base config)
        ~consume:(fun _ r ->
          results := r :: !results;
          if not m.json then text r)
        cells);
  let results = List.rev !results in
  if m.json then
    print_endline (Json.to_string (Json.Arr (List.filter_map to_json results)));
  results

(* One certify/lint cell as JSON. *)
let cell_json name vname key items =
  Some (Json.Obj [ ("input", Json.Str name); ("variant", Json.Str vname); (key, Json.Arr items) ])

(* Severity threshold for failing the run, shared by lint and audit.
   [None] = the subcommand's default (error-severity findings only). *)
let fail_on_arg =
  Arg.(
    value
    & opt (some (enum [ ("error", `Error); ("warning", `Warning) ])) None
    & info [ "fail-on" ] ~docv:"SEV"
        ~doc:
          "Exit 1 on findings at or above $(docv): $(b,error) (the default) \
           or $(b,warning). An unknown severity is a usage error (exit 2, \
           via option parsing).")

let certify_cmd =
  let doc = "Statically certify optimized output (translation validation)." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles each input under the selected optimizer variant(s) and runs the \
         extension-state certifier over the result: an abstract interpretation \
         proving that every instruction observing upper register bits sees a \
         sign-extended value and that every array index is covered by the \
         paper's Theorems 1-4. Any unprovable use is reported with its \
         location, abstract state and a defining-instruction witness path. \
         Exits 1 on any certification error, 2 on usage errors.";
    ]
  in
  let run m =
    with_frontend_errors @@ fun () ->
    let m = m () in
    let cell name base (config : Sxe_core.Config.t) =
      let errs =
        match Sxe_serve.Compile_one.run_prog ~config ~maxlen:m.maxlen base with
        | o -> o.Sxe_serve.Compile_one.errors
        | exception e ->
            [
              {
                Sxe_check.Certify.fname =
                  "<compiler crash: " ^ Printexc.to_string e ^ ">";
                bid = 0;
                iid = None;
                reg = -1;
                need = Sxe_check.Certify.Needs_extended;
                state = Sxe_check.Extstate.garbage;
                witness = [];
              };
            ]
      in
      (name, config.Sxe_core.Config.name, errs)
    in
    let text (name, vname, errs) =
      if errs = [] then Printf.printf "certify: %s / %s: ok\n" name vname
      else begin
        Printf.printf "certify: %s / %s: %d error(s)\n" name vname
          (List.length errs);
        List.iter
          (fun e -> Printf.printf "  %s\n" (Sxe_check.Certify.error_to_string e))
          errs
      end
    in
    let to_json (name, vname, errs) =
      cell_json name vname "errors" (List.map Sxe_check.Check.error_to_json errs)
    in
    let results = run_matrix m ~cell ~text ~to_json in
    if List.exists (fun (_, _, errs) -> errs <> []) results then exit 1
  in
  Cmd.v (Cmd.info "certify" ~doc ~man) Term.(const run $ matrix_term)

let lint_cmd =
  let doc = "Run the IR lint rules over optimized output." in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles each input under the selected optimizer variant(s) and runs \
         the registered lint rules (redundant extensions, leftover dummy \
         extensions, unreachable blocks, critical edges, copy chains, \
         constant-foldable compares) over the result. Warnings and infos are \
         hygiene diagnostics; only error-severity findings fail the run \
         (exit 1) unless $(b,--fail-on)=$(i,warning) (or its deprecated \
         alias $(b,--strict)) promotes warnings.";
    ]
  in
  let strict_flag =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Deprecated alias for $(b,--fail-on)=$(i,warning).")
  in
  let rules_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rules" ] ~docv:"R1,R2"
          ~doc:"Comma-separated rule subset (default: every built-in and audit rule).")
  in
  let run m strict fail_on rules =
    with_frontend_errors @@ fun () ->
    let fail_on_warning =
      match fail_on with
      | Some `Warning -> true
      | Some `Error -> false
      | None -> strict
    in
    let m = m () in
    let all_rules = Sxe_check.Lint.builtins @ Sxe_audit.Audit.lint_rules in
    let rules =
      match rules with
      | None -> all_rules
      | Some s ->
          List.map
            (fun n ->
              match
                List.find_opt
                  (fun (r : Sxe_check.Lint.rule) -> r.Sxe_check.Lint.name = String.trim n)
                  all_rules
              with
              | Some r -> r
              | None ->
                  Printf.eprintf "error: unknown lint rule %S (have: %s)\n" n
                    (String.concat ", "
                       (List.map (fun (r : Sxe_check.Lint.rule) -> r.Sxe_check.Lint.name) all_rules));
                  exit 2)
            (String.split_on_char ',' s)
    in
    (* compiler crashes count as findings, not tool crashes *)
    let cell name base (config : Sxe_core.Config.t) =
      let p = Sxe_ir.Clone.clone_prog base in
      let findings =
        match Sxe_core.Pass.compile config p with
        | exception e ->
            [
              {
                Sxe_check.Lint.rule = "compiler-crash";
                severity = Sxe_check.Lint.Error;
                fname = "-";
                bid = 0;
                iid = None;
                idx = None;
                message = Printexc.to_string e;
              };
            ]
        | _ -> Sxe_check.Check.lint_prog ~maxlen:m.maxlen ~rules p
      in
      (name, config.Sxe_core.Config.name, findings)
    in
    let text (name, vname, findings) =
      Printf.printf "lint: %s / %s: %d finding(s)\n" name vname
        (List.length findings);
      List.iter
        (fun fi -> Printf.printf "  %s\n" (Sxe_check.Lint.finding_to_string fi))
        findings
    in
    let to_json (name, vname, findings) =
      cell_json name vname "findings" (List.map Sxe_check.Check.finding_to_json findings)
    in
    let results = run_matrix m ~cell ~text ~to_json in
    let fails (_, _, findings) =
      match Sxe_check.Lint.max_severity findings with
      | Some Sxe_check.Lint.Error -> true
      | Some Sxe_check.Lint.Warning -> fail_on_warning
      | _ -> false
    in
    if List.exists fails results then exit 1
  in
  Cmd.v
    (Cmd.info "lint" ~doc ~man)
    Term.(const run $ matrix_term $ strict_flag $ fail_on_arg $ rules_arg)

(* -- audit -------------------------------------------------------------- *)

let audit_cmd =
  let doc =
    "Classify every surviving sign extension and prove the redundant ones."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Compiles each input under the selected optimizer variant(s) and runs \
         the extension-residue auditor over the result: every surviving \
         explicit extension and sign-extending 32-bit load is classified as \
         provably redundant (with a witness naming the Theorem 1-4 fact), \
         necessary (with a concrete counterexample from the range / \
         extension-state lattice) or unknown (range-hostile; a speculation \
         candidate). Unless $(b,--no-verify), every redundancy claim is \
         proved by deleting the extension and pushing the patched program \
         through the certifier and the differential execution oracle — a \
         verification failure is an auditor bug and fails the run \
         unconditionally.";
      `P
        "With $(b,--baseline), per-cell redundant counts are gated against a \
         checked-in TSV baseline: any cell above its baseline entry exits 1. \
         $(b,--write-baseline) regenerates that file; the output is \
         byte-identical for any $(b,--jobs) value.";
    ]
  in
  let sarif_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "sarif" ] ~docv:"PATH"
          ~doc:"Write a SARIF 2.1.0 log to $(docv) ('-' for stdout).")
  in
  let baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"PATH"
          ~doc:"Gate redundant counts against the TSV baseline at $(docv).")
  in
  let write_baseline_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "write-baseline" ] ~docv:"PATH"
          ~doc:"Write the TSV residue baseline for this matrix to $(docv).")
  in
  let no_verify_flag =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:
            "Skip the dynamic self-verification of redundancy claims \
             (classification only; much faster).")
  in
  let fuel_arg =
    Arg.(
      value
      & opt int64 50_000_000L
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Instruction budget per verification run (fuel-exhausted runs \
             verify vacuously).")
  in
  let run m sarif baseline write_baseline no_verify fuel fail_on =
    with_frontend_errors @@ fun () ->
    let m = m () in
    (* [Error] carries a hard failure: a compiler crash or a refuted
       redundancy claim *)
    let cell name base (config : Sxe_core.Config.t) =
      let vname = config.Sxe_core.Config.name in
      let p = Sxe_ir.Clone.clone_prog base in
      match Sxe_core.Pass.compile config p with
      | exception e ->
          Error (Printf.sprintf "%s / %s: compiler crash: %s" name vname (Printexc.to_string e))
      | _ -> (
          match
            Sxe_audit.Audit.audit_prog ~maxlen:m.maxlen ~fuel ~verify:(not no_verify) p
          with
          | sites, ver -> Ok ({ Sxe_audit.Report.input = name; variant = vname; sites }, ver)
          | exception Sxe_audit.Audit.Verification_failed msg ->
              Error (Printf.sprintf "%s / %s: VERIFICATION FAILED: %s" name vname msg))
    in
    let text = function
      | Error _ -> ()
      | Ok ((cell : Sxe_audit.Report.cell), ver) ->
          let n = Sxe_audit.Report.counts cell.Sxe_audit.Report.sites in
          let vnote =
            match (ver : Sxe_audit.Audit.verification option) with
            | None -> ""
            | Some v ->
                Printf.sprintf " (verified %d: %d co-deleted, %d isolated)"
                  v.Sxe_audit.Audit.attempted v.Sxe_audit.Audit.co_deleted
                  v.Sxe_audit.Audit.interacting
          in
          let sx, zx = Sxe_audit.Report.by_kind cell.Sxe_audit.Report.sites in
          Printf.printf
            "audit: %s / %s: %d redundant, %d necessary, %d unknown (%d sext, \
             %d zext)%s\n"
            cell.Sxe_audit.Report.input cell.Sxe_audit.Report.variant
            n.Sxe_audit.Report.redundant n.Sxe_audit.Report.necessary
            n.Sxe_audit.Report.unknown sx zx vnote;
          List.iter
            (fun s -> Printf.printf "  %s\n" (Sxe_audit.Audit.site_to_string s))
            cell.Sxe_audit.Report.sites
    in
    let to_json = function
      | Ok (cell, _) -> Some (Sxe_audit.Report.cell_to_json cell)
      | Error _ -> None
    in
    let outcomes = run_matrix m ~cell ~text ~to_json in
    List.iter (function Error msg -> Printf.eprintf "audit: %s\n" msg | Ok _ -> ()) outcomes;
    let results = List.filter_map (function Ok (c, _) -> Some c | Error _ -> None) outcomes in
    (match sarif with
    | None -> ()
    | Some "-" -> print_endline (Sxe_audit.Report.sarif results)
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc (Sxe_audit.Report.sarif results ^ "\n")));
    (match write_baseline with
    | None -> ()
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc
              (Sxe_audit.Report.baseline_of_cells results)));
    let regressions =
      match baseline with
      | None -> []
      | Some path ->
          let text = In_channel.with_open_text path In_channel.input_all in
          Sxe_audit.Report.diff_baseline
            ~baseline:(Sxe_audit.Report.parse_baseline text)
            results
    in
    List.iter
      (fun r -> Printf.eprintf "audit: baseline regression: %s\n" r)
      regressions;
    let fail_on_warning = fail_on = Some `Warning in
    let has_redundant =
      List.exists
        (fun (c : Sxe_audit.Report.cell) ->
          (Sxe_audit.Report.counts c.Sxe_audit.Report.sites)
            .Sxe_audit.Report.redundant > 0)
        results
    in
    if List.length results < List.length outcomes || regressions <> []
       || (fail_on_warning && has_redundant)
    then exit 1
  in
  Cmd.v
    (Cmd.info "audit" ~doc ~man)
    Term.(
      const run $ matrix_term $ sarif_arg $ baseline_arg $ write_baseline_arg
      $ no_verify_flag $ fuel_arg $ fail_on_arg)

let () =
  let doc = "effective sign extension elimination (PLDI 2002) — reference implementation" in
  let info = Cmd.info "sxopt" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_cmd; run_cmd; variants_cmd; workloads_cmd; emit_cmd; bench_cmd;
            serve_cmd; fuzz_cmd; certify_cmd; lint_cmd; audit_cmd;
          ]))
