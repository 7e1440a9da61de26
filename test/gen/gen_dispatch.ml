(* The dispatch ledger: golden/dispatch.tsv.

   One line per run of the 24 workloads (registry and extras, scale 1)
   under each of the 12 variants on both architectures, compiled once
   and executed by the pre-decoded engine twice: with every fusion rule
   and with none. Columns: workload, variant, arch; under [--fuse all]
   the executed instructions, the dispatches and every opcode's
   dispatch count ([name=count], by name); under [--fuse off] the
   executed instructions and the dispatches. Every figure is an exact
   count, so any change to the fusion layer's selection shows up as a
   diff in [dune runtest], accepted with [dune promote]. *)

let measure prog fuse =
  let prof = Sxe_vm.Profile.create () in
  Sxe_vm.Precode.enable_dispatch prof;
  let out = Sxe_vm.Interp.run ~engine:`Precode ~mode:`Faithful ~profile:prof ~fuse prog in
  (match out.Sxe_vm.Interp.trap with
  | Some t -> failwith ("gen_dispatch: run trapped: " ^ t)
  | None -> ());
  let ops = Sxe_vm.Precode.dispatch_ops prof in
  (out.Sxe_vm.Interp.executed, List.fold_left (fun a (_, _, c) -> a + c) 0 ops, ops)

let () =
  let ws =
    Sxe_workloads.Registry.all ~scale:1 () @ Sxe_workloads.Registry.extras ~scale:1 ()
  in
  print_endline
    "workload\tvariant\tarch\texecuted\tdispatches\tops\toff_executed\toff_dispatches";
  List.iter
    (fun (aname, arch) ->
      List.iter
        (fun (vname, _, make) ->
          List.iter
            (fun (w : Sxe_workloads.Registry.t) ->
              let prog = Sxe_lang.Frontend.compile w.source in
              ignore (Sxe_core.Pass.compile (make ?arch:(Some arch) ?maxlen:None ()) prog);
              let ex, disp, ops = measure prog Sxe_vm.Fuse.All in
              let ex_off, disp_off, _ = measure prog Sxe_vm.Fuse.Off in
              let ops =
                List.sort compare (List.map (fun (n, _, c) -> Printf.sprintf "%s=%d" n c) ops)
              in
              Printf.printf "%s\t%s\t%s\t%Ld\t%d\t%s\t%Ld\t%d\n" w.name vname aname ex disp
                (String.concat " " ops) ex_off disp_off)
            ws)
        Sxe_core.Config.variants)
    Sxe_core.Arch.names
