(** Shared helpers for the test suites: quick IR construction and
    differential compile-and-run. *)

open Sxe_ir
module B = Builder

(** [fixture path]: the file at [path], relative to the repository
    root, as dune lays it out beside the test binary — found from any
    working directory. *)
let fixture path =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) path

(** Wrap a single function into a program with that function as main. *)
let prog_of_func ?(globals = []) (f : Cfg.func) =
  let p = Prog.create ~main:f.Cfg.name () in
  List.iter (fun (n, ty) -> Prog.declare_global p n ty) globals;
  Prog.add_func p f;
  p

(** Reference outcome of MiniJ source: canonical mode on the raw lowering. *)
let reference_outcome ?fuel src =
  let prog = Sxe_lang.Frontend.compile src in
  Sxe_vm.Interp.run ~mode:`Canonical ?fuel prog

(** Compile [src] under [config] and run faithfully. *)
let variant_outcome ?fuel (config : Sxe_core.Config.t) src =
  let prog = Sxe_lang.Frontend.compile src in
  let stats = Sxe_core.Pass.compile config prog in
  Validate.check_prog prog;
  let out = Sxe_vm.Interp.run ~mode:`Faithful ?fuel prog in
  (out, stats, prog)

(** Check that every variant of [src] behaves like the canonical
    reference; returns per-variant (name, dynamic sext32, outcome). *)
let check_all_variants ?fuel ?arch ?maxlen ~name src =
  let reference = reference_outcome ?fuel src in
  List.map
    (fun (config : Sxe_core.Config.t) ->
      let out, stats, _ = variant_outcome ?fuel config src in
      if not (Sxe_vm.Interp.equivalent reference out) then
        Alcotest.failf "%s: variant %S diverges: ref(trap=%s, sum=%Ld) got(trap=%s, sum=%Ld)"
          name config.Sxe_core.Config.name
          (Option.value ~default:"none" reference.Sxe_vm.Interp.trap)
          reference.Sxe_vm.Interp.checksum
          (Option.value ~default:"none" out.Sxe_vm.Interp.trap)
          out.Sxe_vm.Interp.checksum;
      (config.Sxe_core.Config.name, out.Sxe_vm.Interp.sext32, stats))
    (Sxe_core.Config.all ?arch ?maxlen ())

let dyn_of results vname =
  match List.find_opt (fun (n, _, _) -> n = vname) results with
  | Some (_, d, _) -> d
  | None -> Alcotest.failf "no variant %S" vname
