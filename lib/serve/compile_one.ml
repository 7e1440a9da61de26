(* sxbench/ compiles against this name. *)
let config_of = Sxe_core.Config.of_variant
let arch_of_name n = List.assoc_opt n Sxe_core.Arch.names

(* Bump on any pipeline change that can alter compiled output,
   certificates or emitted assembly; stale daemon caches key on it. *)
let pipeline_rev = "sxe-pipeline-11"

type outcome = {
  prog : Sxe_ir.Prog.t;
  config : Sxe_core.Config.t;
  stats : Sxe_core.Stats.t;
  errors : Sxe_check.Certify.error list;
  asm : string option;
}

let run_prog ?(emit = false) ~(config : Sxe_core.Config.t) ~(maxlen : int64)
    (base : Sxe_ir.Prog.t) : outcome =
  let prog = Sxe_ir.Clone.clone_prog base in
  let stats = Sxe_core.Pass.compile config prog in
  Sxe_ir.Validate.check_prog prog;
  let errors = Sxe_check.Check.certify_prog ~maxlen prog in
  let asm =
    if not emit then None
    else begin
      let b = Buffer.create 1024 in
      Sxe_ir.Prog.iter_funcs
        (fun f ->
          let a = Sxe_codegen.Emit.emit_func ~arch:config.Sxe_core.Config.arch f in
          Buffer.add_string b (Sxe_codegen.Emit.to_string a))
        prog;
      Some (Buffer.contents b)
    end
  in
  { prog; config; stats; errors; asm }

let error_category = function
  | Sxe_analysis.Dataflow.No_convergence _ -> "no_convergence"
  | _ -> "internal"

let run_source ?emit ~config ~maxlen (src : string) :
    (outcome, string) result =
  match Sxe_lang.Frontend.compile src with
  | exception Sxe_lang.Frontend.Error msg -> Error msg
  | prog -> Ok (run_prog ?emit ~config ~maxlen prog)
