(** Facade of the extension-state verifier.

    [certify] / [lint] re-export the workhorses; [stage_gate] is the
    translation-validation hook the compilation pipeline calls after
    each phase when paranoid checking is on. Paranoid mode is keyed off
    the [SXE_CHECK] environment variable (read per call so tests can
    toggle it): unset, empty or ["0"] means off. *)

exception Certification_failed of string
(** Raised by {!stage_gate}: a pipeline stage produced a function the
    certifier rejects. The message names the stage and the findings. *)

let paranoid () =
  match Sys.getenv_opt "SXE_CHECK" with
  | None | Some "" | Some "0" -> false
  | Some _ -> true

let certify = Certify.certify
let certify_prog = Certify.certify_prog
let lint = Lint.run_func
let lint_prog = Lint.run_prog

(** Certify [f] and raise {!Certification_failed} naming [stage] on any
    error. Callers gate on {!paranoid} (or a test harness calls it
    unconditionally). *)
let stage_gate ?maxlen ?call_ranges ~stage (f : Sxe_ir.Cfg.func) =
  match Certify.certify ?maxlen ?call_ranges f with
  | [] -> ()
  | errs ->
      raise
        (Certification_failed
           (Printf.sprintf "after %s: %s" stage
              (String.concat "; " (List.map Certify.error_to_string errs))))

(* ------------------------------------------------------------------ *)
(* JSON rendering (machine-readable CLI / CI output)                   *)
(* ------------------------------------------------------------------ *)

module Json = Sxe_util.Json

let loc ~bid ~iid =
  [ ("bid", Json.of_int bid); ("iid", Option.fold ~none:Json.Null ~some:Json.of_int iid) ]

let error_to_json (e : Certify.error) =
  Json.Obj
    ((("func", Json.Str e.Certify.fname) :: loc ~bid:e.Certify.bid ~iid:e.Certify.iid)
    @ [
        ("reg", Json.of_int e.Certify.reg);
        ( "need",
          Json.Str
            (match e.Certify.need with
            | Certify.Needs_extended -> "extended"
            | Certify.Needs_zero_extended -> "zero-extended"
            | Certify.Needs_subscript -> "subscript") );
        ("state", Json.Str (Extstate.describe e.Certify.state));
        ( "witness",
          Json.Arr
            (List.map (fun (bid, iid) -> Json.Obj (loc ~bid ~iid:(Some iid))) e.Certify.witness) );
        ("message", Json.Str (Certify.error_to_string e));
      ])

let errors_to_json errs = Json.to_string (Json.Arr (List.map error_to_json errs))

let finding_to_json (fi : Lint.finding) =
  Json.Obj
    ([
       ("rule", Json.Str fi.Lint.rule);
       ("severity", Json.Str (Lint.severity_to_string fi.Lint.severity));
       ("func", Json.Str fi.Lint.fname);
     ]
    @ loc ~bid:fi.Lint.bid ~iid:fi.Lint.iid
    @ [
        ("idx", Option.fold ~none:Json.Null ~some:Json.of_int fi.Lint.idx);
        ("message", Json.Str fi.Lint.message);
      ])
