(** The differential oracle.

    A test case is a MiniJ source text or a raw 32-bit-form IR program.
    The oracle derives the reference behaviour by running the case in the
    interpreter's [`Canonical] mode (source-language semantics), then
    compiles a clone under every requested optimizer variant on every
    requested architecture model, runs it in [`Faithful] mode (the 64-bit
    machine where garbage upper bits are observable), and classifies every
    divergence. A sound optimizer produces an empty failure list on every
    case the generators can emit. *)

open Sxe_ir

type case = Minij of string | Ir of Prog.t

type cls =
  | Output  (** printed output differs *)
  | Checksum  (** checksum builtins accumulated a different value *)
  | Trap  (** one side trapped, or trapped differently *)
  | Ret_val  (** [main]'s return value differs *)
  | Invalid  (** the optimized program fails IR validation *)
  | Illformed
      (** an intermediate stage broke IR validation (the detail names
          the stage, so shrinking targets the offending pass) even if a
          later pass repaired the program *)
  | Crash  (** the compiler itself raised *)
  | Cost  (** the full algorithm executed more extensions than baseline *)
  | Engine
      (** the structural and pre-decoded execution engines disagreed on
          the same program — a VM bug, not an optimizer bug *)
  | Certify
      (** static/dynamic verdict divergence: the extension-state
          certifier rejects a variant whose differential run is clean,
          or a dynamic miscompare slipped past certification — either
          direction is a finding *)

let string_of_cls = function
  | Output -> "output"
  | Checksum -> "checksum"
  | Trap -> "trap"
  | Ret_val -> "ret"
  | Invalid -> "invalid-ir"
  | Illformed -> "ill-formed"
  | Crash -> "crash"
  | Cost -> "cost"
  | Engine -> "engine"
  | Certify -> "certify"

type failure = {
  variant : string;
  arch : string;
  cls : cls;
  detail : string;
}

let pp_failure ppf (f : failure) =
  Format.fprintf ppf "[%s/%s] %s: %s" f.variant f.arch (string_of_cls f.cls) f.detail

let default_fuel = 400_000L

(** Raw 32-bit-form IR of a case (shared, do not mutate: clone first). *)
let prog_of_case = function
  | Minij src -> Sxe_lang.Frontend.compile src
  | Ir p -> p

let reference ?(fuel = default_fuel) (base : Prog.t) =
  Sxe_vm.Interp.run ~mode:`Canonical ~fuel ~count_cycles:false (Clone.clone_prog base)

let fuel_exhausted (o : Sxe_vm.Interp.outcome) =
  o.Sxe_vm.Interp.trap = Some "fuel-exhausted"

(** Run [p] under all three execution engines — structural, plain
    pre-decoded ([Fuse.Off]) and pre-decoded with superinstruction
    fusion ([Fuse.All]) — and compare every outcome field — output,
    checksum, trap, return value AND the dynamic counters (executed,
    sext32, sext_sub, zext32, zext_sub, cycles). The engines promise
    bit-identical
    outcomes, so unlike optimizer comparisons this check is exact: even
    a fuel-exhausted run must be truncated at the same instruction, mid
    superinstruction included. Returns the (unfused) precode outcome
    plus a description of the first field that differs, if any. *)
let engine_cross ?(fuel = default_fuel) ~mode (p : Prog.t) :
    Sxe_vm.Interp.outcome * string option =
  let open Sxe_vm.Interp in
  let pre = run ~mode ~fuel ~engine:`Precode ~fuse:Sxe_vm.Fuse.Off p in
  let fused = run ~mode ~fuel ~engine:`Precode ~fuse:Sxe_vm.Fuse.All p in
  let st = run ~mode ~fuel ~engine:`Structural p in
  let cmp aname (a : outcome) bname (b : outcome) =
    if a.trap <> b.trap then
      Some
        (Printf.sprintf "trap: %s=%s, %s=%s" aname
           (Option.value ~default:"none" a.trap)
           bname
           (Option.value ~default:"none" b.trap))
    else if a.output <> b.output then
      Some
        (Printf.sprintf "output: %s %d bytes, %s %d bytes" aname
           (String.length a.output) bname (String.length b.output))
    else if not (Int64.equal a.checksum b.checksum) then
      Some (Printf.sprintf "checksum: %s=%Ld, %s=%Ld" aname a.checksum bname b.checksum)
    else if a.ret <> b.ret then
      Some
        (Printf.sprintf "ret: %s=%s, %s=%s" aname
           (match a.ret with None -> "none" | Some v -> Int64.to_string v)
           bname
           (match b.ret with None -> "none" | Some v -> Int64.to_string v))
    else if not (Int64.equal a.executed b.executed) then
      Some (Printf.sprintf "executed: %s=%Ld, %s=%Ld" aname a.executed bname b.executed)
    else if not (Int64.equal a.sext32 b.sext32) then
      Some (Printf.sprintf "sext32: %s=%Ld, %s=%Ld" aname a.sext32 bname b.sext32)
    else if not (Int64.equal a.sext_sub b.sext_sub) then
      Some (Printf.sprintf "sext_sub: %s=%Ld, %s=%Ld" aname a.sext_sub bname b.sext_sub)
    else if not (Int64.equal a.zext32 b.zext32) then
      Some (Printf.sprintf "zext32: %s=%Ld, %s=%Ld" aname a.zext32 bname b.zext32)
    else if not (Int64.equal a.zext_sub b.zext_sub) then
      Some (Printf.sprintf "zext_sub: %s=%Ld, %s=%Ld" aname a.zext_sub bname b.zext_sub)
    else if not (Int64.equal a.cycles b.cycles) then
      Some (Printf.sprintf "cycles: %s=%Ld, %s=%Ld" aname a.cycles bname b.cycles)
    else None
  in
  let diff =
    match cmp "structural" st "precode" pre with
    | Some _ as d -> d
    | None -> cmp "precode" pre "fused" fused
  in
  (pre, diff)

let classify (ref_ : Sxe_vm.Interp.outcome) (out : Sxe_vm.Interp.outcome) :
    (cls * string) option =
  let open Sxe_vm.Interp in
  (* fuel exhaustion on either side is inconclusive, not a divergence:
     the runs were truncated at different program points, so comparing
     their observations is meaningless. Generated cases terminate by
     construction; only mutated control flow and shrinker candidates can
     loop, and those probes should simply not count. *)
  if fuel_exhausted ref_ || fuel_exhausted out then None
  else if out.trap <> ref_.trap then
    Some
      ( Trap,
        Printf.sprintf "reference trap=%s, variant trap=%s"
          (Option.value ~default:"none" ref_.trap)
          (Option.value ~default:"none" out.trap) )
  else if not (Int64.equal out.checksum ref_.checksum) then
    Some (Checksum, Printf.sprintf "reference=%Ld, variant=%Ld" ref_.checksum out.checksum)
  else if out.output <> ref_.output then
    Some
      ( Output,
        Printf.sprintf "reference %d bytes, variant %d bytes"
          (String.length ref_.output) (String.length out.output) )
  else if out.ret <> ref_.ret then
    Some
      ( Ret_val,
        Printf.sprintf "reference=%s, variant=%s"
          (match ref_.ret with None -> "none" | Some v -> Int64.to_string v)
          (match out.ret with None -> "none" | Some v -> Int64.to_string v) )
  else None

(** Differentially verify an already-optimized program that was patched
    in place (the residue auditor's self-check: an extension deleted or
    a load's extension mode flipped). No compilation happens here — [p]
    is validated, run faithfully under all three engines (divergence is
    an [Engine] failure), and its outcome classified against [ref_],
    the faithful outcome of the {e unpatched} program. The patch is
    behaviour-preserving iff the failure list is empty. [variant] labels
    the failures (default ["patched"]). *)
let verify_patch ?(fuel = default_fuel) ?(variant = "patched") ~ref_ (p : Prog.t) :
    Sxe_vm.Interp.outcome option * failure list =
  let fail cls detail = { variant; arch = "-"; cls; detail } in
  match Prog.fold_funcs (fun acc f -> acc @ Validate.errors f) [] p with
  | _ :: _ as errs -> (None, [ fail Invalid (String.concat "; " errs) ])
  | [] -> (
      match engine_cross ~fuel ~mode:`Faithful p with
      | exception e -> (None, [ fail Crash (Printexc.to_string e) ])
      | out, Some detail -> (Some out, [ fail Engine detail ])
      | out, None -> (
          match classify ref_ out with
          | Some (cls, detail) -> (Some out, [ fail cls detail ])
          | None -> (Some out, [])))

(** Compile a clone of [base] under [config] — validating the IR after
    every compilation stage, so a pass that transiently breaks
    well-formedness is caught and named even if a later pass repairs the
    program ([Illformed]) — optionally sabotage the result, validate,
    certify with the extension-state verifier, run faithfully under both
    execution engines (divergence between them is an [Engine] failure),
    and compare the outcome against [ref_]. The static and dynamic
    verdicts must agree: a certifier rejection of a differentially clean
    program, or a dynamic miscompare the certifier waved through, is a
    [Certify] failure. *)
let run_variant ?(fuel = default_fuel) ?sabotage ~ref_ (config : Sxe_core.Config.t)
    (base : Prog.t) : Sxe_vm.Interp.outcome option * failure list =
  let variant = config.Sxe_core.Config.name in
  let arch = config.Sxe_core.Config.arch.Sxe_core.Arch.name in
  let fail cls detail = { variant; arch; cls; detail } in
  let staged = ref [] in
  let stage_check ~stage f =
    match Validate.errors f with
    | [] -> ()
    | errs ->
        if not (List.exists (fun (fl : failure) -> fl.cls = Illformed) !staged) then
          staged :=
            fail Illformed
              (Printf.sprintf "after %s: %s" stage (String.concat "; " errs))
            :: !staged
  in
  match
    let p = Clone.clone_prog base in
    let _ = Sxe_core.Pass.compile ~stage_check config p in
    (match sabotage with Some f -> f p | None -> ());
    p
  with
  | exception e -> (None, !staged @ [ fail Crash (Printexc.to_string e) ])
  | p -> (
      let staged = !staged in
      let errs = Prog.fold_funcs (fun acc f -> acc @ Validate.errors f) [] p in
      match errs with
      | _ :: _ -> (None, staged @ [ fail Invalid (String.concat "; " errs) ])
      | [] -> (
          let static_errs =
            match Sxe_check.Check.certify_prog p with
            | errs -> List.map Sxe_check.Certify.error_to_string errs
            | exception e ->
                [ "certifier raised: " ^ Printexc.to_string e ]
          in
          match engine_cross ~fuel ~mode:`Faithful p with
          | exception e -> (None, staged @ [ fail Crash (Printexc.to_string e) ])
          | out, Some detail -> (Some out, staged @ [ fail Engine detail ])
          | out, None -> (
              match (classify ref_ out, static_errs) with
              | Some (cls, detail), [] ->
                  ( Some out,
                    staged
                    @ [
                        fail cls detail;
                        fail Certify
                          (Printf.sprintf
                             "dynamic %s divergence but certification passed"
                             (string_of_cls cls));
                      ] )
              | Some (cls, detail), _ :: _ ->
                  (* both verdicts agree the variant is broken: the
                     dynamic class is the actionable one *)
                  (Some out, staged @ [ fail cls detail ])
              | None, (_ :: _ as es) ->
                  ( Some out,
                    staged
                    @ [
                        fail Certify
                          ("statically rejected, differential run clean: "
                          ^ String.concat "; " es);
                      ] )
              | None, [] -> (Some out, staged))))

(** Run the full oracle over one case. [variants] overrides the variant
    list builder (used by the shrinker to re-check just the failing
    configuration); [sabotage] injects a bug after every variant's
    pipeline. The cost check (full algorithm must not execute more 32-bit
    extensions than baseline) runs when [check_cost] holds and both
    configurations are present in the variant list. It defaults to MiniJ
    cases only: the paper's dynamic-cost claim is about compiler-shaped
    input (extensions introduced by step 1 from well-typed source), not
    arbitrary hand-built CFGs, where the insertion heuristics can
    occasionally place an extension on a hotter edge. *)
let check ?(fuel = default_fuel) ?(archs = [ Sxe_core.Arch.ia64 ])
    ?(variants = fun arch -> Sxe_core.Config.all ~arch ()) ?sabotage ?check_cost (case : case)
    : failure list =
  let check_cost =
    match check_cost with
    | Some b -> b
    | None -> ( match case with Minij _ -> true | Ir _ -> false)
  in
  match prog_of_case case with
  | exception e ->
      [ { variant = "frontend"; arch = "-"; cls = Crash; detail = Printexc.to_string e } ]
  | base -> (
      (* The reference run is itself engine-cross-checked: canonical mode
         exercises the pre-decoded engine's baked-in re-extension. *)
      match engine_cross ~fuel ~mode:`Canonical (Clone.clone_prog base) with
      | exception e ->
          [ { variant = "reference"; arch = "-"; cls = Crash; detail = Printexc.to_string e } ]
      | ref_, ref_engine ->
          let ref_engine_failures =
            match ref_engine with
            | Some detail -> [ { variant = "reference"; arch = "-"; cls = Engine; detail } ]
            | None -> []
          in
          ref_engine_failures
          @ List.concat_map
            (fun arch ->
              let outcomes = Hashtbl.create 16 in
              let failures =
                List.concat_map
                  (fun (config : Sxe_core.Config.t) ->
                    let out, failures =
                      run_variant ~fuel ?sabotage ~ref_ config base
                    in
                    Option.iter
                      (fun o -> Hashtbl.replace outcomes config.Sxe_core.Config.name o)
                      out;
                    failures)
                  (variants arch)
              in
              let cost_failures =
                let find n = Hashtbl.find_opt outcomes n in
                if not check_cost then []
                else
                  match
                  ( find (Sxe_core.Config.baseline ()).Sxe_core.Config.name,
                    find (Sxe_core.Config.new_all ()).Sxe_core.Config.name )
                with
                | Some b, Some full
                  when b.Sxe_vm.Interp.trap = None && full.Sxe_vm.Interp.trap = None
                  ->
                    let regression kind fv bv =
                      if Int64.compare fv bv > 0 then
                        [
                          {
                            variant =
                              (Sxe_core.Config.new_all ()).Sxe_core.Config.name;
                            arch = arch.Sxe_core.Arch.name;
                            cls = Cost;
                            detail =
                              Printf.sprintf
                                "full algorithm executed %Ld %s, baseline %Ld" fv
                                kind bv;
                          };
                        ]
                      else []
                    in
                    regression "sext32" full.Sxe_vm.Interp.sext32
                      b.Sxe_vm.Interp.sext32
                    @ regression "zext32" full.Sxe_vm.Interp.zext32
                        b.Sxe_vm.Interp.zext32
                | _ -> []
              in
              failures @ cost_failures)
            archs)
