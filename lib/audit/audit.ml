(** The static extension-residue auditor.

    After the optimizer has done its best, some extensions survive. This
    pass classifies {e every} one of them — explicit [Sext] and [Zext]
    instructions and the implicit sign extension performed by
    [LSign]-mode 32-bit loads (PPC64 [lwa]) — into one of three
    verdicts:

    - {b provably redundant}: a witness chain names the Theorem 1–4
      fact that makes the extension a no-op (the defining instruction
      always extends, the value range proves non-negativity or fits the
      operand-width window, extension state flows from every
      predecessor) — or nothing downstream demands the bits it writes
      (deleting it recertifies). These are optimizer misses.
    - {b necessary}: the range/extension-state lattice exhibits a
      concrete reason the extension does work — a truncated 64-bit
      value, a load of the other kind that can deliver a negative value,
      a range proving the operand lies outside the width window.
    - {b unknown}: range-hostile. Neither proof succeeds; these are
      speculation candidates.

    The auditor is self-verifying: every provably-redundant finding is
    checked by deleting the extension from a clone and pushing the
    patched program through the extension-state certifier and the
    differential execution oracle. A finding that fails verification is
    an {e auditor} bug and hard-fails the run ({!Verification_failed}).

    Soundness of the deletion experiments rests on two facts. A [W32]
    [Sext] or [Zext] never changes the low 32 bits of its register, so
    deleting one is behaviour-preserving exactly when no observer of
    the upper bits is hurt — which is precisely what recertification of
    the patched function proves (every upper-bit observer is in the
    certifier's demand set, sign- and zero-demanding alike). A
    [W8]/[W16] extension {e does} rewrite the low bits unless the
    operand lies inside {!Types.window}, so those deletions additionally
    require the range proof. *)

open Sxe_ir
module Certify = Sxe_check.Certify
module Lint = Sxe_check.Lint
module Extstate = Sxe_check.Extstate
module Range = Sxe_analysis.Range
module Summary = Sxe_analysis.Summary

type fact =
  | Def_extended
      (** the defining instruction always produces the required
          extension — sign or zero (Theorem 1) *)
  | Flow_extended
      (** extension state of the required kind flows in from every
          predecessor (fixpoint) *)
  | Range_nonneg
      (** the value range proves the operand non-negative (Theorem 2);
          for a [Zext] this is the sext→zext conversion fact: a
          sign-extended non-negative value already has zero upper
          bits *)
  | Range_window
      (** the value range fits the sub-32-bit operand window (signed
          for [Sext], unsigned for [Zext]), making the truncating
          extension the identity on the low bits *)
  | Dead_upper
      (** nothing reachable demands the bits the extension writes: the
          patched function recertifies without it *)

let fact_to_string = function
  | Def_extended -> "defining instruction always produces this extension"
  | Flow_extended -> "extension state flows from every predecessor"
  | Range_nonneg -> "value range proves the operand non-negative"
  | Range_window -> "value range fits the operand-width window"
  | Dead_upper -> "no reachable use demands the extended bits"

type verdict =
  | Redundant of { fact : fact; witness : (int * int) list }
  | Necessary of { reason : string }
  | Unknown of { reason : string }

type kind =
  | Explicit of Types.ekind * Types.width
      (** a [Sext] ([Sign]) or [Zext] ([Zero]) instruction *)
  | Load_implied
      (** the implicit extension of a 32-bit [LSign] load ([ArrLoad]
          [AI32] or [GLoad I32]); sub-32-bit [LSign] loads are not
          audited because flipping them to [LZero] changes low bits *)

type site = {
  fname : string;
  bid : int;
  iid : int;
  idx : int option;  (** instruction index within the block body *)
  reg : Instr.reg;
  kind : kind;
  verdict : verdict;
}

let verdict_to_string = function
  | Redundant { fact; witness } ->
      Printf.sprintf "redundant (%s%s)" (fact_to_string fact)
        (match witness with
        | [] -> ""
        | w ->
            "; witness "
            ^ String.concat " <- "
                (List.map (fun (b, i) -> Printf.sprintf "B%d:i%d" b i) w))
  | Necessary { reason } -> "necessary (" ^ reason ^ ")"
  | Unknown { reason } -> "unknown (" ^ reason ^ ")"

let site_loc (s : site) =
  Printf.sprintf "%s B%d i%d%s" s.fname s.bid s.iid
    (match s.idx with Some k -> Printf.sprintf "#%d" k | None -> "")

let site_to_string (s : site) =
  let kind =
    match s.kind with
    | Explicit (k, w) -> Types.string_of_ekind k ^ Types.string_of_width w
    | Load_implied -> "load-sext"
  in
  Printf.sprintf "%s: %s r%d: %s" (site_loc s) kind s.reg
    (verdict_to_string s.verdict)

(* ------------------------------------------------------------------ *)
(* Patching                                                            *)
(* ------------------------------------------------------------------ *)

(** Apply the deletion a redundancy claim is about to [f] (which must
    hold an instruction with the site's [iid] — clones preserve ids).
    Explicit extensions are removed; [LSign] loads flip to [LZero],
    which leaves their low 32 bits untouched. *)
let apply_patch (f : Cfg.func) (s : site) =
  let b, i = Cfg.find_instr f s.iid in
  match s.kind with
  | Explicit _ -> ignore (Cfg.remove_instr b s.iid)
  | Load_implied -> (
      match i.Instr.op with
      | Instr.ArrLoad { dst; arr; idx; elem; lext = Types.LSign } ->
          Cfg.set_op b i
            (Instr.ArrLoad { dst; arr; idx; elem; lext = Types.LZero })
      | Instr.GLoad { dst; sym; ty; lext = Types.LSign } ->
          Cfg.set_op b i (Instr.GLoad { dst; sym; ty; lext = Types.LZero })
      | _ -> invalid_arg "Audit.apply_patch: not a sign-extending load")

(** Certification errors of a clone of [f] with the site's extension
    deleted — the static half of a deletion experiment. *)
let recertify_without ?maxlen ?call_ranges (f : Cfg.func) (s : site) :
    Certify.error list =
  let g = Clone.clone_func f in
  apply_patch g s;
  Certify.certify ?maxlen ?call_ranges g

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let other = function Types.Sign -> Types.Zero | Types.Zero -> Types.Sign

(** What the auditor's rules say differently for the two extension
    kinds. *)
type rules = {
  fact : Extstate.t -> bool;
      (** the [W32] fact a [kind] extension establishes: [ext] / [zup] *)
  def : Instr.op -> bool;
      (** the defining instructions that always establish [fact] *)
  converts : bool;
      (** [Zext] only: a sign-extended non-negative operand already has
          zero upper bits (the sext→zext conversion fact) *)
  name : string;  (** as in "sign-extended" *)
  ones : string;  (** why a negative operand defeats this kind *)
  cleans : string;
  truncating : string;
  window : string;  (** names [Types.window kind] *)
}

let rules = function
  | Types.Sign ->
      {
        fact = (fun s -> s.Extstate.ext);
        def = Instr.def_always_extended;
        converts = false;
        name = "sign";
        ones = "";
        cleans = "cleans";
        truncating = "extension";
        window = "";
      }
  | Types.Zero ->
      {
        fact = (fun s -> s.Extstate.zup);
        def = Instr.def_upper_zero;
        converts = true;
        name = "zero";
        ones = ", so the upper bits can be ones";
        cleans = "clears";
        truncating = "zero extension";
        window = "unsigned ";
      }

(** The op at the far end of a witness chain (the origin definition),
    if the chain is non-empty and the id still resolves in [f]. *)
let origin_op (f : Cfg.func) (witness : (int * int) list) : Instr.op option =
  match List.rev witness with
  | [] -> None
  | (_, oiid) :: _ -> (
      match Cfg.find_instr f oiid with
      | _, i -> Some i.Instr.op
      | exception Not_found -> None)

let demanded_at (e : Certify.error) =
  Certify.loc_to_string ~bid:e.Certify.bid ~iid:e.Certify.iid

(** The deletion experiment, for a site no proof covers: the site is
    [kept]-redundant when its function still certifies without it, and
    [demanded] names the verdict for the first certification error
    otherwise. Skipped, as unknown, when the function does not certify
    as-is. *)
let experiment ?maxlen ?call_ranges ~clean (f : Cfg.func) (mk : verdict -> site)
    ~skipped ~kept demanded : site =
  if not clean then mk (Unknown { reason = skipped })
  else
    match recertify_without ?maxlen ?call_ranges f (mk (Unknown { reason = "" })) with
    | [] -> mk (Redundant { fact = kept; witness = [] })
    | e :: _ -> mk (demanded e)

(** Classify one explicit extension of [kind] from [w] bits.

    At [W32] the extension is the identity when the certifier proves its
    fact on the operand — for [Zext] also when the operand is
    sign-extended and provably non-negative; otherwise a deletion
    experiment decides whether anything demands the upper bits it
    writes, and a failed one looks for a concrete reason.

    At [W8]/[W16] the range decides the low bits: the extension keeps
    them exactly when the operand lies in [Types.window kind w]. The
    upper bits are then clean when the kind's [W32] fact holds, and a
    deletion experiment decides otherwise. *)
let classify_ext ?maxlen ?call_ranges ~sol ~rng ~clean (f : Cfg.func) ~bid ~iid
    ~(st : Extstate.t) ~kind ~w r (mk : verdict -> site) : site =
  let k = rules kind and o = rules (other kind) in
  let lo, hi = Range.before (Lazy.force rng) ~bid ~iid r in
  let experiment = experiment ?maxlen ?call_ranges ~clean f mk in
  let witness (p : rules) =
    Certify.witness sol ~bid ~stop:(Some iid) r ~fact:(fun s -> not (p.fact s))
  in
  if w = Types.W32 then
    if k.fact st then
      (* The extension is the identity: its operand is already extended.
         Name the fact. The polarity flip follows extended-origin paths
         (see {!Certify.witness}). *)
      let wit = witness k in
      let fact =
        match origin_op f wit with
        | Some op when k.def op -> Def_extended
        | _ when lo >= 0L -> Range_nonneg
        | _ -> Flow_extended
      in
      mk (Redundant { fact; witness = wit })
    else if k.converts && o.fact st && lo >= 0L then
      (* The witness chain names the sign-extension proof. *)
      mk (Redundant { fact = Range_nonneg; witness = witness o })
    else
      experiment ~skipped:"function does not certify as-is; deletion experiment skipped"
        ~kept:Dead_upper (fun e ->
          let demanded = "demanded at " ^ demanded_at e in
          match origin_op f e.Certify.witness with
          | Some (Instr.Mov { src; ty = Types.I32; _ })
            when Cfg.reg_ty f src = Types.I64 ->
              Necessary
                {
                  reason =
                    demanded
                    ^ "; the operand truncates a 64-bit value (l2i), so its \
                       upper bits are garbage without the extension";
                }
          | Some
              ( Instr.ArrLoad { elem = Types.AI32; lext; _ }
              | Instr.GLoad { ty = Types.I32; lext; _ } )
            when lext = Types.lext_of_ekind (other kind) && lo < 0L ->
              Necessary
                {
                  reason =
                    demanded
                    ^ Printf.sprintf
                        "; a %s-extending 32-bit load can deliver a negative \
                         value (range [%Ld,%Ld])%s"
                        o.name lo hi k.ones;
                }
          | _ when o.fact st && lo < 0L ->
              Necessary
                {
                  reason =
                    demanded
                    ^ Printf.sprintf
                        "; the operand is %s-extended but its range [%Ld,%Ld] \
                         admits negative values%s"
                        o.name lo hi k.ones;
                }
          | _ ->
              Unknown
                {
                  reason =
                    demanded
                    ^ Printf.sprintf
                        "; range [%Ld,%Ld] is inconclusive — speculation \
                         candidate"
                        lo hi;
                })
  else
    let wlo, whi = Types.window kind w in
    if lo >= wlo && hi <= whi then
      if k.fact st then mk (Redundant { fact = Range_window; witness = [] })
      else
        experiment
          ~skipped:
            "operand fits the window but the function does not certify; \
             deletion experiment skipped"
          ~kept:Range_window (fun e ->
            Necessary
              {
                reason =
                  Printf.sprintf
                    "upper bits are demanded at %s and only this extension %s \
                     them"
                    (demanded_at e) k.cleans;
              })
    else if hi < wlo || lo > whi then
      mk
        (Necessary
           {
             reason =
               Printf.sprintf
                 "every value in range [%Ld,%Ld] lies outside [%Ld,%Ld]; the \
                  truncating %s rewrites the low bits (e.g. %Ld)"
                 lo hi wlo whi k.truncating lo;
           })
    else
      mk
        (Unknown
           {
             reason =
               Printf.sprintf
                 "range [%Ld,%Ld] straddles the %sW%s window — speculation \
                  candidate"
                 lo hi k.window (Types.string_of_width w);
           })

(** Classify the implicit extension of a 32-bit [LSign] load: flipping
    it to [LZero] keeps the low 32 bits, so the flip is sound when the
    loaded value is provably non-negative or nothing demands the sign
    bits. *)
let classify_load ?maxlen ?call_ranges ~rng ~clean (f : Cfg.func) ~bid ~iid dst
    (mk : verdict -> site) : site =
  let lo, _ = Range.after (Lazy.force rng) ~bid ~iid dst in
  if lo >= 0L then mk (Redundant { fact = Range_nonneg; witness = [] })
  else
    experiment ?maxlen ?call_ranges ~clean f mk
      ~skipped:"function does not certify as-is; load-flip experiment skipped"
      ~kept:Dead_upper (fun e ->
        Necessary
          {
            reason =
              "the sign extension this load performs is demanded at "
              ^ demanded_at e;
          })

(** Audit one function against an already-solved certification
    instance. [call_ranges] feeds interprocedural return-range
    summaries to the value-range analysis; [assume_redundant] forces a
    redundant verdict at matching sites (a test hook for exercising the
    self-verification hard-fail path, in the spirit of the fuzzer's
    fault injection). *)
let audit_func_solved ?maxlen ?call_ranges ?assume_redundant
    (sol : Certify.solution) (f : Cfg.func) : site list =
  let clean = Certify.errors_of_solution sol = [] in
  let rng = lazy (Range.compute ?call_ranges f) in
  let sites = ref [] in
  Certify.scan sol (fun ~bid ~state item ->
      match item with
      | `T _ -> ()
      | `I { Instr.iid; op } -> (
          let mk kind reg verdict =
            let verdict =
              match assume_redundant with
              | Some p when p ~fname:f.Cfg.name ~bid ~iid ->
                  Redundant { fact = Dead_upper; witness = [] }
              | _ -> verdict
            in
            {
              fname = f.Cfg.name;
              bid;
              iid;
              idx = Lint.instr_index f ~bid ~iid:(Some iid);
              reg;
              kind;
              verdict;
            }
          in
          let add site = sites := site :: !sites in
          match (Instr.ext_kind op, op) with
          | Some (kind, r, ((Types.W8 | Types.W16 | Types.W32) as w)), _ ->
              add
                (classify_ext ?maxlen ?call_ranges ~sol ~rng ~clean f ~bid ~iid
                   ~st:(state r) ~kind ~w r
                   (mk (Explicit (kind, w)) r))
          | ( None,
              ( Instr.ArrLoad { dst; elem = Types.AI32; lext = Types.LSign; _ }
              | Instr.GLoad { dst; ty = Types.I32; lext = Types.LSign; _ } ) ) ->
              add
                (classify_load ?maxlen ?call_ranges ~rng ~clean f ~bid ~iid dst
                   (mk Load_implied dst))
          | _ -> ()));
  List.rev !sites

let audit_func ?maxlen ?call_ranges ?assume_redundant (f : Cfg.func) :
    site list =
  audit_func_solved ?maxlen ?call_ranges ?assume_redundant
    (Certify.solve ?maxlen ?call_ranges f) f

(* ------------------------------------------------------------------ *)
(* Self-verification                                                   *)
(* ------------------------------------------------------------------ *)

exception Verification_failed of string

type verification = {
  attempted : int;  (** provably-redundant findings checked *)
  co_deleted : int;
      (** findings whose deletions compose: all were applied to one
          clone, which recertified and ran clean *)
  interacting : int;
      (** findings excluded from the combined patch because another
          deletion invalidated the fact they rest on (e.g. a chain of
          extensions over one register); each was verified in
          isolation, which is what the per-site claim means *)
}

let is_redundant (s : site) =
  match s.verdict with Redundant _ -> true | _ -> false

(** Dynamically verify one patched program against the faithful outcome
    of the unpatched one. [None] = clean. *)
let dynamic_failure ~fuel ~label ~ref_ (q : Prog.t) : string option =
  match Sxe_fuzz.Oracle.verify_patch ~fuel ~variant:label ~ref_ q with
  | Some out, [] ->
      let more what fv rv =
        if
          (not (Sxe_fuzz.Oracle.fuel_exhausted out))
          && (not (Sxe_fuzz.Oracle.fuel_exhausted ref_))
          && Int64.compare fv rv > 0
        then
          Some
            (Printf.sprintf
               "patched program executed more 32-bit %s extensions than the \
                original (%Ld > %Ld)"
               what fv rv)
        else None
      in
      let out_s = out.Sxe_vm.Interp.sext32 and ref_s = ref_.Sxe_vm.Interp.sext32 in
      let out_z = out.Sxe_vm.Interp.zext32 and ref_z = ref_.Sxe_vm.Interp.zext32 in
      (match more "sign" out_s ref_s with
      | Some _ as d -> d
      | None -> more "zero" out_z ref_z)
  | _, fs ->
      Some
        (String.concat "; "
           (List.map
              (fun fl -> Format.asprintf "%a" Sxe_fuzz.Oracle.pp_failure fl)
              fs))

(** Verify every provably-redundant finding by construction:

    1. Greedily compose deletions per function, keeping each patch only
       if the function still recertifies with it added — a deletion
       that stops composing (its fact rested on an extension another
       patch removed) is set aside, {e not} failed: the per-site claim
       is about deleting that extension alone.
    2. Run the combined patched program through the differential oracle
       against the unpatched original. Any divergence is attributed to
       a single finding by re-verifying individually.
    3. Verify each set-aside finding in isolation (static + dynamic).

    Any individually-failing finding raises {!Verification_failed}:
    the auditor called an extension redundant that is not. *)
let verify_redundant ?maxlen ?(fuel = Sxe_fuzz.Oracle.default_fuel)
    (p : Prog.t) (red : site list) : verification =
  let attempted = List.length red in
  if attempted = 0 then { attempted = 0; co_deleted = 0; interacting = 0 }
  else begin
    (* the same interprocedural summaries the classification certified
       with — patches never change return ranges (extensions are
       no-ops on the values the summaries speak about) *)
    let call_ranges = Summary.call_ranges (Summary.compute p) in
    let ref_, engine =
      Sxe_fuzz.Oracle.engine_cross ~fuel ~mode:`Faithful (Clone.clone_prog p)
    in
    (match engine with
    | Some d ->
        raise
          (Verification_failed
             ("engine divergence on the unpatched program (VM bug): " ^ d))
    | None -> ());
    (* Greedy static composition, per function, linear in findings:
       keep a running patched clone of each function and test each new
       deletion on a throwaway clone of it. *)
    let patched : (string, Cfg.func) Hashtbl.t = Hashtbl.create 8 in
    let kept, excluded =
      List.fold_left
        (fun (kept, excluded) s ->
          let base =
            match Hashtbl.find_opt patched s.fname with
            | Some g -> g
            | None -> Prog.find_func p s.fname
          in
          let g = Clone.clone_func base in
          apply_patch g s;
          match Certify.certify ?maxlen ~call_ranges g with
          | [] ->
              Hashtbl.replace patched s.fname g;
              (s :: kept, excluded)
          | _ :: _ -> (kept, s :: excluded))
        ([], []) red
    in
    let kept = List.rev kept and excluded = List.rev excluded in
    let individually_verify (s : site) =
      let q = Clone.clone_prog p in
      apply_patch (Prog.find_func q s.fname) s;
      let static = Certify.certify ?maxlen ~call_ranges (Prog.find_func q s.fname) in
      let static_detail =
        match static with
        | [] -> None
        | errs ->
            Some
              ("patched function no longer certifies: "
              ^ String.concat "; " (List.map Certify.error_to_string errs))
      in
      let detail =
        match static_detail with
        | Some _ as d -> d
        | None -> dynamic_failure ~fuel ~label:("patched:" ^ site_loc s) ~ref_ q
      in
      match detail with
      | None -> ()
      | Some d ->
          raise
            (Verification_failed
               (Printf.sprintf
                  "auditor bug: %s was classified provably-redundant, but \
                   deleting it changes behaviour (%s)"
                  (site_loc s) d))
    in
    (* Combined dynamic run over the composed subset. *)
    (if kept <> [] then
       let q = Clone.clone_prog p in
       List.iter (fun s -> apply_patch (Prog.find_func q s.fname) s) kept;
       match dynamic_failure ~fuel ~label:"patched(all)" ~ref_ q with
       | None -> ()
       | Some combined ->
           (* Attribute: some single finding must fail on its own (the
              composed subset recertified, so a divergence here means at
              least one deletion is behaviourally wrong). *)
           List.iter individually_verify kept;
           raise
             (Verification_failed
                (Printf.sprintf
                   "auditor bug: combined patch of %d finding(s) diverges \
                    (%s) though each individual patch verifies — deletion \
                    interaction the static composition failed to reject"
                   (List.length kept) combined)));
    List.iter individually_verify excluded;
    {
      attempted;
      co_deleted = List.length kept;
      interacting = List.length excluded;
    }
  end

(* ------------------------------------------------------------------ *)
(* Whole-program driver                                                *)
(* ------------------------------------------------------------------ *)

(** Audit a fully optimized program: build interprocedural return-range
    summaries once, classify every residual extension in every
    function, then (unless [verify:false]) prove each redundancy claim
    by deletion + differential execution. Deterministic: functions in
    name order, blocks in reverse postorder. *)
let audit_prog ?maxlen ?fuel ?(verify = true) ?rounds ?assume_redundant
    (p : Prog.t) : site list * verification option =
  let summ = Summary.compute ?rounds p in
  let call_ranges = Summary.call_ranges summ in
  let sites =
    List.rev
      (Prog.fold_funcs
         (fun acc f ->
           List.rev_append
             (audit_func ?maxlen ~call_ranges ?assume_redundant f)
             acc)
         [] p)
  in
  let verification =
    if verify then
      Some (verify_redundant ?maxlen ?fuel p (List.filter is_redundant sites))
    else None
  in
  (sites, verification)

(* ------------------------------------------------------------------ *)
(* Lint integration                                                    *)
(* ------------------------------------------------------------------ *)

let rule_redundant = "audit-redundant-ext"
let rule_speculation = "audit-speculation-candidate"

(* Lint runs every rule over one (solution, function) in turn, so the
   two audit rules share one classification: each domain keeps the last
   one it computed. Lint matrices run on pool domains; nothing is
   shared between them. *)
let last_classified = Domain.DLS.new_key (fun () -> None)

let classify_once sol f =
  match Domain.DLS.get last_classified with
  | Some (sol', f', sites) when sol' == sol && f' == f -> sites
  | _ ->
      let sites = audit_func_solved sol f in
      Domain.DLS.set last_classified (Some (sol, f, sites));
      sites

let lint_rule name severity doc message : Lint.rule =
  {
    Lint.name;
    doc;
    severity;
    check =
      (fun sol f ->
        List.filter_map
          (fun s ->
            Option.map
              (fun message ->
                { Lint.rule = name; severity; fname = s.fname; bid = s.bid;
                  iid = Some s.iid; idx = s.idx; message })
              (message s))
          (classify_once sol f));
  }

(** The auditor's classifier as lint rules (static only — no deletion
    oracle runs, no interprocedural summaries; the full proof lives in
    [sxopt audit]). *)
let lint_rules : Lint.rule list =
  [
    lint_rule rule_redundant Lint.Warning
      "surviving extension the residue auditor classifies as provably \
       redundant" (fun s ->
        match s.verdict with
        | Redundant { fact; _ } ->
            Some
              (Printf.sprintf "r%d: provably redundant — %s" s.reg
                 (fact_to_string fact))
        | _ -> None);
    lint_rule rule_speculation Lint.Info
      "surviving extension with a range-hostile operand: a speculation \
       candidate" (fun s ->
        match s.verdict with
        | Unknown { reason } -> Some (Printf.sprintf "r%d: %s" s.reg reason)
        | _ -> None);
  ]
