(** Fuzzing campaigns: generate → (optionally mutate) → oracle → shrink →
    persist, plus corpus replay. This is the engine behind both the
    [sxopt fuzz] subcommand and the property-test suites. *)

open Sxe_ir

type kind = Minij_case | Ir_case | Mutated_case

let string_of_kind = function
  | Minij_case -> "minij"
  | Ir_case -> "ir"
  | Mutated_case -> "mutated-ir"

type failure_report = {
  index : int;  (** case number within the campaign *)
  case_seed : int;  (** derived seed reproducing the case *)
  kind : kind;
  failures : Oracle.failure list;  (** as classified on the original case *)
  shrunk : Prog.t option;  (** minimized IR form, when shrinking applied *)
  saved : string option;  (** corpus path, when persisted *)
}

type report = {
  cases : int;
  minij_cases : int;
  ir_cases : int;
  mutated_cases : int;
  failures : failure_report list;
}

type options = {
  seed : int;
  count : int;
  mutations : int;  (** mutations per IR case; 0 disables the mutation stage *)
  kinds : kind list;  (** case kinds to draw from, round-robin by weight *)
  archs : Sxe_core.Arch.t list;
  fuel : int64;
  features : Gen_minij.features;
  ir_features : Gen_ir.features;
  size : int;  (** MiniJ size knob *)
  nregs : int;
  nblocks : int;
  corpus_dir : string option;  (** persist minimized failures here *)
  sabotage : Inject.bug option;  (** deliberate bug, for harness self-test *)
  shrink : bool;
  log : string -> unit;  (** progress sink (e.g. [print_endline] or [ignore]) *)
  jobs : int;
      (** worker domains for the campaign; cases are evaluated (and their
          failures shrunk) in parallel but logged, persisted and reported
          in case order, so output is byte-identical to [jobs = 1] *)
}

let default_options =
  {
    seed = 0;
    count = 100;
    mutations = 2;
    kinds = [ Minij_case; Ir_case; Mutated_case ];
    archs = [ Sxe_core.Arch.ia64 ];
    fuel = Oracle.default_fuel;
    features = Gen_minij.all_features;
    ir_features = Gen_ir.all_features;
    size = 6;
    nregs = 5;
    nblocks = 6;
    corpus_dir = None;
    sabotage = None;
    shrink = true;
    log = ignore;
    jobs = 1;
  }

let sabotage_fn (o : options) =
  Option.map (fun bug p -> Inject.apply bug p) o.sabotage

(** Build case [i] of the campaign. Deterministic in [(o.seed, i)]. *)
let case_of_index (o : options) i : kind * Oracle.case =
  let rng = Rng.create ~seed:(Rng.case_seed ~seed:o.seed i) in
  let kind =
    match o.kinds with [] -> invalid_arg "Driver: no case kinds" | ks -> Rng.oneof rng ks
  in
  let case =
    match kind with
    | Minij_case -> Oracle.Minij (Gen_minij.generate ~features:o.features ~size:o.size rng)
    | Ir_case ->
        Oracle.Ir
          (Gen_ir.wrap
             (Gen_ir.generate ~features:o.ir_features ~nregs:o.nregs ~nblocks:o.nblocks rng))
    | Mutated_case ->
        let f =
          Gen_ir.generate ~features:o.ir_features ~nregs:o.nregs ~nblocks:o.nblocks rng
        in
        let applied = Mutate.mutate_n rng o.mutations f in
        ignore applied;
        Validate.check f;
        Oracle.Ir (Gen_ir.wrap f)
  in
  (kind, case)

(** Shrink a failing case against a single witness: the first reported
    failure's (variant, arch) pair — re-checking all failing variants per
    candidate move would multiply the shrinker's cost for no extra
    minimality. *)
let shrink_failure (o : options) (case : Oracle.case) (failures : Oracle.failure list) :
    Prog.t =
  let base =
    match case with
    | Oracle.Ir p -> p
    | Oracle.Minij src -> Sxe_lang.Frontend.compile src
  in
  let witness =
    match List.find_opt (fun (f : Oracle.failure) -> f.cls <> Oracle.Cost) failures with
    | Some f -> f
    | None -> List.hd failures
  in
  let archs =
    match
      List.find_opt (fun (a : Sxe_core.Arch.t) -> a.name = witness.arch) o.archs
    with
    | Some a -> [ a ]
    | None -> [ List.hd o.archs ]
  in
  let variants arch =
    List.filter
      (fun (c : Sxe_core.Config.t) ->
        c.Sxe_core.Config.name = witness.variant
        || (* cost failures need both endpoints present *)
        witness.cls = Oracle.Cost
           && c.Sxe_core.Config.name = (Sxe_core.Config.baseline ()).Sxe_core.Config.name)
      (Sxe_core.Config.all ~arch ())
  in
  (* Shrink with just enough fuel for the original failure: candidate
     moves that create infinite loops would otherwise burn the full fuel
     budget on every probe (the oracle classifies fuel exhaustion as
     inconclusive, so such candidates are merely slow, never accepted). *)
  let ref_out = Oracle.reference ~fuel:o.fuel base in
  let shrink_fuel =
    let padded = Int64.add (Int64.mul ref_out.Sxe_vm.Interp.executed 4L) 20_000L in
    if Int64.compare padded o.fuel < 0 then padded else o.fuel
  in
  let keep p =
    List.exists
      (fun (f : Oracle.failure) -> f.cls = witness.cls)
      (Oracle.check ~fuel:shrink_fuel ~archs ~variants ?sabotage:(sabotage_fn o)
         ~check_cost:(witness.cls = Oracle.Cost) (Oracle.Ir p))
  in
  if keep base then Shrink.minimize ~fuel:shrink_fuel ~keep base else base

(** Worker-side outcome of one case: everything deterministic in
    [(o.seed, i)], computed without touching shared state. Shrinking of a
    failure happens here, in the worker that found it. *)
type case_outcome = {
  co_kind : kind;
  co_failing : (Oracle.case * Oracle.failure list * Prog.t option) option;
}

let eval_case (o : options) i : case_outcome =
  let kind, case = case_of_index o i in
  match Oracle.check ~fuel:o.fuel ~archs:o.archs ?sabotage:(sabotage_fn o) case with
  | [] -> { co_kind = kind; co_failing = None }
  | fs ->
      let shrunk = if o.shrink then Some (shrink_failure o case fs) else None in
      { co_kind = kind; co_failing = Some (case, fs, shrunk) }

(** Run a campaign. Cases are evaluated across [o.jobs] domains; outcomes
    are consumed on the calling domain in case order, so the log stream,
    the corpus writes and the report are identical whatever [o.jobs]. *)
let run (o : options) : report =
  let minij = ref 0 and ir = ref 0 and mutated = ref 0 in
  let failures = ref [] in
  let consume i (co : case_outcome) =
    (match co.co_kind with
    | Minij_case -> incr minij
    | Ir_case -> incr ir
    | Mutated_case -> incr mutated);
    match co.co_failing with
    | None ->
        if (i + 1) mod 50 = 0 then
          o.log (Printf.sprintf "%d/%d cases, no divergence" (i + 1) o.count)
    | Some (case, fs, shrunk) ->
        o.log
          (Printf.sprintf "case %d (%s, seed %d): %d divergence(s), shrinking..." i
             (string_of_kind co.co_kind) (Rng.case_seed ~seed:o.seed i) (List.length fs));
        let saved =
          match (o.corpus_dir, shrunk) with
          | Some dir, Some p ->
              let name = Printf.sprintf "fail-seed%d-case%03d" o.seed i in
              let header =
                Printf.sprintf "campaign seed %d, case %d (%s)" o.seed i
                  (string_of_kind co.co_kind)
                :: List.map
                     (fun f -> Format.asprintf "%a" Oracle.pp_failure f)
                     fs
              in
              Some (Corpus.save ~dir ~name ~header (Oracle.Ir p))
          | Some dir, None ->
              let name = Printf.sprintf "fail-seed%d-case%03d" o.seed i in
              Some (Corpus.save ~dir ~name case)
          | None, _ -> None
        in
        failures :=
          {
            index = i;
            case_seed = Rng.case_seed ~seed:o.seed i;
            kind = co.co_kind;
            failures = fs;
            shrunk;
            saved;
          }
          :: !failures
  in
  Sxe_par.Pool.with_pool ~jobs:o.jobs (fun pool ->
      Sxe_par.Pool.consume_map pool (eval_case o) ~consume
        (List.init o.count Fun.id));
  {
    cases = o.count;
    minij_cases = !minij;
    ir_cases = !ir;
    mutated_cases = !mutated;
    failures = List.rev !failures;
  }

(** Replay every corpus entry as a regression set; returns the entries
    that (still) fail, in directory order. *)
let replay ?(fuel = Oracle.default_fuel) ?(archs = [ Sxe_core.Arch.ia64 ]) ?sabotage
    ?(jobs = 1) dir : (string * Oracle.failure list) list =
  let entries = Corpus.load_dir dir in
  Sxe_par.Pool.with_pool ~jobs (fun pool ->
      Sxe_par.Pool.map pool
        (fun (name, case) -> (name, Oracle.check ~fuel ~archs ?sabotage case))
        entries)
  |> List.filter (fun (_, fs) -> fs <> [])
