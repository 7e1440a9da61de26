(** Superinstruction-fusion gating.

    The pre-decoded engine ({!Precode}) can rewrite hot adjacent
    instruction pairs into fused superinstruction opcodes at
    decode time (see [docs/VM.md], "Superinstructions"). Which fusion
    rules fire is a per-run {!selection}:

    - [All] — every rule (the default);
    - [Off] — plain pre-decoded code, no fusion;
    - [Rules names] — only the named rules, for A/B measurement.

    The ambient default comes from the [SXE_FUSE] environment variable
    ([all], [off], or a comma-separated rule list), read once per
    process. Rule names are defined by {!Precode}; unknown names in a
    list are rejected by {!parse} so a typo cannot silently measure the
    unfused engine. *)

type selection = All | Off | Rules of string list

(** The fusion rules {!Precode} implements, in match priority order.
    The set is profile-guided and pruned by measurement: these are the
    hot straight-line dispatch pairs measured by
    [sxopt bench --dispatch-counts] on the 24 workloads (compress's
    loop-step block is [Const; Add; Mov; Jmp] and its probe condition is
    [ArrLoad; Br]; Numeric Sort adds [Const]-fed multiplies and
    [Sext W32]-fed array addressing), and every rule has static hits on
    them. Shapes that saved no dispatches, or too few to matter, were
    deleted (the ledger is in EXPERIMENTS.md, "Superinstruction
    fusion"); in particular there is no compare-and-branch rule: MiniJ
    lowers an integer condition to a [Br] on its operands, so no [Cmp]
    feeds the [Br] after it. All rules are pairs:
    - [const-br]: [Const] + [Br] reading the just-written constant
    - [load-br]: [ArrLoad] + [Br] reading the loaded value
    - [mov-jmp]: [Mov] + [Jmp] — a loop-step block's tail
    - [mov-br]: [Mov] + [Br] — a flag set right before the test on it
    - [store-jmp]: [ArrStore] + [Jmp] — a store-then-loop-back tail
    - [const-jmp]: [Const] + [Jmp] — a constant set up before a back edge
    - [gstore-gload]: [GStore I32] + [GLoad I32] — a global written and
      immediately reloaded (Numeric Sort's seed update)
    - [sext-load]: [Sext W32] + [ArrLoad] — index extend + array address
    - [load-sext]: [ArrLoad] + [Sext] re-extending the loaded value
    - [const-arith]: [Const] + any int binop consuming it (arithmetic,
      bitwise, shifts, division)
    - [load-load], [load-store], [store-store]: adjacent array
      accesses (Numeric Sort's element swaps)
    - [chain]: a second pass, iterated to fixpoint, merging a fused
      group with the group that follows it — [ConstBin]+[ConstBin],
      [ConstBin]+[MovJmp] (compress's whole loop-step block,
      [Const; Add; Mov; Jmp], in one dispatch), [ArrStore]+[MovJmp],
      the block-shaped Numeric Sort chains ([BinBin]+[Br],
      [BinBin]+[MovBr], [ArrLoad]+[SextLoad](+[Br]),
      [SextLoad]+[ConstBin](+[LoadBr]), [LoadLoad]+[StoreStore]
      (+[MovJmp])), and the sign-extension and rnd-body chains
      ([ConstBin]+[Sext W32] re-extending the result (+[MovJmp]),
      [Sext W32]+[MovJmp], [GLoad I32]+[BinBin]). Chained groups
      forward values between constituents in locals and elide
      register-file writes that liveness proves dead at the end of the
      group. *)
let rule_names =
  [
    "const-br"; "load-br"; "mov-jmp"; "mov-br"; "store-jmp"; "const-jmp";
    "gstore-gload"; "sext-load"; "load-sext"; "const-arith"; "load-load";
    "load-store"; "store-store"; "chain";
  ]

let is_rule n = List.mem n rule_names

(** A stable cache key: decoded images are cached per (mode, fusion
    selection), so runs with different selections coexist without
    re-decoding (and a changed [SXE_FUSE] between runs can never serve a
    stale image). *)
let key = function
  | All -> "all"
  | Off -> "off"
  | Rules rs -> String.concat "," (List.sort_uniq compare rs)

(** Does [sel] enable rule [name]? *)
let enables sel name =
  match sel with All -> true | Off -> false | Rules rs -> List.mem name rs

let parse (s : string) : (selection, string) result =
  match String.trim (String.lowercase_ascii s) with
  | "" | "all" -> Ok All
  | "off" | "none" | "0" -> Ok Off
  | spec -> (
      let names =
        List.filter_map
          (fun n -> match String.trim n with "" -> None | n -> Some n)
          (String.split_on_char ',' spec)
      in
      match List.filter (fun n -> not (is_rule n)) names with
      | [] -> Ok (Rules names)
      | bad ->
          Error
            (Printf.sprintf "unknown fusion rule%s %s (have: all, off, %s)"
               (if List.length bad > 1 then "s" else "")
               (String.concat ", " bad)
               (String.concat ", " rule_names)))

(** [once f] memoizes [f ()] and is safe to call from several domains at
    once, which forcing a shared [Lazy.t] is not (a concurrent force
    raises [CamlinternalLazy.Undefined]). Racing first callers may each
    run [f]; the first result published wins and every caller returns it.
    An exception is not memoized: it reaches every caller that runs [f]. *)
let once (f : unit -> 'a) : unit -> 'a =
  let memo = Atomic.make None in
  fun () ->
    match Atomic.get memo with
    | Some v -> v
    | None ->
        let v = f () in
        if Atomic.compare_and_set memo None (Some v) then v else Option.get (Atomic.get memo)

(** The ambient selection: [SXE_FUSE], read once. A malformed value is a
    hard error — a typo that silently disabled fusion would invalidate
    every measurement taken under it. *)
let of_env : unit -> selection =
  once (fun () ->
      match Sys.getenv_opt "SXE_FUSE" with
      | None | Some "" -> All
      | Some s -> (
          match parse s with
          | Ok sel -> sel
          | Error msg -> invalid_arg ("SXE_FUSE: " ^ msg)))
