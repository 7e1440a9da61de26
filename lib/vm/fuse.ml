(** Superinstruction-fusion gating.

    The pre-decoded engine ({!Precode}) rewrites hot adjacent
    instructions into fused superinstruction opcodes at decode time
    (see [docs/VM.md], "Superinstructions"). Which fusion rules fire is
    a per-run {!selection}:

    - [All] — every rule (the default);
    - [Off] — plain pre-decoded code, no fusion;
    - [Rules names] — only the named rules, for A/B measurement.

    The ambient default comes from the [SXE_FUSE] environment variable
    ([all], [off], or a comma-separated rule list), read once per
    process. The rules and the shapes they enable are the rows of
    [Precode.shapes], the one table of superinstructions: each row names
    its rule, its constituents, its match guard and whether it ends in a
    control transfer. Unknown names in a list are rejected by {!parse}
    so a typo cannot silently measure the unfused engine. *)

type selection = Precode.selection = All | Off | Rules of string list

(** Every rule of the shape table, in table order ([chain] enables the
    rows that merge two fused groups). *)
let rule_names = Precode.rule_names

let is_rule n = List.mem n rule_names

(** A stable cache key: decoded images are cached per (mode, fusion
    selection), so runs with different selections coexist without
    re-decoding (and a changed [SXE_FUSE] between runs can never serve a
    stale image). *)
let key = Precode.selection_key

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
