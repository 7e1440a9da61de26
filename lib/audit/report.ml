(** Rendering and regression-gating for audit results.

    Three surfaces: JSON (one object per matrix cell, mirroring the
    [sxopt certify --json] shape), SARIF 2.1.0 (for code-scanning UIs;
    regions use the uniform (function, block label, instruction index)
    locations — line = block id + 1, column = index + 2, both 1-based
    with the +1 slot for the label itself), and a TSV residue baseline
    checked into the repository so CI fails when a variant starts
    leaving {e more} provably-redundant extensions behind. *)

module Json = Sxe_util.Json

type counts = { redundant : int; necessary : int; unknown : int }

let zero = { redundant = 0; necessary = 0; unknown = 0 }

let counts (sites : Audit.site list) : counts =
  List.fold_left
    (fun c (s : Audit.site) ->
      match s.Audit.verdict with
      | Audit.Redundant _ -> { c with redundant = c.redundant + 1 }
      | Audit.Necessary _ -> { c with necessary = c.necessary + 1 }
      | Audit.Unknown _ -> { c with unknown = c.unknown + 1 })
    zero sites

(** Sites split by extension kind: [(sign, zero)]. Load-implied sites
    are sign extensions (the [LSign] access modes). *)
let by_kind (sites : Audit.site list) : int * int =
  List.fold_left
    (fun (s, z) (site : Audit.site) ->
      match site.Audit.kind with
      | Audit.Explicit (Sxe_ir.Types.Zero, _) -> (s, z + 1)
      | Audit.Explicit (Sxe_ir.Types.Sign, _) | Audit.Load_implied -> (s + 1, z))
    (0, 0) sites

(** One audited matrix cell: an input program under one variant. *)
type cell = { input : string; variant : string; sites : Audit.site list }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let verdict_tag = function
  | Audit.Redundant _ -> "redundant"
  | Audit.Necessary _ -> "necessary"
  | Audit.Unknown _ -> "unknown"

let site_to_json (s : Audit.site) =
  let kind =
    match s.Audit.kind with
    | Audit.Explicit (k, w) ->
        Sxe_ir.Types.string_of_ekind k ^ Sxe_ir.Types.string_of_width w
    | Audit.Load_implied -> "load-sext"
  in
  let fact, witness, detail =
    match s.Audit.verdict with
    | Audit.Redundant { fact; witness } ->
        (Json.Str (Audit.fact_to_string fact), witness, Json.Null)
    | Audit.Necessary { reason } | Audit.Unknown { reason } ->
        (Json.Null, [], Json.Str reason)
  in
  Json.Obj
    [
      ("func", Json.Str s.Audit.fname);
      ("bid", Json.of_int s.Audit.bid);
      ("iid", Json.of_int s.Audit.iid);
      ("idx", Option.fold ~none:Json.Null ~some:Json.of_int s.Audit.idx);
      ("reg", Json.of_int s.Audit.reg);
      ("kind", Json.Str kind);
      ("verdict", Json.Str (verdict_tag s.Audit.verdict));
      ("fact", fact);
      ( "witness",
        Json.Arr
          (List.map
             (fun (b, i) -> Json.Obj [ ("bid", Json.of_int b); ("iid", Json.of_int i) ])
             witness) );
      ("detail", detail);
    ]

let cell_to_json (c : cell) =
  let n = counts c.sites in
  Json.Obj
    [
      ("input", Json.Str c.input);
      ("variant", Json.Str c.variant);
      ("redundant", Json.of_int n.redundant);
      ("necessary", Json.of_int n.necessary);
      ("unknown", Json.of_int n.unknown);
      ("sites", Json.Arr (List.map site_to_json c.sites));
    ]

(* ------------------------------------------------------------------ *)
(* SARIF                                                               *)
(* ------------------------------------------------------------------ *)

let sarif_rules =
  [
    ( "audit-redundant-ext",
      "warning",
      "Surviving extension the residue auditor proves redundant (verified \
       by deletion + differential execution)." );
    ( "audit-necessary-ext",
      "note",
      "Surviving extension with a concrete reason it must stay." );
    ( "audit-speculation-candidate",
      "note",
      "Range-hostile surviving extension: a speculation candidate." );
  ]

let sarif_rule_of_verdict = function
  | Audit.Redundant _ -> ("audit-redundant-ext", "warning")
  | Audit.Necessary _ -> ("audit-necessary-ext", "note")
  | Audit.Unknown _ -> ("audit-speculation-candidate", "note")

let text t = Json.Obj [ ("text", Json.Str t) ]

let sarif_result (c : cell) (s : Audit.site) =
  let rule, level = sarif_rule_of_verdict s.Audit.verdict in
  let start_col = match s.Audit.idx with Some k -> k + 2 | None -> 1 in
  let region =
    [ ("startLine", Json.of_int (s.Audit.bid + 1)); ("startColumn", Json.of_int start_col) ]
  in
  let location =
    Json.Obj
      [
        ( "physicalLocation",
          Json.Obj
            [
              ("artifactLocation", Json.Obj [ ("uri", Json.Str (c.input ^ ".minij")) ]);
              ("region", Json.Obj region);
            ] );
        ( "logicalLocations",
          Json.Arr
            [
              Json.Obj
                [ ("fullyQualifiedName", Json.Str s.Audit.fname); ("kind", Json.Str "function") ];
            ] );
      ]
  in
  Json.Obj
    [
      ("ruleId", Json.Str rule);
      ("level", Json.Str level);
      ("message", text (Printf.sprintf "[%s/%s] %s" c.input c.variant (Audit.site_to_string s)));
      ("locations", Json.Arr [ location ]);
      ("partialFingerprints", Json.Obj [ ("cell", Json.Str (c.input ^ "/" ^ c.variant)) ]);
    ]

let sarif (cs : cell list) =
  let rule (id, _, help) = Json.Obj [ ("id", Json.Str id); ("shortDescription", text help) ] in
  let driver =
    Json.Obj
      [
        ("name", Json.Str "sxopt-audit");
        ("informationUri", Json.Str "https://example.invalid/sxopt");
        ("rules", Json.Arr (List.map rule sarif_rules));
      ]
  in
  let results = List.concat_map (fun c -> List.map (sarif_result c) c.sites) cs in
  Json.to_string
    (Json.Obj
       [
         ("$schema", Json.Str "https://json.schemastore.org/sarif-2.1.0.json");
         ("version", Json.Str "2.1.0");
         ( "runs",
           Json.Arr
             [ Json.Obj [ ("tool", Json.Obj [ ("driver", driver) ]); ("results", Json.Arr results) ] ]
         );
       ])

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)
(* ------------------------------------------------------------------ *)

(** The baseline is TSV, one row per (input, variant), sorted — a
    format `diff`, `cut` and code review all read natively, and byte-
    reproducible across worker counts because the audit itself is
    deterministic. *)

let baseline_header =
  "# sxopt audit residue baseline: \
   input\tvariant\tredundant\tnecessary\tunknown\tsext\tzext"

let baseline_of_cells (cs : cell list) : string =
  let rows =
    List.map
      (fun c ->
        let n = counts c.sites in
        let s, z = by_kind c.sites in
        Printf.sprintf "%s\t%s\t%d\t%d\t%d\t%d\t%d" c.input c.variant
          n.redundant n.necessary n.unknown s z)
      cs
  in
  String.concat "\n" (baseline_header :: List.sort compare rows) ^ "\n"

(** Parse a baseline file body. Unknown lines raise [Failure] — a
    corrupted baseline should fail loudly, not gate vacuously. *)
let parse_baseline (text : string) : ((string * string) * counts) list =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.split_on_char '\t' line with
           (* the trailing sext/zext columns are informational; the gate
              reads only the verdict counts (pre-kind baselines lack
              them and still parse) *)
           | [ input; variant; r; n; u ]
           | [ input; variant; r; n; u; _; _ ] -> (
               match
                 (int_of_string_opt r, int_of_string_opt n, int_of_string_opt u)
               with
               | Some r, Some n, Some u ->
                   Some
                     ((input, variant), { redundant = r; necessary = n; unknown = u })
               | _ -> failwith ("malformed baseline row: " ^ line))
           | _ -> failwith ("malformed baseline row: " ^ line))

(** Gate the current results against a baseline: a regression is a cell
    whose provably-redundant count exceeds its baseline entry, or a new
    cell arriving with redundant findings. Improvements (fewer
    redundant) pass — refresh the baseline to lock them in. Returns
    human-readable regression descriptions; empty = gate passes. *)
let diff_baseline ~(baseline : ((string * string) * counts) list)
    (cs : cell list) : string list =
  List.filter_map
    (fun c ->
      let n = counts c.sites in
      match List.assoc_opt (c.input, c.variant) baseline with
      | Some b when n.redundant > b.redundant ->
          Some
            (Printf.sprintf
               "%s / %s: %d provably-redundant extension(s), baseline %d"
               c.input c.variant n.redundant b.redundant)
      | Some _ -> None
      | None when n.redundant > 0 ->
          Some
            (Printf.sprintf
               "%s / %s: %d provably-redundant extension(s), no baseline entry"
               c.input c.variant n.redundant)
      | None -> None)
    cs
