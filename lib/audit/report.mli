(** Rendering and regression-gating for audit results: JSON, SARIF
    2.1.0 and the checked-in TSV residue baseline. *)

type counts = { redundant : int; necessary : int; unknown : int }

val zero : counts
val counts : Audit.site list -> counts

val by_kind : Audit.site list -> int * int
(** Sites split by extension kind, [(sign, zero)]; load-implied sites
    count as sign extensions. *)

type cell = { input : string; variant : string; sites : Audit.site list }
(** One audited matrix cell: an input program under one variant. *)

val cell_to_json : cell -> Sxe_util.Json.t
(** One matrix cell; [sxopt audit --json] prints the array of them. *)

val sarif : cell list -> string
(** A complete SARIF 2.1.0 log. Regions map the uniform location
    triple: startLine = block id + 1, startColumn = instruction index
    + 2 ([1] for terminator-level findings). *)

val baseline_header : string

val baseline_of_cells : cell list -> string
(** TSV body, rows sorted by (input, variant) — byte-reproducible for
    a given program matrix regardless of worker count. *)

val parse_baseline : string -> ((string * string) * counts) list
(** Raises [Failure] on malformed rows: a corrupted baseline must fail
    loudly, not gate vacuously. *)

val diff_baseline :
  baseline:((string * string) * counts) list -> cell list -> string list
(** Regression descriptions (empty = gate passes): a cell above its
    baseline redundant count, or a new cell with redundant findings.
    Improvements pass. *)
